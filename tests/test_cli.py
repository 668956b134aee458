import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from persym import cli, formulas


def run_cli(argv, capsys):
    """Invoke the CLI in-process, folding SystemExit into a return code."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestCensusCommand:
    def test_gamma_json(self, capsys):
        code, out, _ = run_cli(["census", "gamma", "--s", "2", "--k", "3"], capsys)
        assert code == 0
        assert out == '{"0":1,"1":3,"2":12}\n'

    def test_stacked_json(self, capsys):
        code, out, _ = run_cli(
            ["census", "stacked", "--n", "1", "--m", "2", "--k", "3"], capsys
        )
        assert code == 0
        assert out == '{"0":1,"1":13,"2":66,"3":176}\n'

    def test_quad_includes_zero_rank_profile(self, capsys):
        code, out, _ = run_cli(["census", "quad", "--s", "2", "--k", "2"], capsys)
        assert code == 0
        assert '"0,0,0,0":1' in out

    def test_sigma_keys(self, capsys):
        code, out, _ = run_cli(["census", "sigma", "--m", "0", "--k", "1"], capsys)
        assert code == 0
        assert json.loads(out) == {"same,0": 1, "same,1": 2, "up,1": 1}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["census", "gamma", "--s", "2", "--k", "2", "--format", "csv"], capsys
        )
        assert code == 0
        assert out == "key,count\n0,1\n1,3\n2,4\n"

    def test_output_independent_of_threads(self, capsys):
        _, single, _ = run_cli(
            ["census", "gamma", "--s", "3", "--k", "4", "--threads", "1"], capsys
        )
        _, pooled, _ = run_cli(
            ["census", "gamma", "--s", "3", "--k", "4", "--threads", "3"], capsys
        )
        assert single == pooled

    def test_checkpoint_file_written_and_reused(self, tmp_path, capsys):
        path = str(tmp_path / "stacked.ckpt")
        args = ["census", "stacked", "--n", "2", "--m", "1", "--k", "2",
                "--checkpoint", path]
        code, first, _ = run_cli(args, capsys)
        assert code == 0
        ckpt = tmp_path / "stacked.ckpt.stacked"
        assert ckpt.exists()
        code, second, _ = run_cli(args, capsys)
        assert code == 0 and second == first

    def test_foreign_checkpoint_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "run")
        code, _, _ = run_cli(["census", "gamma", "--s", "3", "--k", "4",
                              "--checkpoint", path], capsys)
        assert code == 0
        code, out, err = run_cli(["census", "gamma", "--s", "2", "--k", "5",
                                  "--checkpoint", path], capsys)
        assert code == 2 and out == ""
        assert "header" in err

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(["census", "gamma", "--k", "3"], capsys)
        assert code == 2
        assert "--s" in err

    def test_unread_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(
            ["census", "gamma", "--s", "2", "--k", "2", "--m", "9", "--n", "4"], capsys)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --m 9 --n 4" in err

    def test_help_lists_only_the_kinds_flags(self, capsys):
        code, out, _ = run_cli(["census", "gamma", "-h"], capsys)
        assert code == 0
        flags = set(re.findall(r"--(\w+)", out))
        assert {"s", "k"} <= flags
        assert not flags & {"n", "m", "l"}

    @pytest.mark.parametrize("line", ["0 1 7:1", "0 1 0:1 0:1"])
    def test_impossible_or_repeated_checkpoint_key_exits_two(self, tmp_path, capsys, line):
        argv = ["census", "gamma", "--s", "3", "--k", "4",
                "--checkpoint", str(tmp_path / "run")]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        ckpt = tmp_path / "run.gamma"
        header, chunk, *rest = ckpt.read_text().splitlines()
        assert chunk == "0 1 0:1"
        ckpt.write_text("\n".join([header, line] + rest) + "\n")
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "key" in err

    @pytest.mark.parametrize("line", ["0 1 x:1", "0 1 0:1x", "x 1 0:1", "0 1 :1"])
    def test_malformed_checkpoint_field_exits_two(self, tmp_path, capsys, line):
        argv = ["census", "gamma", "--s", "3", "--k", "4",
                "--checkpoint", str(tmp_path / "run")]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        ckpt = tmp_path / "run.gamma"
        header, _, *rest = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join([header, line] + rest) + "\n")
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "%r has a malformed field; remove %s to start over" % (line, ckpt) in err

    def test_dead_worker_exits_two_and_the_rerun_resumes(self, tmp_path):
        # the worker of the chunk at index 0 dies without a word
        script = (
            "import os, sys\n"
            "from persym import census, cli\n"
            "walk = census._walk_worker\n"
            "def die(args):\n"
            "    if args[4] == 0:\n"
            "        os._exit(9)\n"
            "    return walk(args)\n"
            "census._walk_worker = die\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        argv = ["census", "gamma", "--s", "8", "--k", "8", "--threads", "2",
                "--checkpoint", "p"]
        result = subprocess.run([sys.executable, "-c", script] + argv, cwd=tmp_path,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: census gamma s=8 k=8 failed in a worker")
        assert "a rerun resumes from p.gamma" in result.stderr
        result = subprocess.run([sys.executable, "-m", "persym.cli"] + argv, cwd=tmp_path,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0
        assert json.loads(result.stdout) == {
            str(i): count for i, count in formulas.gamma_table(8, 8).items()}

    def test_budget_exit(self, capsys):
        code, _, err = run_cli(
            ["census", "gamma", "--s", "9", "--k", "9", "--budget-bits", "10"], capsys
        )
        assert code == 2
        assert "budget" in err


class TestVerifyCommand:
    def test_every_suite_passes_with_defaults(self, capsys):
        for theorem in sorted(cli._VERIFIERS):
            code, out, _ = run_cli(["verify", theorem], capsys)
            assert code == 0, theorem
            report = json.loads(out)
            assert list(report) == ["params", "computed", "expected", "match"]
            assert report["match"] is True
            assert report["params"]["theorem"] == theorem

    def test_window_census_with_params(self, capsys):
        code, out, _ = run_cli(["verify", "thm3.1", "--s", "3", "--k", "4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["computed"] == {"0": 1, "1": 3, "2": 12, "3": 48}

    def test_stacked_example(self, capsys):
        code, out, _ = run_cli(
            ["verify", "thm3.9", "--n", "1", "--m", "2", "--k", "3"], capsys
        )
        assert code == 0
        assert json.loads(out)["computed"] == {"0": 1, "1": 13, "2": 66, "3": 176}

    def test_partition_suite_at_larger_shape(self, capsys):
        code, out, _ = run_cli(["verify", "lemmas5.x", "--s", "3", "--k", "4"], capsys)
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(formulas, "gamma_table", lambda s, k: {0: 999})
        code, out, _ = run_cli(["verify", "thm3.1"], capsys)
        assert code == 1
        assert json.loads(out)["match"] is False

    def test_uncovered_case_table_is_an_error(self, capsys):
        code, _, err = run_cli(["verify", "thm3.8", "--k", "1"], capsys)
        assert code == 2
        assert "no case table" in err

    def test_unread_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(["verify", "thm3.1", "--q", "7", "--n", "3"], capsys)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --q 7 --n 3" in err

    def test_help_lists_only_the_suites_flags(self, capsys):
        code, out, _ = run_cli(["verify", "cor3.10", "-h"], capsys)
        assert code == 0
        flags = set(re.findall(r"--(\w+)", out))
        assert flags - {"help", "threads", "budget", "checkpoint"} == {"n"}

    def test_piecewise_count_at_n_zero(self, capsys):
        code, out, _ = run_cli(
            ["verify", "thm3.11", "--q", "3", "--n", "0", "--k", "3", "--m", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["computed"] == report["expected"] == {"R": 3200, "R piecewise": 3200}
        # the piecewise form needs m <= k - 1
        code, out, _ = run_cli(
            ["verify", "thm3.11", "--n", "0", "--k", "2", "--m", "2"], capsys)
        assert code == 0 and list(json.loads(out)["computed"]) == ["R"]

    def test_piecewise_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(formulas, "repcount_piecewise", lambda q, k, m: 0)
        code, out, _ = run_cli(["verify", "thm3.11", "--n", "0"], capsys)
        assert code == 1
        assert json.loads(out)["computed"]["R piecewise"] == 0

    def test_even_moments_check_the_boundary_factors(self, capsys):
        code, out, _ = run_cli(["verify", "thm3.5", "--s", "3", "--k", "4"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["computed"]["g^2 factors"] == report["expected"]["g^2 factors"] == 64

    def test_boundary_factor_mismatch_exits_one(self, capsys, monkeypatch):
        # for s = k = 2, g is 0, +-2 or +-4, so no g^2 is 1 * 1
        monkeypatch.setattr(cli, "g_boundary_factors", lambda s, k, t: (1, 1))
        code, out, _ = run_cli(["verify", "thm3.5"], capsys)
        assert code == 1
        report = json.loads(out)
        assert (report["computed"]["g^2 factors"], report["expected"]["g^2 factors"]) == (0, 8)

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run_cli(["verify", "bogus"], capsys)
        assert code == 2


class TestExpsumCommand:
    def test_h_direct_and_closed(self, capsys):
        code, out, _ = run_cli(["expsum", "h", "--s", "2", "--k", "2", "--t", "100"],
                               capsys)
        assert code == 0
        assert out == "direct=8 closed=8 agree=true\n"

    def test_h_at_zero(self, capsys):
        code, out, _ = run_cli(["expsum", "h", "--s", "2", "--k", "2", "--t", "000"],
                               capsys)
        assert code == 0
        assert out == "direct=16 closed=16 agree=true\n"

    def test_g_negative_value(self, capsys):
        code, out, _ = run_cli(["expsum", "g", "--s", "2", "--k", "2", "--t", "001"],
                               capsys)
        assert code == 0
        assert out == "direct=-4 closed=-4 agree=true\n"

    def test_two_variable_kinds(self, capsys):
        code, out, _ = run_cli(
            ["expsum", "g2", "--m", "1", "--k", "2", "--t", "010", "--eta", "10"],
            capsys)
        assert code == 0 and "agree=true" in out
        code, out, _ = run_cli(
            ["expsum", "f2", "--m", "1", "--k", "2", "--t", "010", "--eta", "10"],
            capsys)
        assert code == 0 and "agree=true" in out

    def test_fmulti(self, capsys):
        code, out, _ = run_cli(
            ["expsum", "fmulti", "--m", "0", "--k", "2", "--t", "01",
             "--etas", "10,11"], capsys)
        assert code == 0 and "agree=true" in out

    def test_long_literal_is_truncated(self, capsys):
        code, out, _ = run_cli(["expsum", "h", "--s", "2", "--k", "2", "--t", "10011"],
                               capsys)
        assert code == 0
        assert out == "direct=8 closed=8 agree=true\n"

    def test_short_literal_is_an_error(self, capsys):
        code, _, err = run_cli(["expsum", "h", "--s", "2", "--k", "2", "--t", "10"],
                               capsys)
        assert code == 2
        assert "precision" in err

    def test_bad_literal_is_an_error(self, capsys):
        code, _, _ = run_cli(["expsum", "h", "--s", "2", "--k", "2", "--t", "10x"],
                             capsys)
        assert code == 2

    @pytest.mark.parametrize("extra,budget", [
        (["--s", "15"], 28), (["--s", "14", "--budget-bits", "20"], 20)])
    def test_direct_sum_over_budget_exits_two_at_once(self, extra, budget):
        result = subprocess.run(
            [sys.executable, "-m", "persym.cli", "expsum", "h", "--k", "14",
             "--t", "0" * 28] + extra,
            capture_output=True, text=True, timeout=20)
        assert result.returncode == 2 and result.stdout == ""
        assert "over the 2^%d budget" % budget in result.stderr

    @pytest.mark.parametrize("argv,message", [
        pytest.param(
            ["h", "--s", "2", "--k", "2", "--t", "100", "--m", "4", "--eta", "11"],
            "unrecognized arguments: --m 4 --eta 11", id="h-m-eta"),
        pytest.param(
            ["fmulti", "--m", "0", "--k", "2", "--t", "01", "--etas", "10", "--s", "9"],
            "unrecognized arguments: --s 9", id="fmulti-s"),
        (["h", "--s", "2", "--k", "2", "--t", "100", "--n", "3"],
         "unrecognized arguments: --n 3"),
    ])
    def test_unread_flag_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(["expsum"] + argv, capsys)
        assert code == 2 and out == ""
        assert message in err

    def test_disagreement_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "h_closed", lambda s, k, t: 12345)
        code, out, _ = run_cli(["expsum", "h", "--s", "2", "--k", "2", "--t", "100"],
                               capsys)
        assert code == 1
        assert "agree=false" in out


class TestRepcountCommand:
    def test_brute_example(self, capsys):
        code, out, _ = run_cli(
            ["repcount", "--mode", "brute", "--q", "1", "--n", "1", "--k", "3",
             "--m", "2"], capsys)
        assert code == 0
        assert out == "23\n"

    def test_formula_examples(self, capsys):
        code, out, _ = run_cli(
            ["repcount", "--mode", "formula", "--q", "3", "--n", "5", "--k", "4",
             "--m", "2"], capsys)
        assert code == 0 and out == "24413824\n"
        code, out, _ = run_cli(
            ["repcount", "--mode", "formula", "--q", "2", "--n", "0", "--k", "2",
             "--m", "1"], capsys)
        assert code == 0 and out == "64\n"

    def test_integral_mode(self, capsys):
        code, out, _ = run_cli(
            ["repcount", "--mode", "integral", "--q", "1", "--n", "1", "--k", "3",
             "--m", "2"], capsys)
        assert code == 0 and out == "23\n"

    def test_check_mode_runs_affordable_modes(self, capsys):
        code, out, _ = run_cli(
            ["repcount", "--check", "--q", "2", "--n", "1", "--k", "2", "--m", "1"],
            capsys)
        assert code == 0
        assert out == "formula=148 brute=148 integral=148 agree=true\n"

    def test_check_mode_skips_over_budget_modes(self, capsys):
        code, out, _ = run_cli(
            ["repcount", "--check", "--q", "3", "--n", "5", "--k", "4", "--m", "2",
             "--budget-bits", "10"], capsys)
        assert code == 0
        assert out == "formula=24413824 agree=true\n"

    def test_mode_or_check_required(self, capsys):
        code, _, err = run_cli(
            ["repcount", "--q", "1", "--n", "0", "--k", "2", "--m", "1"], capsys)
        assert code == 2
        assert "--mode" in err

    def test_mode_and_check_are_exclusive(self, capsys):
        code, out, err = run_cli(
            ["repcount", "--mode", "brute", "--check", "--q", "1", "--n", "1",
             "--k", "2", "--m", "1"], capsys)
        assert code == 2 and out == ""
        assert "--check: not allowed with argument --mode" in err


def benchmark_tiny_argvs():
    """The benchmark's tiny commands, each {t:N} literal filled with N zeros."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
    workloads = json.loads(path.read_text())["workloads"]
    return [re.sub(r"\{t:(\d+)\}", lambda m: "0" * int(m.group(1)), line).split()
            for workload in workloads.values() for line in workload["tiny"]]


@pytest.mark.parametrize("argv", benchmark_tiny_argvs(), ids=" ".join)
def test_benchmark_tiny_commands_run(tmp_path, capsys, argv):
    # the benchmark appends --threads and --checkpoint to all but expsum
    if argv[0] != "expsum":
        argv = argv + ["--threads", "1", "--checkpoint", str(tmp_path / "run")]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err


def test_console_script_matches_in_process_output():
    result = subprocess.run(
        [sys.executable, "-m", "persym.cli", "census", "gamma", "--s", "2",
         "--k", "3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == '{"0":1,"1":3,"2":12}\n'
