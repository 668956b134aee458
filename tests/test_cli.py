import inspect
import itertools
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from persym import census, cli, expsum, formulas, suites


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

    @pytest.mark.parametrize("argv,out", [
        (["sigma", "--m", "1", "--k", "2"],
         '{"same,0":1,"same,1":6,"same,2":16,"up,1":3,"up,2":6}\n'),
        (["sigma", "--m", "1", "--k", "2", "--format", "csv"],
         'key,count\n"same,0",1\n"same,1",6\n"same,2",16\n"up,1",3\n"up,2",6\n'),
        (["quad", "--s", "2", "--k", "3"],
         '{"0,0,0,0":1,"0,0,0,1":1,"0,1,1,2":2,"1,1,1,1":2,"1,1,1,2":2,"1,1,2,2":8}\n'),
        (["quad", "--s", "2", "--k", "2", "--format", "csv"],
         'key,count\n"0,0,0,0",1\n"0,0,0,1",1\n"0,1,1,2",2\n"1,1,1,1",2\n"1,1,1,2",2\n'),
        (["stacked", "--n", "2", "--m", "1", "--k", "2"], '{"0":1,"1":21,"2":106}\n'),
        (["stacked", "--n", "2", "--m", "1", "--k", "2", "--format", "csv"],
         "key,count\n0,1\n1,21\n2,106\n"),
    ], ids=["sigma-json", "sigma-csv", "quad-json", "quad-csv", "stacked-json", "stacked-csv"])
    def test_exact_output_bytes(self, capsys, argv, out):
        assert run_cli(["census"] + argv, capsys)[:2] == (0, out)

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

    @pytest.mark.parametrize("argv", [
        ["census", "quad", "--s", "2", "--k", "2", "--l", "2"],
        ["verify", "thm3.3", "--l", "1"],
    ], ids=["census-quad", "verify-thm3.3"])
    def test_quad_window_offset_is_no_flag(self, capsys, argv):
        # every census runs over all coefficient sequences, so no offset is read
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --l" in err

    def test_quad_checkpoint_keeps_its_header_and_resumes(self, tmp_path, capsys):
        # the header keeps the l=1 every quad checkpoint has named
        argv = ["census", "quad", "--s", "9", "--k", "9", "--threads", "1",
                "--checkpoint", str(tmp_path / "run")]
        code, out, _ = run_cli(argv, capsys)
        path = tmp_path / "run.quad"
        full = path.read_bytes()
        header, first, second, end = full.split(b"\n")
        assert (code, header) == (0, b"#census v2 quad l=1 n=9 m=9 points=131072 chunk=65536")
        path.write_bytes(b"\n".join([header, first, end]))
        assert run_cli(argv, capsys) == (0, out, "")
        assert path.read_bytes() == full

    @pytest.mark.parametrize("argv", [
        ["census", "gamma", "--s", "2", "--k", "2"],
        ["verify", "thm3.1", "--s", "2", "--k", "2"],
        ["repcount", "--mode", "formula", "--q", "1", "--n", "0", "--k", "2", "--m", "1"],
    ], ids=["census", "verify", "repcount"])
    @pytest.mark.parametrize("threads", ["0", "-4", "x"])
    def test_threads_below_one_is_usage_error(self, capsys, argv, threads):
        code, out, err = run_cli(argv + ["--threads", threads], capsys)
        assert code == 2 and out == ""
        assert "argument --threads: must be an integer of at least 1" in err

    @pytest.mark.parametrize("kind,own", [
        ("gamma", {"s", "k"}), ("quad", {"s", "k"}), ("sigma", {"m", "k"}),
        ("stacked", {"n", "m", "k"}),
    ], ids=["gamma", "quad", "sigma", "stacked"])
    def test_help_lists_only_the_kinds_flags(self, capsys, kind, own):
        code, out, _ = run_cli(["census", kind, "-h"], capsys)
        assert code == 0
        flags = set(re.findall(r"--(\w+)", out))
        assert flags - {"help", "format", "threads", "budget", "checkpoint"} == own

    def test_every_enumeration_is_one_kind(self):
        enums = [name for name in census.__all__ if name.startswith("enum_")]
        assert sorted(name for name, _ in cli._CENSUS_KINDS.values()) == sorted(enums)

    @pytest.mark.parametrize("line", ["0 64 7:1", "0 64 0:1 0:1"])
    def test_impossible_or_repeated_checkpoint_key_exits_two(self, tmp_path, capsys, line):
        argv = ["census", "gamma", "--s", "3", "--k", "4",
                "--checkpoint", str(tmp_path / "run")]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        ckpt = tmp_path / "run.gamma"
        header, chunk, *rest = ckpt.read_text().splitlines()
        assert chunk.rpartition(" crc=")[0] == "0 64 0:1 1:3 2:12 3:48"
        ckpt.write_text("\n".join([header, line] + rest) + "\n")
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "key" in err

    @pytest.mark.parametrize("line", ["0 1 x:1", "0 1 0:1x", "x 1 0:1", "0 1 :1",
                                      "0 1 0:+1"])
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

    def test_non_ascii_checkpoint_byte_exits_two(self, tmp_path, capsys):
        argv = ["census", "gamma", "--s", "3", "--k", "4", "--threads", "1",
                "--checkpoint", str(tmp_path / "run")]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        ckpt = tmp_path / "run.gamma"
        header, _, *rest = ckpt.read_bytes().split(b"\n")
        ckpt.write_bytes(b"\n".join([header, b"0 1 0:1\xc3\xa9"] + rest))
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "line 2 has a non-ASCII byte; remove %s to start over" % ckpt in err

    def test_repeated_checkpoint_range_exits_two(self, tmp_path, capsys):
        argv = ["census", "gamma", "--s", "3", "--k", "3",
                "--checkpoint", str(tmp_path / "run")]
        code, first, _ = run_cli(argv, capsys)
        assert code == 0 and first == '{"0":1,"1":3,"2":12,"3":16}\n'
        ckpt = tmp_path / "run.gamma"
        with open(ckpt, "a") as handle:
            handle.write("0 32 3:32\n")
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "range (0, 32) appears twice; remove %s to start over" % ckpt in err

    def test_count_moved_between_keys_exits_two(self, tmp_path, capsys):
        # the keys stay possible and the sum stays 64: only the line's CRC tells
        argv = ["census", "gamma", "--s", "3", "--k", "4", "--threads", "1",
                "--checkpoint", str(tmp_path / "c")]
        assert run_cli(argv, capsys) == (0, '{"0":1,"1":3,"2":12,"3":48}\n', "")
        ckpt = tmp_path / "c.gamma"
        text = ckpt.read_text()
        edited = text.replace("0 64 0:1 1:3 2:12 3:48 ", "0 64 0:1 1:4 2:11 3:48 ")
        assert edited != text
        ckpt.write_text(edited)
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "fails its CRC32 check; remove %s to start over" % ckpt in err
        assert ckpt.read_text() == edited

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_checkpoint_cut_in_half_resumes_to_the_same_stdout(self, tmp_path, capsys,
                                                               threads):
        # 2^17 windows in two chunks; a torn line is computed again, and a cut
        # into the second line keeps the first
        argv = ["census", "gamma", "--s", "9", "--k", "9", "--threads", threads,
                "--checkpoint", str(tmp_path / "run")]
        code, out, _ = run_cli(argv, capsys)
        ckpt = tmp_path / "run.gamma"
        full = ckpt.read_bytes()
        assert code == 0 and full.count(b"\n") == 3
        for cut in (len(full) // 2, len(full) - 10):
            ckpt.write_bytes(full[:cut])
            assert run_cli(argv, capsys) == (0, out, "")
            assert ckpt.read_bytes() == full

    @pytest.mark.parametrize("base,is_dir", [("missing/x", False), ("x", True)],
                             ids=["missing-directory", "directory"])
    def test_checkpoint_that_cannot_be_opened_exits_two(
            self, tmp_path, capsys, base, is_dir):
        ckpt = tmp_path / (base + ".gamma")
        if is_dir:
            ckpt.mkdir()
        code, out, err = run_cli(["census", "gamma", "--s", "2", "--k", "2",
                                  "--checkpoint", str(tmp_path / base)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(ckpt) in err

    @pytest.mark.parametrize("argv", [
        ["census", "gamma", "--s", "2", "--k", "2"],
        ["verify", "lemmas5.x"],
        ["repcount", "--mode", "formula", "--q", "2", "--n", "1", "--k", "3", "--m", "2"],
    ], ids=["census", "verify", "repcount"])
    def test_empty_checkpoint_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv + ["--checkpoint", ""], capsys)
        assert code == 2 and out == ""
        assert "argument --checkpoint: must be a nonempty path" in err
        assert list(tmp_path.iterdir()) == []

    def test_dead_worker_exits_two_and_the_rerun_resumes(self, tmp_path):
        # the worker of the chunk at index 0 dies without a word
        script = (
            "import os, sys\n"
            "from persym import census, cli\n"
            "walk = census._walk_worker\n"
            "def die(args):\n"
            "    if args[-2] == 0:\n"
            "        os._exit(9)\n"
            "    return walk(args)\n"
            "census._walk_worker = die\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        argv = ["census", "gamma", "--s", "11", "--k", "12", "--threads", "2",
                "--checkpoint", "p"]
        result = subprocess.run([sys.executable, "-c", script] + argv, cwd=tmp_path,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: census gamma s=11 k=12 failed in a worker")
        assert "a rerun resumes from p.gamma" in result.stderr
        result = subprocess.run([sys.executable, "-m", "persym.cli"] + argv, cwd=tmp_path,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0
        assert json.loads(result.stdout) == {
            str(i): count for i, count in formulas.gamma_table(11, 12).items()}

    def test_budget_exit(self, capsys):
        code, _, err = run_cli(
            ["census", "gamma", "--s", "9", "--k", "9", "--budget-bits", "10"], capsys
        )
        assert code == 2
        assert "budget" in err


class TestVerifyCommand:
    def test_every_suite_passes_with_defaults(self, capsys):
        for theorem in sorted(suites.SUITES):
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

    def test_partition_suite_reads_the_keys_each_lemma_names(self):
        # the census holds 0 at every impossible key, so reading another impossible
        # key changes no report; here each key holds its own bit, so a sum shows
        # which keys it read
        s, k = 3, 4
        quads = Counter({key: 1 << bit for bit, key in
                         enumerate(itertools.product(range(-1, s + 2), repeat=4))})

        def run_census(kind, params, label=None):
            return quads if kind == "quad" else Counter({i: 3 ** i for i in range(s + 1)})

        computed, expected = suites.verify_partition_suite(run_census, 28, s, k)
        for j in range(s):
            assert (computed["pair j=%d" % j], expected["pair j=%d" % j]) == (
                quads[(j, j, j, j)], quads[(j, j, j, j + 1)])
        for j in range(s - 1):
            assert computed["skew j=%d" % j] == (quads[(j, j + 1, j + 1, j + 1)]
                                                 + quads[(j, j + 1, j, j + 1)]
                                                 + quads[(j, j, j + 1, j + 1)])
            assert expected["delete i=%d" % j] == (2 * quads[(j, j, j, j)]
                                                   + quads[(j - 1, j, j, j + 1)])

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(formulas, "gamma_table", lambda s, k: {0: 999})
        code, out, _ = run_cli(["verify", "thm3.1"], capsys)
        assert code == 1
        assert json.loads(out)["match"] is False

    def test_row_split_report_bytes(self, capsys):
        code, out, _ = run_cli(["verify", "sigma6.x"], capsys)
        assert code == 0
        assert out == (
            '{"params":{"theorem":"sigma6.x","m":1,"k":2},'
            '"computed":{"same,0":1,"same,1":6,"same,2":16,"up,1":3,"up,2":6,'
            '"sum,0":1,"sum,1":9,"sum,2":22},'
            '"expected":{"same,0":1,"same,1":6,"same,2":16,"up,1":3,"up,2":6,'
            '"sum,0":1,"sum,1":9,"sum,2":22},"match":true}\n')

    @pytest.mark.parametrize("suite,report", [
        ("thm3.1", '{"params":{"theorem":"thm3.1","s":3,"k":4},'
                   '"computed":{"0":1,"1":3,"2":12,"3":48},'
                   '"expected":{"0":1,"1":3,"2":12,"3":48},"match":true}\n'),
        ("thm3.3", '{"params":{"theorem":"thm3.3","s":2,"k":3},'
                   '"computed":{"0,0,0,0":1,"0,0,0,1":1,"0,1,1,2":2,"1,1,1,1":2,'
                   '"1,1,1,2":2,"1,1,2,2":8},'
                   '"expected":{"0,0,0,0":1,"0,0,0,1":1,"0,1,1,2":2,"1,1,1,1":2,'
                   '"1,1,1,2":2,"1,1,2,2":8},"match":true}\n'),
        ("thm3.8", '{"params":{"theorem":"thm3.8","m":1,"k":3},'
                   '"computed":{"0":1,"1":13,"2":66,"3":48},'
                   '"expected":{"0":1,"1":13,"2":66,"3":48},"match":true}\n'),
        ("thm3.9", '{"params":{"theorem":"thm3.9","n":1,"m":2,"k":3},'
                   '"computed":{"0":1,"1":13,"2":66,"3":176},'
                   '"expected":{"0":1,"1":13,"2":66,"3":176},"match":true}\n'),
        ("landsberg", '{"params":{"theorem":"landsberg","rows":2,"k":2},'
                      '"computed":{"0":1,"1":9,"2":6},'
                      '"expected":{"0":1,"1":9,"2":6},"match":true}\n'),
    ])
    def test_table_suite_report_bytes(self, capsys, suite, report):
        code, out, err = run_cli(["verify", suite], capsys)
        assert (code, out, err) == (0, report, "")

    def test_help_lists_every_suite_with_its_line(self, capsys):
        code, out, _ = run_cli(["verify", "-h"], capsys)
        assert code == 0
        listed = " ".join(out.split())  # argparse wraps to the terminal width
        for line in [
            "thm3.1 Window rank census against the closed product form.",
            "thm3.3 Rank profile census of the four nested windows against the "
            "closed table.",
            "thm3.5 Even power sums of g against the weighted diagonal profile counts.",
            "thm3.8 Census with one appended row against the printed case tables.",
            "thm3.9 Census with n appended rows against the coefficient expansion.",
            "cor3.10 Coefficient recurrence against the closed alternating sum and "
            "stored rows.",
            "thm3.11 Brute-force representation count against the stacked-census "
            "formula.",
            "landsberg Rank census over all matrices of a shape against the "
            "classical product.",
            "lemmas5.x Deletion and parity identities tying the window censuses "
            "together.",
            "sigma6.x Split of the one-extra-row census by whether the row stays "
            "in span.",
        ]:
            assert line in listed

    @pytest.mark.parametrize("lost", [lambda key: key[1] == 3, lambda key: True],
                             ids=["top-rank", "everything"])
    def test_row_split_census_that_loses_keys_exits_one(self, capsys, monkeypatch, lost):
        enum_sigma = census.enum_sigma

        def lossy(m, k, **opts):
            tally = enum_sigma(m, k, **opts)
            return Counter({key: count for key, count in tally.items() if not lost(key)})

        monkeypatch.setattr(census, "enum_sigma", lossy)
        code, out, _ = run_cli(["verify", "sigma6.x", "--m", "2", "--k", "3"], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["match"] is False
        assert {"same,3", "up,3", "sum,3"} <= set(report["expected"]) - set(report["computed"])

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

    @pytest.mark.parametrize("suite", sorted(suites.SUITES))
    def test_each_runner_takes_the_census_the_budget_and_its_flags(self, suite):
        runner, defaults, flag_help = suites.SUITES[suite]
        names = list(inspect.signature(runner).parameters)
        assert names == ["run_census", "budget_bits"] + list(defaults)
        assert set(flag_help) <= set(defaults)

    @pytest.mark.parametrize("suite,charge", [
        ("thm3.5", "--q Q powers g^2 .. g^2q; the report prints 2q values of up to 2q(k+s) "
         "bits, and printing W 64-bit words takes about W^2 steps, so q is refused when the "
         "bit length of 2q W^2, W = q(k+s)//32 + 1, is over --budget-bits (default: 2)"),
        ("cor3.10", "--n N rows 1..N of the coefficient triangle; the closed side grows "
         "about as N^5, so N is refused when the bit length of N^4 is over --budget-bits "
         "(default: 5)"),
    ])
    def test_help_states_the_flags_charge(self, capsys, suite, charge):
        code, out, _ = run_cli(["verify", suite, "-h"], capsys)
        assert code == 0
        assert charge in " ".join(out.split())  # argparse wraps to the terminal width

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
        monkeypatch.setattr(expsum, "g_boundary_vectors", lambda s, k: ([1] * 8, [1] * 8))
        code, out, _ = run_cli(["verify", "thm3.5"], capsys)
        assert code == 1
        report = json.loads(out)
        assert (report["computed"]["g^2 factors"], report["expected"]["g^2 factors"]) == (0, 8)

    @pytest.mark.parametrize("suite", ["thm3.5", "lemmas5.x"])
    def test_grid_over_the_transform_ceiling_exits_two(self, capsys, monkeypatch, suite):
        monkeypatch.setattr(expsum, "GRID_MAX_BITS", 6)
        # s = 3, k = 5 is a 2^7 point grid: one bit over
        code, out, err = run_cli(["verify", suite, "--s", "3", "--k", "5"], capsys)
        assert code == 2 and out == ""
        assert "2^7 point grid, over the fixed 2^6 point ceiling" in err
        code, out, _ = run_cli(["verify", suite, "--s", "3", "--k", "4"], capsys)
        assert code == 0 and json.loads(out)["match"] is True

    @pytest.mark.parametrize("q,budget,need", [("32", "10", 11), ("2048", "28", 29),
                                               ("10000", "28", 35)])
    def test_even_moments_over_their_print_budget_exit_two_before_any_work(
            self, capsys, monkeypatch, q, budget, need):
        # 2q values of up to 2q(k+s) bits: 2q W^2 with W = q(k+s)//32 + 1
        def refuse(*args):
            raise AssertionError("the grid was summed")

        monkeypatch.setattr(expsum, "g_vector", refuse)
        assert run_cli(["verify", "thm3.5", "--q", q, "--budget-bits", budget], capsys) == (
            2, "", "error: verify thm3.5 q=%s needs a 2^%d point domain, over the 2^%s budget\n"
            % (q, need, budget))

    @pytest.mark.parametrize("suite,flags", [("thm3.5", ["--q", "1"]), ("lemmas5.x", [])])
    def test_whole_grid_suites_charge_their_census_before_the_grid(
            self, capsys, monkeypatch, suite, flags):
        def refuse(*args):
            raise AssertionError("the grid was summed")

        monkeypatch.setattr(expsum, "g_vector", refuse)
        argv = ["verify", suite, "--s", "10", "--k", "11", "--budget-bits", "10",
                "--threads", "1"]
        assert run_cli(argv + flags, capsys) == (
            2, "", "error: census quad l=1 n=10 m=11 needs a 2^20 point domain, over the"
            " 2^10 budget\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_whole_grid_sums_at_their_ceiling_peak_under_144_mib(self):
        # three 2^20-point vectors, the largest peak any admitted command reaches
        argv = ["verify", "thm3.5", "--s", "10", "--k", "11", "--q", "1", "--threads", "1"]
        result = subprocess.run([sys.executable, "-c", _PEAK_RSS_HELPER] + argv,
                                capture_output=True, text=True, timeout=120)
        code, out, err, peak_kib = json.loads(result.stdout)
        assert (code, err) == (0, "") and '"match":true' in out
        assert peak_kib < 144 << 10

    def test_even_moments_at_their_print_budget_run(self, capsys):
        code, out, _ = run_cli(["verify", "thm3.5", "--q", "31", "--budget-bits", "10"], capsys)
        assert code == 0 and json.loads(out)["match"] is True

    def test_stacked_census_with_many_free_rows_is_refused(self, capsys):
        # 2^2 windows, but 80 free rows of 2 bits
        assert run_cli(["verify", "thm3.9", "--n", "80", "--m", "0", "--k", "2"], capsys) == (
            2, "", "error: census stacked n=80 m=0 k=2 needs a 2^160 point domain,"
            " over the 2^28 budget\n")

    @pytest.mark.parametrize("suite,flag", [("thm3.5", "q"), ("cor3.10", "n"),
                                            ("landsberg", "rows")])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_parameter_that_checks_nothing_is_usage_error(self, capsys, suite, flag, value):
        code, out, err = run_cli(["verify", suite, "--" + flag, value], capsys)
        assert code == 2 and out == ""
        assert "--%s must be at least 1" % flag in err

    @pytest.mark.parametrize("s,k", [(3, 2), (5, 4)])
    def test_partition_suite_refuses_s_above_k(self, capsys, monkeypatch, s, k):
        # the deletion identities are stated for s <= k; no census runs
        def refuse(*args, **kwargs):
            raise AssertionError("a census ran")

        for name in ("enum_gamma", "enum_quadruple"):
            monkeypatch.setattr(census, name, refuse)
        code, out, err = run_cli(["verify", "lemmas5.x", "--s", str(s), "--k", str(k)], capsys)
        assert code == 2 and out == ""
        assert "needs 2 <= s <= k, got s=%d k=%d" % (s, k) in err

    def test_profile_suite_refuses_s_above_k_before_the_census(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the quad census ran")

        monkeypatch.setattr(census, "enum_quadruple", refuse)
        code, out, err = run_cli(["verify", "thm3.3", "--s", "12", "--k", "11"], capsys)
        assert code == 2 and out == ""
        assert "error: requires 1 <= s <= k, got s=12 k=11" in err

    def test_landsberg_over_budget_is_refused_before_the_closed_table(self):
        # the closed table at 1000 x 1000 alone takes minutes of big-int work
        result = subprocess.run(
            [sys.executable, "-m", "persym.cli", "verify", "landsberg", "--rows", "1000",
             "--k", "1000"], capture_output=True, text=True, timeout=10)
        assert result.returncode == 2 and result.stdout == ""
        assert "budget" in result.stderr

    @pytest.mark.parametrize("argv,need,budget", [
        (["--n", "5", "--budget-bits", "8"], 10, 8), (["--n", "512"], 37, 28),
        (["--n", "128"], 29, 28)])
    def test_coefficient_rows_over_budget_exit_two_before_any_work(
            self, capsys, monkeypatch, argv, need, budget):
        # the closed side grows about as N^5, charged as 2^(bit length of N^4)
        def refuse(*args):
            raise AssertionError("the coefficient rows were computed")

        monkeypatch.setattr(formulas, "a_coeff_rows", refuse)
        code, out, err = run_cli(["verify", "cor3.10"] + argv, capsys)
        assert code == 2 and out == ""
        assert err == "error: verify cor3.10 n=%s needs a 2^%d point domain, over the " \
            "2^%d budget\n" % (argv[1], need, budget)

    def test_coefficient_rows_at_the_budget_run(self, capsys):
        code, out, _ = run_cli(["verify", "cor3.10", "--n", "5", "--budget-bits", "10"], capsys)
        assert code == 0 and json.loads(out)["match"] is True

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
        # a sum reads only the coefficients of its depth, so the rest change nothing
        for argv, exact, long in [
            (["g", "--s", "2", "--k", "2", "--t"], ["001"], ["00111"]),
            (["g2", "--m", "1", "--k", "2", "--t"], ["010", "--eta", "10"],
             ["01011", "--eta", "1011"]),
            (["f2", "--m", "1", "--k", "2", "--t"], ["010", "--eta", "11"],
             ["0101", "--eta", "111"]),
            (["fmulti", "--m", "0", "--k", "2", "--t"], ["01", "--etas", "10,11"],
             ["0111", "--etas", "101,110"]),
        ]:
            want = run_cli(["expsum"] + argv + exact, capsys)
            assert want[0] == 0 and "agree=true" in want[1]
            assert run_cli(["expsum"] + argv + long, capsys) == want

    @pytest.mark.parametrize("argv,message", [
        (["h", "--s", "-5", "--k", "2", "--t", "1"], "h is defined for s, k >= 1"),
        (["g", "--s", "-5", "--k", "2", "--t", "1"], "g is defined for s, k >= 2"),
        (["g2", "--m", "-3", "--k", "2", "--t", "1", "--eta", "1"], "m must be nonnegative"),
        (["f2", "--m", "0", "--k", "-2", "--t", "1", "--eta", "1"], "k must be positive"),
        (["fmulti", "--m", "1", "--k", "-2", "--t", "1", "--etas", "1,1"],
         "k must be positive"),
    ], ids=["h", "g", "g2", "f2", "fmulti"])
    def test_negative_shape_gets_its_sums_message(self, capsys, argv, message):
        assert run_cli(["expsum"] + argv, capsys) == (2, "", "error: %s\n" % message)

    def test_short_literal_over_budget_is_refused_by_the_budget(self, capsys):
        # the budget is charged before the literal's depth is read
        assert run_cli(["expsum", "h", "--s", "30", "--k", "30", "--t", "1"], capsys) == (
            2, "", "error: direct h sum s=30 k=30 needs a 2^60 point domain, over the 2^28"
            " budget\n")

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
        monkeypatch.setattr(expsum, "h_closed", lambda s, k, t: 12345)
        code, out, _ = run_cli(["expsum", "h", "--s", "2", "--k", "2", "--t", "100"],
                               capsys)
        assert code == 1
        assert "agree=false" in out


# runs `persym` on its arguments, then prints [exit code, stdout, stderr, the
# command's peak RSS in KiB] as JSON
_PEAK_RSS_HELPER = """
import json, resource, subprocess, sys
run = subprocess.run([sys.executable, "-m", "persym.cli"] + sys.argv[1:],
                     capture_output=True, text=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([run.returncode, run.stdout, run.stderr, peak]))
"""


class TestRepcountCommand:
    def test_brute_example(self, capsys):
        code, out, _ = run_cli(
            ["repcount", "--mode", "brute", "--q", "1", "--n", "1", "--k", "3",
             "--m", "2"], capsys)
        assert code == 0
        assert out == "23\n"

    def test_brute_charges_its_transform(self, capsys):
        # 2^5 contributions of K = k+m+nk = 5 bits, transformed in about K 2^K steps
        argv = ["repcount", "--mode", "brute", "--q", "3", "--n", "1", "--k", "2", "--m",
                "1", "--budget-bits"]
        assert run_cli(argv + ["8"], capsys) == (
            0, "%d\n" % census.repcount_multi_formula(3, 1, 2, 1), "")
        assert run_cli(argv + ["7"], capsys) == (
            2, "", "error: brute count q=3 n=1 k=2 m=1 needs a 2^8 point domain, over"
            " the 2^7 budget\n")

    def test_brute_charges_the_powers_of_a_large_q(self, capsys):
        # 2^5 values raised to the 200th power, W = 1000//64 + 1 = 16 words each
        argv = ["repcount", "--mode", "brute", "--q", "200", "--n", "1", "--k", "2",
                "--m", "1", "--budget-bits"]
        assert run_cli(argv + ["16"], capsys) == (
            0, "%d\n" % census.repcount_multi_formula(200, 1, 2, 1), "")
        assert run_cli(argv + ["15"], capsys) == (
            2, "", "error: brute count q=200 n=1 k=2 m=1 needs a 2^16 point domain, over"
            " the 2^15 budget\n")

    def test_brute_refuses_a_transform_over_the_key_ceiling(self, capsys):
        # K = k+m+nk = 24 bits, although a factor has only k+m+1+n = 10
        argv = ["repcount", "--mode", "brute", "--q", "3", "--n", "3", "--k", "6", "--m", "0"]
        assert run_cli(argv, capsys) == (
            2, "", "error: brute count q=3 n=3 k=6 m=0 holds a tally of up to 2^24 keys,"
            " over the fixed 2^20 key ceiling of a brute count\n")

    def test_brute_refuses_a_tally_over_the_key_ceiling(self, capsys):
        # one factor has k+m+1+n = 21 bits; the budget charges only those
        argv = ["repcount", "--mode", "brute", "--q", "2", "--n", "2", "--k", "8", "--m", "10"]
        assert run_cli(argv, capsys) == (
            2, "", "error: brute count q=2 n=2 k=8 m=10 holds a tally of up to 2^21 keys,"
            " over the fixed 2^20 key ceiling of a brute count\n")

    def test_q1_brute_at_the_shape_of_a_refused_tally_prints_the_formula(self, capsys):
        # q = 1 holds one 2^13-contribution span of the 2^21, not their tally
        argv = ["repcount", "--mode", "brute", "--q", "1", "--n", "2", "--k", "8", "--m", "10"]
        assert run_cli(argv, capsys) == (
            0, "%d\n" % census.repcount_multi_formula(1, 2, 8, 10), "")

    def test_check_skips_a_brute_count_over_the_key_ceiling(self, capsys, monkeypatch):
        monkeypatch.setattr(census, "GRID_MAX_BITS", 6)
        argv = ["repcount", "--check", "--q", "2", "--n", "0", "--k", "3", "--m"]
        count = census.repcount_multi_formula(2, 0, 3, 3)
        assert run_cli(argv + ["3"], capsys) == (
            0, "formula=%d brute=%d integral=%d agree=true\n" % (count, count, count), "")
        count = census.repcount_multi_formula(2, 0, 3, 4)
        assert run_cli(argv + ["4"], capsys) == (
            0, "formula=%d integral=%d agree=true\n" % (count, count), "")

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_brute_at_its_key_ceiling_peaks_under_256_mib(self):
        # 2^20 keys at the default budget: a helper runs the command alone, so
        # its peak is not pytest's own high-water mark, which a child inherits
        argv = ["repcount", "--mode", "brute", "--q", "2", "--n", "2", "--k", "8", "--m", "9"]
        result = subprocess.run([sys.executable, "-c", _PEAK_RSS_HELPER] + argv,
                                capture_output=True, text=True, timeout=120)
        code, out, err, peak_kib = json.loads(result.stdout)
        assert (code, out, err) == (0, "%d\n" % census.repcount_multi_formula(2, 2, 8, 9), "")
        assert peak_kib < 256 << 10

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_q1_brute_counts_zeros_a_span_at_a_time_under_48_mib(self):
        # the shape above at q = 1 holds one 2^12-contribution span, not a tally
        argv = ["repcount", "--mode", "brute", "--q", "1", "--n", "2", "--k", "8", "--m", "9"]
        result = subprocess.run([sys.executable, "-c", _PEAK_RSS_HELPER] + argv,
                                capture_output=True, text=True, timeout=120)
        code, out, err, peak_kib = json.loads(result.stdout)
        assert (code, out, err) == (0, "%d\n" % census.repcount_multi_formula(1, 2, 8, 9), "")
        assert peak_kib < 48 << 10

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_brute_transform_at_its_key_ceiling_peaks_under_128_mib(self):
        # q >= 3 transforms 2^K entries, K = k+m+nk: 2^20 runs, 2^21 is refused
        argv = ["repcount", "--mode", "brute", "--q", "3", "--n", "0", "--k", "10", "--m"]
        result = subprocess.run([sys.executable, "-c", _PEAK_RSS_HELPER] + argv + ["10"],
                                capture_output=True, text=True, timeout=120)
        code, out, err, peak_kib = json.loads(result.stdout)
        assert (code, out, err) == (0, "%d\n" % census.repcount_multi_formula(3, 0, 10, 10), "")
        assert peak_kib < 128 << 10
        result = subprocess.run([sys.executable, "-c", _PEAK_RSS_HELPER] + argv + ["11"],
                                capture_output=True, text=True, timeout=120)
        assert json.loads(result.stdout)[:3] == [
            2, "", "error: brute count q=3 n=0 k=10 m=11 holds a tally of up to 2^21 keys,"
            " over the fixed 2^20 key ceiling of a brute count\n"]

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

    def test_integral_runs_at_its_budget_and_exits_two_one_bit_under(self, capsys):
        argv = ["repcount", "--mode", "integral", "--q", "1", "--n", "1", "--k", "3",
                "--m", "2", "--budget-bits"]
        # 2^5 windows are ranked; the free row's 3 bits are fewer
        assert run_cli(argv + ["5"], capsys) == (0, "23\n", "")
        assert run_cli(argv + ["4"], capsys) == (
            2, "", "error: census stacked n=1 m=2 k=3 needs a 2^5 point domain,"
            " over the 2^4 budget\n")

    def test_integral_charges_the_windows_it_ranks(self, capsys):
        # 2^14 windows, 2 free rows of 8 bits: 2^16 at most
        argv = ["repcount", "--q", "2", "--n", "2", "--k", "8", "--m", "6", "--mode"]
        code, out, err = run_cli(argv + ["integral"], capsys)
        assert (code, err) == (0, "")
        assert run_cli(argv + ["formula"], capsys) == (0, out, "")

    @pytest.mark.parametrize("mode", [["--mode", "formula"], ["--mode", "brute"],
                                      ["--mode", "integral"], ["--check"]])
    @pytest.mark.parametrize("q,budget,need", [("496", "10", 11), ("1000000", "28", 32)])
    def test_count_over_its_print_budget_exits_two_in_every_mode(
            self, capsys, monkeypatch, mode, q, budget, need):
        # up to q(k+m+n+1) bits: W^2 with W = q(k+m+n+1)//64 + 1
        def refuse(*args, **kwargs):
            raise AssertionError("a count ran")

        for name in ("repcount_multi_formula", "repcount_bruteforce", "repcount_integral"):
            monkeypatch.setattr(census, name, refuse)
        argv = ["repcount"] + mode + ["--q", q, "--n", "0", "--k", "2", "--m", "1",
                                      "--budget-bits", budget]
        assert run_cli(argv, capsys) == (
            2, "", "error: repcount q=%s needs a 2^%d point domain, over the 2^%s budget\n"
            % (q, need, budget))

    def test_count_at_its_print_budget_runs(self, capsys):
        argv = ["repcount", "--mode", "formula", "--q", "495", "--n", "0", "--k", "2",
                "--m", "1", "--budget-bits", "10"]
        assert run_cli(argv, capsys) == (
            0, "%d\n" % census.repcount_multi_formula(495, 0, 2, 1), "")

    def test_formula_runs_at_its_charge_and_exits_two_one_bit_under(self, capsys):
        # P = 3^2 + 41 (3+1)(3+2) = 829 products of W = 163//64 + 1 = 3 by V = 1 words
        argv = ["repcount", "--mode", "formula", "--q", "2", "--n", "3", "--k", "40", "--m",
                "40", "--budget-bits"]
        assert run_cli(argv + ["12"], capsys) == (
            0, "%d\n" % census.repcount_multi_formula(2, 3, 40, 40), "")
        assert run_cli(argv + ["11"], capsys) == (
            2, "", "error: formula table n=3 k=40 m=40 needs a 2^12 point domain, over"
            " the 2^11 budget\n")

    def test_formula_row_is_charged_at_k_words_not_n(self, capsys):
        # P = 500^2 + 3 * 2 * 4 products of W = 62500//64 + 1 words by V = 2//64 + 1 = 1
        argv = ["repcount", "--mode", "formula", "--q", "1", "--n", "500", "--k", "2", "--m",
                "0", "--budget-bits"]
        assert run_cli(argv + ["28"], capsys) == (
            0, "%d\n" % census.repcount_multi_formula(1, 500, 2, 0), "")
        assert run_cli(argv + ["27"], capsys) == (
            2, "", "error: formula table n=500 k=2 m=0 needs a 2^28 point domain, over"
            " the 2^27 budget\n")

    @pytest.mark.parametrize("mode", [["--mode", "formula"], ["--check"]],
                             ids=["formula", "check"])
    def test_formula_over_its_charge_is_refused_before_the_table(
            self, capsys, monkeypatch, mode):
        # the table at n = k = 320 took seconds; --check has no count to compare without it
        def refuse(*args, **kwargs):
            raise AssertionError("a count ran")

        monkeypatch.setattr(formulas, "stacked_gamma_table", refuse)
        for name in ("repcount_bruteforce", "repcount_integral"):
            monkeypatch.setattr(census, name, refuse)
        argv = ["repcount"] + mode + ["--q", "1", "--n", "320", "--k", "320", "--m", "0"]
        assert run_cli(argv, capsys) == (
            2, "", "error: formula table n=320 k=320 m=0 needs a 2^32 point domain, over"
            " the 2^28 budget\n")

    def test_check_mode_runs_affordable_modes(self, capsys):
        code, out, _ = run_cli(
            ["repcount", "--check", "--q", "2", "--n", "1", "--k", "2", "--m", "1"],
            capsys)
        assert code == 0
        assert out == "formula=148 brute=148 integral=148 agree=true\n"

    def test_check_mode_skips_over_budget_modes(self, capsys):
        # brute's transform would hold 2^(6+0+3*6) entries; formula and integral still agree
        assert run_cli(["repcount", "--check", "--q", "3", "--n", "3", "--k", "6", "--m", "0"],
                       capsys) == (0, "formula=788824 integral=788824 agree=true\n", "")

    @pytest.mark.parametrize("argv", [
        ["--q", "3", "--n", "5", "--k", "4", "--m", "2", "--budget-bits", "10"],
        ["--q", "1", "--n", "5", "--k", "6", "--m", "25"]])
    def test_check_mode_that_compares_nothing_exits_two(self, capsys, argv):
        assert run_cli(["repcount", "--check"] + argv, capsys) == (
            2, "", "error: repcount --check compared nothing: brute and integral are over"
            " budget\n")

    def test_formula_prints_a_count_over_4300_digits(self, capsys):
        code, out, err = run_cli(
            ["repcount", "--mode", "formula", "--q", "200", "--n", "3", "--k", "40",
             "--m", "40"], capsys)
        assert (code, err) == (0, "")
        want = census.repcount_multi_formula(200, 3, 40, 40)
        assert want.bit_length() > 4300 * 3.33  # over 4300 decimal digits
        assert out == "%d\n" % want

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


def test_console_script_entry_is_cli_script():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^persym = "persym\.cli:script"$', pyproject, re.M)
    assert callable(cli.script)


@pytest.mark.parametrize("argv", [
    ["census", "gamma", "--s", "11", "--k", "12", "--threads", "2"],  # pooled
    ["verify", "thm3.3", "--threads", "1"],
], ids=" ".join)
def test_a_script_run_matches_main_in_process(tmp_path, monkeypatch, capsys, argv):
    # the script exits through gc.freeze() and interpreter shutdown, main returns
    argv = argv + ["--checkpoint", "run"]
    script, in_process = tmp_path / "script", tmp_path / "main"
    script.mkdir()
    in_process.mkdir()
    result = subprocess.run([sys.executable, "-m", "persym.cli"] + argv, cwd=script,
                            capture_output=True, text=True, timeout=60)
    monkeypatch.chdir(in_process)
    assert (result.returncode, result.stdout, result.stderr) == run_cli(argv, capsys)
    assert result.returncode == 0

    def checkpoints(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    written = checkpoints(script)
    assert written and all(data.endswith(b"\n") for data in written.values())
    assert written == checkpoints(in_process)


def test_console_script_matches_in_process_output():
    result = subprocess.run(
        [sys.executable, "-m", "persym.cli", "census", "gamma", "--s", "2",
         "--k", "3"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == '{"0":1,"1":3,"2":12}\n'


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly():
    # the 72,403-byte report overruns a 64 KiB pipe, so a write meets the closed end
    with subprocess.Popen([sys.executable, "-m", "persym.cli", "verify", "cor3.10", "--n", "40"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as run:
        assert len(run.stdout.read(10)) == 10
        run.stdout.close()
        stderr = run.stderr.read()
        assert run.wait(timeout=60) == 141
    assert stderr == b""
