"""Self-test of the persym benchmark (tiny parameters, a few seconds each).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((BENCH / "workloads.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (puts the checkout's src/ on the path)
import checks  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for line in ("fail_frac", "wall_1w_s") if not trace else ("fail_frac",):
        assert "%s  %s = " % (workload, line) in proc.stdout


def test_corrupted_expected_table_counts_as_failure(monkeypatch):
    real = checks.expected_census

    def corrupted(argv):
        table = dict(real(argv))
        key = sorted(table)[-1]
        table[key] += 1
        return table

    monkeypatch.setattr(checks, "expected_census", corrupted)
    record = run.measure_workload("census-window", seed=7, seconds=1, trace=False, tiny=True)
    assert record["failed"] > 0
    assert record["fail_frac"] > 0
    assert any("closed table" in failure for failure in record["failures"])


def test_changed_stdout_between_modes_counts_as_failure(monkeypatch):
    real = run.launch

    def flaky(argv, tag, deadline):
        ex = real(argv, tag, deadline)
        if tag.endswith("-resume"):
            ex.stdout = ex.stdout.replace(b"}", b",\"x\":0}")
        return ex

    monkeypatch.setattr(run, "launch", flaky)
    record = run.measure_workload("verify-suites", seed=7, seconds=1, trace=False, tiny=True)
    assert any("differs from the 1-worker run" in f for f in record["failures"])


def test_runtime_ms_is_the_only_field_stripped():
    report = b'{"params":{},"computed":{"0":1},"expected":{"0":1},"match":true,"runtime_ms":12}\n'
    assert checks.normalize(report) == (
        b'{"params":{},"computed":{"0":1},"expected":{"0":1},"match":true}\n')
    assert checks.normalize(b'{"0":1,"1":3}\n') == b'{"0":1,"1":3}\n'
    assert list(MANIFEST["nondeterministic_fields"]) == ["runtime_ms"]


def test_manifest_agrees_with_benchmark_json_and_point_counts():
    assert WORKLOADS == list(MANIFEST["workloads"])
    for entry in SPEC["workloads"]:
        spec = MANIFEST["workloads"][entry["name"]]
        assert entry["why"] == spec["why"]
        cmds = run.commands(entry["name"], seed=1, tiny=False)
        assert sum(checks.points(argv) for argv in cmds) == spec["points"]


def test_seed_draws_series_literals_only():
    a = run.commands("verify-suites", seed=1, tiny=False)
    b = run.commands("verify-suites", seed=2, tiny=False)
    assert a == run.commands("verify-suites", seed=1, tiny=False)
    changed = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    assert changed and all(a[i][0] == "expsum" for i in changed)
    assert run.commands("census-window", 1, False) == run.commands("census-window", 2, False)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_commands_past_the_run_deadline_are_killed_and_counted(monkeypatch):
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0)
    record = run.measure_workload("census-window", seed=7, seconds=1, trace=False, tiny=True)
    assert record["failed"] == record["attempted"] > 0
    assert all("exit code -9" in failure for failure in record["failures"])
