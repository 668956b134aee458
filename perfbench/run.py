#!/usr/bin/env python3
"""persym benchmark: time to a checked answer, end to end and per layer.

    python3 perfbench/run.py --workload census-window --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

It benchmarks the checkout that holds this file and runs `persym` from that
checkout's `src/`; without it, it exits with code 2. Workloads, their
commands and the layer -> end-to-end metric map are in `workloads.json`.

End to end (--trace 0). Every command of the workload runs as its own
`python -m persym.cli` process, one at a time, in three modes: at
--threads 1 (1w), at --threads nproc writing a fresh checkpoint (nw), and
resumed from its latest complete checkpoint (resume). The modes are
interleaved command by command, round after round, while they fit in
--seconds, and setup probes and resumes fill a fixed share of the time
between the 1w and nw executions, so every mode samples the host over the
whole run. Each wall metric is the sum over commands of the median of
that command's executions in its mode; setup_s is the median wall time of
a 2-point census (interpreter start, import, argument parsing).

Per layer (--trace 1). One round of the modes as above, untraced; then the
same commands in this process at --threads 1 with persym's public
functions wrapped in spans (tracer.py); then direct timings of each layer
(layers.py). Tracing overhead is the traced wall minus the 1w wall.
--seconds does not apply: the traced run is a fixed amount of work.

Every output is checked: exit code, census tables against the closed
tables, `match`/`agree` fields, and byte equality of stdout across the
modes (with `runtime_ms` stripped from verify reports). The last line of
stdout is one JSON object: correct, attempted, failed, metrics. A full
record (environment, per-command numbers, spans) goes to `.perfbench_out/`
in the checkout. --tiny swaps in small commands and layer sizes for the
self-test (`python3 -m pytest perfbench/tests`).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

RUN_LIMIT_S = 170  # a run must end within 180 s, even when a command hangs
SETUP_ARGV = ["census", "gamma", "--s", "1", "--k", "1", "--threads", "1"]
SETUP_STDOUT = b'{"0":1,"1":1}\n'
MODES = ("1w", "nw", "resume")
MAX_ROUNDS = 50
SETUP_SHARE = 0.04  # of the 1w and nw time, spent on setup probes between them
RESUME_SHARE = 0.2  # the same for resumes

MANIFEST = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
E2E_UNITS = {
    "wall_1w_s": "s", "wall_nw_s": "s", "resume_s": "s", "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _load_program():
    """Import persym from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "persym" / "cli.py").is_file():
        print("error: no persym sources at %s; run from a full checkout" % SRC,
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import persym

    if Path(persym.__file__).resolve().parent != SRC / "persym":
        print("error: imported persym from %s, not from %s" % (persym.__file__, SRC),
              file=sys.stderr)
        sys.exit(2)


_load_program()

import checks  # noqa: E402  (needs persym on the path)
import layers  # noqa: E402
from persym import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(SRC))


# ---------------------------------------------------------------------------
# inputs and environment


def commands(workload: str, seed: int, tiny: bool) -> List[List[str]]:
    """The workload's argv lists, with {t:N} literals drawn from the seed."""
    spec = MANIFEST["workloads"][workload]
    rng = Random("%s-%d" % (workload, seed))

    def literal(match):
        return "".join(rng.choice("01") for _ in range(int(match.group(1))))

    return [re.sub(r"\{t:(\d+)\}", literal, line).split()
            for line in spec["tiny" if tiny else "commands"]]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def calib_ns() -> float:
    """ns per iteration of a fixed pure-Python loop (median of 5 passes);
    it tracks host speed drift and is not a metric of persym."""
    passes = []
    for _ in range(5):
        start = time.perf_counter_ns()
        acc = 0
        for i in range(100_000):
            acc += i & 7
        passes.append((time.perf_counter_ns() - start) / 100_000)
    return statistics.median(passes)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running one CLI process


@dataclass
class Exec:
    """One finished CLI process: exit code, output, wall, CPU and peak RSS."""

    argv: List[str]
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_mib: float

    def summary(self) -> dict:
        return {"argv": " ".join(self.argv), "code": self.code,
                "wall_s": self.wall_s, "cpu_s": self.cpu_s,
                "maxrss_mib": self.maxrss_mib}


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def launch(argv: List[str], tag: str, deadline: float) -> Exec:
    """Run `python -m persym.cli argv` to exit, or kill it at the deadline
    (a perf_counter value). wait4 gives its CPU and peak RSS, including the
    pool workers it has joined."""
    out_path, err_path = WORK / (tag + ".out"), WORK / (tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "persym.cli"] + argv,
                                stdout=out, stderr=err, env=ENV, cwd=ROOT,
                                start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - start), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers of a crashed CLI stay in its group
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    return Exec(argv, proc.returncode, stdout, stderr, wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def _mode_argv(argv: List[str], threads: int, checkpoint: Optional[Path]) -> List[str]:
    if argv[0] == "expsum":  # takes neither flag
        return list(argv)
    extra = ["--threads", str(threads)]
    if checkpoint is not None:
        extra += ["--checkpoint", str(checkpoint)]
    return argv + extra


def _checkpoint_files(directory: Path, base: str) -> List[Path]:
    """The checkpoint file of one command, and the per-enumeration suffixed
    files a verify suite writes (base.quad, base.narrow, ...)."""
    return sorted(p for p in directory.iterdir()
                  if p.name == base or p.name.startswith(base + "."))


def _lines(files: List[Path]) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in files)


class Tally:
    """Operations attempted and failed, with the reason for each failure,
    and the deadline of the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def record(self, label: str, reasons: List[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failures.append("%s: %s" % (label, "; ".join(reasons)))

    @property
    def failed(self) -> int:
        return len(self.failures)


def _exec_problems(ex: Exec) -> List[str]:
    if ex.code != 0:
        tail = ex.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return ["exit code %d %s" % (ex.code, " ".join(tail))]
    return checks.problems(ex.argv, ex.stdout)


def setup_probe(tally: Tally) -> float:
    ex = launch(SETUP_ARGV, "setup", tally.deadline)
    reasons = _exec_problems(ex)
    if ex.stdout != SETUP_STDOUT:
        reasons.append("unexpected output %r" % ex.stdout)
    tally.record("setup probe", reasons)
    return ex.wall_s


class Schedule:
    """Every timed CLI execution of one run, by mode and command.

    `execs[mode][i]` lists the summaries of command i's executions in that
    mode, in run order; `reference[i]` is the normalized stdout of its first
    1-worker execution, which every later output of it must equal.
    """

    def __init__(self, cmds: List[List[str]], threads: int, tally: Tally):
        self.cmds = cmds
        self.threads = threads
        self.tally = tally
        self.execs: Dict[str, List[List[dict]]] = {m: [[] for _ in cmds] for m in MODES}
        self.reference: List[Optional[bytes]] = [None] * len(cmds)
        self.latest: List[Optional[Path]] = [None] * len(cmds)  # complete checkpoints
        self.setup: List[float] = []
        self.heavy_s = self.resume_s = self.setup_s = 0.0
        self._turn = itertools.count()

    def execute(self, mode: str, i: int, ck_dir: Optional[Path] = None) -> float:
        """Command i once in one mode ("1w", "nw" into ck_dir, or "resume"
        from its latest checkpoint); checks and keeps the result."""
        argv = self.cmds[i]
        if mode == "resume":
            ck_dir = self.latest[i]
        checkpoint = None if mode == "1w" else ck_dir / ("c%02d" % i)
        ex = launch(_mode_argv(argv, 1 if mode == "1w" else self.threads, checkpoint),
                    "c%02d-%s" % (i, mode), self.tally.deadline)
        reasons = _exec_problems(ex)
        stdout = checks.normalize(ex.stdout)
        if self.reference[i] is None:
            self.reference[i] = stdout
        elif stdout != self.reference[i]:
            reasons.append("stdout differs from the 1-worker run")
        self.tally.record("%s [%s]" % (" ".join(argv), mode), reasons)
        entry = ex.summary()
        if ck_dir is not None:
            files = _checkpoint_files(ck_dir, "c%02d" % i)
            entry["checkpoint_lines"] = _lines(files)
            entry["checkpoint_bytes"] = sum(p.stat().st_size for p in files)
        self.execs[mode][i].append(entry)
        return ex.wall_s

    def fill(self, over: Callable[[], bool]) -> None:
        """Setup probes and resumes (round robin over the commands with a
        complete checkpoint) until each has its share of the heavy time."""
        ready = [i for i, ck in enumerate(self.latest) if ck is not None]
        while self.setup_s < SETUP_SHARE * self.heavy_s and not over():
            self.setup.append(setup_probe(self.tally))
            self.setup_s += self.setup[-1]
        while ready and self.resume_s < RESUME_SHARE * self.heavy_s and not over():
            self.resume_s += self.execute("resume", ready[next(self._turn) % len(ready)])

    def wall(self, mode: str) -> float:
        """The mode's wall time over the workload: the sum over commands of
        the median of each command's executions."""
        return sum(statistics.median(e["wall_s"] for e in runs) for runs in self.execs[mode])

    def first(self, mode: str) -> dict:
        """The first execution of every command in one mode, summed."""
        firsts = [runs[0] for runs in self.execs[mode]]
        return {
            "wall_s": sum(e["wall_s"] for e in firsts),
            "cpu_s": sum(e["cpu_s"] for e in firsts),
            # scaling is taken over the commands that take --threads
            "pooled_wall_s": sum(e["wall_s"] for e, argv in zip(firsts, self.cmds)
                                 if argv[0] != "expsum"),
            "checkpoint_lines": sum(e.get("checkpoint_lines", 0) for e in firsts),
            "checkpoint_bytes": sum(e.get("checkpoint_bytes", 0) for e in firsts),
        }

    def peak_rss_mib(self) -> float:
        return max(e["maxrss_mib"] for per_mode in self.execs.values()
                   for runs in per_mode for e in runs)


def run_modes(cmds: List[List[str]], threads: int, tally: Tally, seconds: float,
              started: float, rounds: int, fill: bool) -> Schedule:
    """Execute the workload's commands in all three modes, interleaved
    command by command, so that every mode samples the whole run.

    A round takes each command in turn: at 1 worker, at nproc workers into
    a fresh checkpoint (which becomes its latest complete one), and resumed
    from it. With `fill`, setup probes and further resumes follow the 1w
    and nw executions until they have taken SETUP_SHARE and RESUME_SHARE of
    the time spent on 1w and nw executions; resumes that cost that much
    already (verify suites rerun their closed forms) get no extra ones.
    After the first round an execution starts only while it fits in
    --seconds counted from `started`, judged by the same command's previous
    execution in that mode.
    """
    sched = Schedule(cmds, threads, tally)

    def over() -> bool:
        return time.perf_counter() - started > seconds

    last: Dict[tuple, float] = {}
    for rnd in range(rounds):
        ck_dir = WORK / ("checkpoints%d" % rnd)
        ck_dir.mkdir(parents=True)
        for i in range(len(cmds)):
            for mode in MODES:
                if rnd and time.perf_counter() - started + last[mode, i] > seconds:
                    return sched
                last[mode, i] = sched.execute(mode, i, ck_dir if mode == "nw" else None)
                if mode == "resume":
                    sched.resume_s += last[mode, i]
                    continue
                sched.heavy_s += last[mode, i]
                if mode == "nw":
                    previous, sched.latest[i] = sched.latest[i], ck_dir
                    if previous is not None:
                        for path in _checkpoint_files(previous, "c%02d" % i):
                            path.unlink()
                if fill:
                    sched.fill(over)
    return sched


# ---------------------------------------------------------------------------
# traced in-process run


def traced_pass(cmds: List[List[str]], reference: List[bytes], tracer: Tracer,
                tally: Tally) -> float:
    """Run every command in this process at 1 worker under the tracer.

    Returns the traced wall time, summed over commands. Outputs are checked
    after the tracer is removed, so the checks leave no spans."""
    wall = 0.0
    outputs = []
    tracer.install()
    try:
        for argv in cmds:
            name = "cli.suite.%s" % argv[1] if argv[0] == "verify" else "cli.%s" % argv[0]
            buffer = io.StringIO()
            start = time.perf_counter()
            with tracer.span(name), contextlib.redirect_stdout(buffer):
                try:
                    code = cli.main(_mode_argv(argv, 1, None))
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash is a failed operation, not the end
                    code = "raised %r" % exc
            wall += time.perf_counter() - start
            outputs.append((code, buffer.getvalue().encode("ascii")))
    finally:
        tracer.uninstall()
    for argv, want, (code, stdout) in zip(cmds, reference, outputs):
        reasons = ["exit code %s" % code] if code != 0 else checks.problems(argv, stdout)
        if checks.normalize(stdout) != checks.normalize(want):
            reasons.append("traced stdout differs from the 1-worker run")
        tally.record("%s [traced]" % " ".join(argv), reasons)
    return wall


# ---------------------------------------------------------------------------
# one workload


def measure_workload(workload: str, seed: int, seconds: float, trace: bool,
                     tiny: bool = False) -> dict:
    """Run one workload; returns the result record (metrics and details)."""
    cmds = commands(workload, seed, tiny)
    threads = nproc()
    tally = Tally()
    record = {"workload": workload, "trace": int(trace), "tiny": tiny,
              "environment": environment(seed),
              "commands": [" ".join(argv) for argv in cmds],
              "points": {" ".join(argv): checks.points(argv) for argv in cmds},
              "calib_ns_start": calib_ns()}
    started = time.perf_counter()
    setup: List[float] = []
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        setup_probe(tally)  # warm the bytecode cache; not timed
        if trace:
            sched = run_modes(cmds, threads, tally, seconds, started, 1, fill=False)
            metrics, units, record["spans_file"] = per_layer(
                workload, seed, cmds, sched, threads, tally, tiny)
        else:
            setup += [setup_probe(tally) for _ in range(2)]
            sched = run_modes(cmds, threads, tally, seconds, started, MAX_ROUNDS, fill=True)
            setup += sched.setup
            metrics = {
                "wall_1w_s": sched.wall("1w"),
                "wall_nw_s": sched.wall("nw"),
                "resume_s": sched.wall("resume"),
                "setup_s": statistics.median(setup),
                "peak_rss_mib": sched.peak_rss_mib(),
            }
            units = dict(E2E_UNITS)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    record["calib_ns_end"] = calib_ns()
    if trace:
        metrics["host.calib_ns"] = (record["calib_ns_start"] + record["calib_ns_end"]) / 2
        units["host.calib_ns"] = "ns"
    record.update({
        "first": {mode: sched.first(mode) for mode in MODES},
        "executions": sched.execs,
        "setup_samples_s": setup,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "fail_frac": tally.failed / tally.attempted,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })
    return record


def per_layer(workload: str, seed: int, cmds: List[List[str]], sched: Schedule,
              threads: int, tally: Tally, tiny: bool):
    """Traced pass plus direct layer timings; returns (metrics, units, spans path)."""
    tracer = Tracer("%s-seed%d-%d-%d" % (workload, seed, os.getpid(), time.time_ns()))
    traced_wall = traced_pass(cmds, sched.reference, tracer, tally)
    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = value
        units[name] = unit

    for name, (value, unit) in layers.measure(seed, threads, str(WORK), tiny).items():
        put(name, value, unit)
    put("gf2.rank_of_rows.calls", tracer.calls("gf2.rank_of_rows"), "count")
    one, many, resumed = (sched.first(mode) for mode in MODES)
    put("census.pool.scaling_eff",
        one["pooled_wall_s"] / (threads * many["pooled_wall_s"]), "ratio")
    put("census.pool.cpu_ratio", many["cpu_s"] / one["cpu_s"], "ratio")
    # one checkpoint line per chunk: all written by the nw pass, all read back
    # on resume; lines a resume adds are chunks it had to compute again
    put("census.chunks.computed", resumed["checkpoint_lines"], "count")
    put("census.chunks.resumed", many["checkpoint_lines"], "count")
    put("census.checkpoint.bytes", many["checkpoint_bytes"], "B")
    for suite in checks.SUITES:
        put("cli.suite.%s.self_s" % suite, tracer.self_s("cli.suite." + suite), "s")
    for layer, (calls, self_s) in tracer.layer_totals().items():
        put("layer.%s.self_s" % layer, self_s, "s")
        put("layer.%s.calls" % layer, calls, "count")
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - one["wall_s"], "s")
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-seed%d.json" % (workload, seed))
    tracer.dump(spans)
    return metrics, units, str(spans)


# ---------------------------------------------------------------------------
# output


def _show(value: float) -> str:
    return str(value) if isinstance(value, int) else "%.6g" % value


def emit(record: dict) -> None:
    workload = record["workload"]
    env = record["environment"]
    print("# %s  seed=%d  nproc=%d  python=%s  cpu=%s  commit=%s" % (
        workload, env["seed"], env["nproc"], env["python"], env["cpu"], env["git_commit"]))
    print("# host.calib_ns start=%.2f end=%.2f" % (record["calib_ns_start"],
                                                  record["calib_ns_end"]))
    first = record["first"]
    print("# counts: domain points=%d over %d commands, checkpoint lines=%d (bytes=%d),"
          " lines after resume=%d; executions per command 1w=%s nw=%s resume=%s" % (
              sum(record["points"].values()), len(record["points"]),
              first["nw"]["checkpoint_lines"], first["nw"]["checkpoint_bytes"],
              first["resume"]["checkpoint_lines"],
              *(",".join(str(len(runs)) for runs in record["executions"][mode])
                for mode in MODES)))
    for name, metric in record["metrics"].items():
        print("%s  %s = %s %s" % (workload, name, _show(metric["value"]), metric["unit"]))
    print("%s  fail_frac = %.6g (%d of %d operations failed)" % (
        workload, record["fail_frac"], record["failed"], record["attempted"]))
    for failure in record["failures"][:20]:
        print("# FAILED %s" % failure)
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (workload, env["seed"], record["trace"]))
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through launch, which kills its process


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(MANIFEST["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small commands and layer sizes (the self-test uses these)")
    args = parser.parse_args(argv)
    names = sorted(MANIFEST["workloads"]) if args.workload == "all" else [args.workload]
    for name in names:
        emit(measure_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny))
    return 0


if __name__ == "__main__":
    sys.exit(main())
