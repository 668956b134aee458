"""The stdout corpus: CLI argvs whose exit code, stdout and stderr are pinned.

    python tests/corpus.py

rewrites tests/corpus.json from the package in src/, and nothing else does;
tests/test_corpus.py runs every entry again and compares. An entry holds
the argv, how it runs (`main`: in-process through `persym.cli.main`;
`subprocess`: `python -m persym.cli`; `resume`: in-process once, then the
checkpoint is cut to half its bytes and the run resumes in a subprocess),
the files it starts from, its exit code, stdout and stderr, and the
checkpoint files it leaves. Each entry runs in an empty directory, so a
checkpoint path reads the same in every run. COLUMNS is fixed, so help
wraps the same way.

argparse writes the help and usage errors itself, and its spacing moves
between Python versions; those entries say so (`argparse`), and only the
Python version that wrote the corpus compares their text byte for byte.
Every other version compares it with each run of whitespace read as one
space.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CORPUS = HERE / "corpus.json"
COLUMNS = "80"

if str(SRC) not in sys.path:  # run as a script
    sys.path.insert(0, str(SRC))

from persym import cli, suites  # noqa: E402

# a census of 2^6 windows in one chunk, and its checkpoint line
GAMMA_3_4 = "census gamma --s 3 --k 4 --threads 1 --checkpoint ck"
HEADER_3_4 = "#census v2 gamma s=3 k=4 points=64 chunk=64\n"
LINE_3_4 = "0 64 0:1 1:3 2:12 3:48"


# every command and tiny command of perfbench/workloads.json, each {t:N}
# series literal fixed
WORKLOADS = [
    "census gamma --s 10 --k 10", "census quad --s 9 --k 9",
    "census gamma --s 3 --k 3", "census quad --s 3 --k 3",
    "census stacked --n 5 --m 2 --k 4", "census sigma --m 6 --k 8",
    "census stacked --n 1 --m 1 --k 2", "census sigma --m 1 --k 2",
    "verify thm3.1 --s 8 --k 8", "verify thm3.3 --s 7 --k 7",
    "verify thm3.5 --s 7 --k 7 --q 3", "verify thm3.8 --m 4 --k 6",
    "verify thm3.9 --n 4 --m 2 --k 4", "verify cor3.10 --n 40",
    "verify thm3.11 --q 2 --n 1 --k 4 --m 3", "verify landsberg --rows 4 --k 4",
    "verify lemmas5.x --s 7 --k 7", "verify sigma6.x --m 6 --k 6",
    "repcount --check --q 2 --n 1 --k 4 --m 5",
    "repcount --mode integral --q 2 --n 1 --k 6 --m 6",
    "expsum h --s 9 --k 9 --t 11010010101010111",
    "expsum g --s 9 --k 9 --t 00000100110110000",
    "expsum fmulti --m 6 --k 7 --t 1001010010110 --etas 1100100,1001010,1010101",
    "verify thm3.1 --s 3 --k 4", "verify thm3.3 --s 2 --k 3",
    "verify thm3.5 --s 2 --k 2 --q 2", "verify thm3.8 --m 1 --k 3",
    "verify thm3.9 --n 1 --m 2 --k 3", "verify cor3.10 --n 5",
    "verify thm3.11 --q 1 --n 1 --k 3 --m 2", "verify landsberg --rows 2 --k 2",
    "verify lemmas5.x --s 2 --k 3", "verify sigma6.x --m 1 --k 2",
    "repcount --check --q 1 --n 1 --k 2 --m 1",
    "repcount --mode integral --q 2 --n 1 --k 2 --m 1",
    "expsum h --s 3 --k 3 --t 11101", "expsum g --s 3 --k 3 --t 01100",
    "expsum fmulti --m 1 --k 2 --t 110 --etas 11,10",
]


def help_argvs():
    argvs = [["-h"], ["verify", "-h"], ["census", "-h"], ["expsum", "-h"], ["repcount", "-h"]]
    argvs += [["verify", suite, "-h"] for suite in suites.SUITES]
    argvs += [["census", kind, "-h"] for kind in cli._CENSUS_KINDS]
    argvs += [["expsum", kind, "-h"] for kind in cli._EXPSUM_REQUIRED]
    return argvs


RUNS = [
    # every census kind in json and csv
    "census gamma --s 2 --k 3", "census gamma --s 2 --k 3 --format csv",
    "census quad --s 3 --k 4", "census quad --s 3 --k 4 --format csv",
    "census sigma --m 1 --k 3", "census sigma --m 1 --k 3 --format csv",
    "census stacked --n 2 --m 1 --k 3", "census stacked --n 2 --m 1 --k 3 --format csv",
    "census gamma --s 5 --k 4 --threads 3", "census stacked --n 0 --m 0 --k 1",
    # every expsum kind
    "expsum h --s 2 --k 2 --t 100", "expsum h --s 4 --k 3 --t 110101",
    "expsum g --s 2 --k 2 --t 001", "expsum g --s 3 --k 4 --t 011010",
    "expsum g2 --m 1 --k 2 --t 010 --eta 10", "expsum g2 --m 2 --k 3 --t 10110 --eta 011",
    "expsum f2 --m 1 --k 2 --t 010 --eta 10", "expsum f2 --m 0 --k 2 --t 11 --eta 01",
    "expsum fmulti --m 1 --k 2 --t 101 --etas 10,11",
    "expsum fmulti --m 2 --k 3 --t 11010 --etas 101,011,110",
    # every repcount mode, and --check
    "repcount --mode formula --q 1 --n 0 --k 2 --m 1",
    "repcount --mode formula --q 3 --n 5 --k 4 --m 2",
    "repcount --mode formula --q 1 --n 180 --k 180 --m 0",
    "repcount --mode brute --q 1 --n 1 --k 3 --m 2",
    "repcount --mode brute --q 2 --n 2 --k 2 --m 1",
    "repcount --mode brute --q 3 --n 1 --k 3 --m 2",
    "repcount --mode integral --q 1 --n 1 --k 3 --m 2",
    "repcount --mode integral --q 4 --n 2 --k 3 --m 1",
    "repcount --check --q 1 --n 1 --k 3 --m 2",
    "repcount --check --q 3 --n 0 --k 4 --m 3",
    "repcount --check --q 2 --n 1 --k 4 --m 5 --threads 1 --checkpoint unused",
    # a verify suite at another point, the edges of each range included
    "verify thm3.1 --s 1 --k 1", "verify thm3.3 --s 1 --k 3", "verify thm3.3 --s 3 --k 3",
    "verify thm3.5 --s 3 --k 4 --q 1", "verify lemmas5.x --s 3 --k 5", "verify cor3.10 --n 1",
    "verify landsberg --rows 1 --k 3", "verify sigma6.x --m 1 --k 4",
    # repcount_piecewise, every family of the one-row case table, and g = 0
    "verify thm3.11 --q 1 --n 0 --k 3 --m 1", "verify thm3.11 --q 2 --n 0 --k 3 --m 2",
    "verify thm3.11 --q 3 --n 0 --k 4 --m 2", "verify thm3.8 --m 0 --k 3",
    "verify thm3.8 --m 2 --k 2", "verify thm3.8 --m 4 --k 4", "expsum g --s 2 --k 2 --t 010",
]

REFUSALS = [
    # the point budget
    "census gamma --s 20 --k 20", "census stacked --n 3 --m 0 --k 10 --budget-bits 20",
    "verify thm3.1 --s 15 --k 15", "verify thm3.5 --s 2 --k 2 --q 40 --budget-bits 8",
    "verify cor3.10 --n 128", "verify thm3.11 --q 1 --n 0 --k 20 --m 20",
    "expsum h --s 20 --k 20 --t 1", "expsum g --s 20 --k 20 --t 1",
    "expsum g2 --m 20 --k 20 --t 1 --eta 1", "expsum fmulti --m 20 --k 9 --t 1 --etas 1,1",
    "repcount --mode formula --q 1 --n 2 --k 3 --m 1 --budget-bits 4",
    "repcount --mode brute --q 1 --n 0 --k 20 --m 10",
    "repcount --mode integral --q 1 --n 0 --k 20 --m 20",
    "repcount --mode formula --q 1000 --n 1 --k 1 --m 1 --budget-bits 8",
    "repcount --check --q 1 --n 0 --k 20 --m 20",
    "repcount --check --q 1 --n 2 --k 3 --m 1 --budget-bits 4",
    # the fixed grid and key ceilings
    "verify thm3.5 --s 11 --k 11", "verify lemmas5.x --s 11 --k 11",
    "repcount --mode brute --q 1 --n 1 --k 2 --m 20",
    "repcount --mode brute --q 2 --n 4 --k 9 --m 10",
    "repcount --mode brute --q 3 --n 1 --k 8 --m 8",
    # shapes and values out of range
    "census gamma --s 0 --k 3", "census quad --s 0 --k 3", "census sigma --m -1 --k 2",
    "census stacked --n -1 --m 0 --k 2",
    "verify thm3.1 --s 0", "verify thm3.3 --s 4 --k 3", "verify thm3.5 --q 0",
    "verify thm3.5 --s 1", "verify thm3.8 --k 0", "verify thm3.8 --m 0 --k 1",
    "verify thm3.9 --n -1",
    "verify cor3.10 --n 0", "verify thm3.11 --q 0", "verify landsberg --rows 0",
    "verify lemmas5.x --s 1 --k 3", "verify lemmas5.x --s 4 --k 3", "verify sigma6.x --k 0",
    "expsum h --s 0 --k 2 --t 1", "expsum g --s 1 --k 2 --t 1",
    "expsum g2 --m -1 --k 2 --t 1 --eta 1", "expsum fmulti --m 1 --k 0 --t 1 --etas 1",
    "expsum h --s 3 --k 3 --t 10", "expsum g2 --m 1 --k 2 --t 010 --eta 1",
    "expsum h --s 2 --k 2 --t 102", "repcount --mode brute --q 0 --n 0 --k 1 --m 0",
    # argparse's own refusals
    "", "census", "verify thm9.9", "census gamma --k 3", "census gamma --s 2 --k 2 --m 9",
    "census gamma --s 2 --k 2 --threads 0", "census gamma --s 2 --k 2 --checkpoint=",
    "census gamma --s 2 --k 2 --format xml", "census quad --s 2 --k 2 --l 1",
    "repcount --q 1 --n 0 --k 1 --m 0", "repcount --mode bogus --q 1 --n 0 --k 1 --m 0",
    "repcount --mode brute --check --q 1 --n 0 --k 1 --m 0",
    "expsum fmulti --m 1 --k 2 --t 101 --eta 10", "verify thm3.1 --s x",
    # a checkpoint that cannot be opened
    "census gamma --s 2 --k 2 --threads 1 --checkpoint missing/ck",
]


def checkpoint_entries():
    """A census run against each kind of checkpoint file it reads: none,
    complete, cut mid-line, and each one it refuses."""
    crc = zlib.crc32((HEADER_3_4 + LINE_3_4).encode("ascii"))
    good = "%s%s crc=%08x\n" % (HEADER_3_4, LINE_3_4, crc)
    files = {
        "fresh": None,
        "complete": good,
        "cut mid-line": good[:-12],
        "header only, cut": HEADER_3_4[:20],
        "another census": HEADER_3_4.replace("s=3", "s=2"),
        "an older format": HEADER_3_4.replace("v2", "v1"),
        "a malformed field": HEADER_3_4 + "0 64 x:1\n",
        "a non-canonical field": HEADER_3_4 + "0 64 0:01 1:3 2:12 3:48\n",
        "a count below 1": HEADER_3_4 + "0 64 0:0 1:3 2:12 3:48\n",
        "an impossible key": HEADER_3_4 + "0 64 7:1\n",
        "a two-rank key": HEADER_3_4 + "0 64 0,1:1\n",
        "a repeated key": HEADER_3_4 + "0 64 0:1 0:1\n",
        "a foreign range": HEADER_3_4 + "0 32 0:1 1:3 2:12 3:16\n",
        "a short count": HEADER_3_4 + "0 64 0:1 1:3 2:12 3:47\n",
        "a range twice": good + "0 64 3:64\n",
        "a count moved between keys": good.replace(LINE_3_4, "0 64 0:1 1:4 2:11 3:48"),
        "a bad CRC": good[:-9] + "00000000\n",
        "a non-ASCII byte": HEADER_3_4 + "0 64 0:1é\n",
    }
    entries = []
    for what, text in files.items():
        entry = {"argv": GAMMA_3_4.split(), "about": "checkpoint: " + what}
        if text is not None:
            entry["files"] = {"ck.gamma": text}
        entries.append(entry)
    # a suite's census writes the header its kind writes, and the suites
    # label their second and third census
    for line in ("verify thm3.3 --s 2 --k 3 --threads 1 --checkpoint ck",
                 "verify lemmas5.x --s 3 --k 4 --threads 1 --checkpoint ck"):
        entries.append({"argv": line.split(), "about": "checkpoint: one per census of a suite"})
    return entries


def entries():
    """Every argv of the corpus, in order, each with how it runs."""
    out = [{"argv": line.split()} for line in WORKLOADS]
    out += [{"argv": ["verify", suite]} for suite in suites.SUITES]
    out += [{"argv": line.split()} for line in RUNS]
    out += [{"argv": argv} for argv in help_argvs()]
    out += [{"argv": line.split()} for line in REFUSALS]
    out += checkpoint_entries()
    # 2^22 windows in 64 chunks at two workers: the pool starts
    out.append({"argv": "census gamma --s 12 --k 11 --threads 2".split(), "run": "subprocess"})
    # 16 chunks, half of them resumed in a second process
    out.append({"argv": "census gamma --s 10 --k 11 --threads 2 --checkpoint ck".split(),
                "run": "resume"})
    return out


@contextlib.contextmanager
def _in(directory):
    old = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(old)


def _main(argv):
    """(exit code, stdout, stderr, whether argparse ended the run) of cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS=COLUMNS), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code, by_argparse = cli.main(argv), False
        except SystemExit as exc:
            code, by_argparse = exc.code, True
    return code, out.getvalue(), err.getvalue(), by_argparse


def _subprocess(argv, workdir):
    env = dict(os.environ, COLUMNS=COLUMNS,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "persym.cli"] + argv, cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr, False


def run(entry, workdir):
    """The recorded fields of one entry, run in the empty directory workdir."""
    workdir = Path(workdir)
    for name, text in entry.get("files", {}).items():
        (workdir / name).write_bytes(text.encode("utf-8"))
    how = entry.get("run", "main")
    if how == "subprocess":
        result = _subprocess(entry["argv"], workdir)
    else:
        with _in(workdir):
            result = _main(entry["argv"])
        if how == "resume":
            for path in workdir.iterdir():
                data = path.read_bytes()
                path.write_bytes(data[: len(data) // 2])
            result = _subprocess(entry["argv"], workdir)
    code, out, err, by_argparse = result
    record = dict(entry, exit=code, stdout=out, stderr=err)
    files = {path.name: path.read_bytes().decode("utf-8")
             for path in sorted(workdir.iterdir())}
    if files:
        record["files_after"] = files
    if by_argparse:
        record["argparse"] = True
    return record


def python_version():
    return "%d.%d" % sys.version_info[:2]


def main():
    records = []
    for entry in entries():
        with tempfile.TemporaryDirectory() as workdir:
            records.append(run(entry, workdir))
    CORPUS.write_text(json.dumps({"python": python_version(), "entries": records}, indent=1,
                                 ensure_ascii=False) + "\n", encoding="utf-8")
    print("wrote %d entries to %s" % (len(records), CORPUS))


if __name__ == "__main__":
    main()
