"""Every argv of tests/corpus.json gives the exit code, stdout, stderr and
checkpoint files recorded there (`python tests/corpus.py` rewrites it)."""

import json

import pytest

import corpus
from persym import cli, suites

RECORDED = json.loads(corpus.CORPUS.read_text(encoding="utf-8"))
OUTPUTS = ("exit", "stdout", "stderr", "files_after", "argparse")


def _inputs(record):
    return {key: value for key, value in record.items() if key not in OUTPUTS}


def _spacing_free(record):
    """The record with each run of whitespace in its streams read as one space."""
    return dict(record, stdout=" ".join(record["stdout"].split()),
                stderr=" ".join(record["stderr"].split()))


@pytest.mark.parametrize("record", RECORDED["entries"], ids=lambda record: " ".join(
    record["argv"]) + (" (%s)" % record["about"] if "about" in record else ""))
def test_output_is_the_recorded_output(record, tmp_path):
    got = corpus.run(_inputs(record), tmp_path)
    if record.get("argparse") and corpus.python_version() != RECORDED["python"]:
        # argparse pads its columns by version (3.13 widens verify -h's suite column)
        got, record = _spacing_free(got), _spacing_free(record)
    assert got == record


def test_the_recorded_argvs_are_the_corpus_argvs():
    assert [_inputs(record) for record in RECORDED["entries"]] == corpus.entries()


def test_every_command_kind_runs_and_asks_for_help():
    argvs = [record["argv"] for record in RECORDED["entries"] if record["exit"] == 0]
    runs = {tuple(argv[:2]) for argv in argvs if "-h" not in argv}
    helps = {tuple(argv[:-1]) for argv in argvs if argv[-1:] == ["-h"]}
    kinds = ([("verify", suite) for suite in suites.SUITES]
             + [("census", kind) for kind in cli._CENSUS_KINDS]
             + [("expsum", kind) for kind in cli._EXPSUM_REQUIRED])
    assert set(kinds) <= runs and set(kinds) <= helps
    modes = {argv[argv.index("--mode") + 1] for argv in argvs if "--mode" in argv}
    assert modes == set(cli._REPCOUNT_MODES)
    assert any("--check" in argv for argv in argvs)
    assert {(), ("verify",), ("census",), ("expsum",), ("repcount",)} <= helps
