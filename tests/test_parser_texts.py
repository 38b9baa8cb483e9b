"""The texts the parser prints are pinned to their bytes: help, the
errors of a missing subcommand, an unknown one, a missing flag, a bad
choice and an unknown flag, each with its exit code.

argparse wraps help at the terminal width, so every call runs with
COLUMNS=80.  The expected texts live in parser_texts.json; an intended
change of a text regenerates the file with

    PYTHONPATH=src python tests/test_parser_texts.py
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from symvertex.cli import main

TEXTS = Path(__file__).with_name("parser_texts.json")

SUBCOMMANDS = ["pi-schur", "dual-pi-schur", "branch", "product", "skew",
               "plethysm", "series", "mode", "verify"]

ARGV = [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS] + [
    [],
    ["foo"],
    ["product", "--mu", "[1]"],
    ["pi-schur", "--pi", "[1]", "--lambda", "[1]", "--format", "xml"],
    ["verify", "clifford", "--bogus"],
]


def call(argv):
    """(exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "out": out.getvalue(),
            "err": err.getvalue()}


@pytest.mark.parametrize("argv", ARGV, ids=lambda a: " ".join(a) or "-")
def test_parser_text_keeps_its_bytes(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = {tuple(e["argv"]): e for e in json.loads(TEXTS.read_text())}
    assert call(argv) == expected[tuple(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    TEXTS.write_text(json.dumps([call(argv) for argv in ARGV], indent=1)
                     + "\n")
