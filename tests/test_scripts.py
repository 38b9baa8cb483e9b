"""The scripts under scripts/: the verification runner and the table."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    path = SCRIPTS / (name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run_verification():
    return load("run_verification")


@pytest.fixture(scope="module")
def pi_schur_table():
    return load("pi_schur_table")


class TestRunVerification:
    @pytest.mark.parametrize("scale", ["quick", "full"])
    def test_zero_modes_passes(self, capsys, run_verification, scale):
        code = run_verification.main(["--suite", "zero-modes", "--scale",
                                      scale])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("suite zero-modes: 32 cases, 0 failures")

    def test_perturbed_run_is_caught(self, capsys, run_verification):
        code = run_verification.main(["--suite", "zero-modes", "--perturb"])
        out = capsys.readouterr().out
        assert code == 0
        assert "-> FAIL" in out
        assert "mutations caught by every suite" in out


class TestPiSchurTable:
    def test_small_table(self, capsys, pi_schur_table):
        code = pi_schur_table.main(["--max-pi-weight", "1",
                                    "--max-lambda-weight", "1",
                                    "--route", "perp", "--route", "cauchy"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "deformed Schur table via perp+cauchy (2 rows)"
        assert len(lines) == 3

    @pytest.mark.parametrize("argv", [["--max-pi-weight", "0"],
                                      ["--max-lambda-weight", "-1"]])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_table(self, capsys, pi_schur_table, argv, fmt):
        code = pi_schur_table.main(argv + ["--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert ("(0 rows)" if fmt == "text" else '"rows": []') in out
