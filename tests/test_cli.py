"""Command-line surface: output shapes, exit codes, config plumbing."""

import inspect
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from symvertex import vertexops
from symvertex.cli import (ROUTES, VERIFY_FLAGS, _merge_dash_values,
                           _t_int_list, _t_range, build_parser, main)
from symvertex.config import _PARSERS, ENV_CONFIG
from symvertex.jsonform import dumps, parse_symfunc, state_to_obj, \
    symfunc_to_obj
from symvertex.partitions import partitions_up_to
from symvertex.plethysm import pi_schur, plethysm
from symvertex.schurring import SymFunc, format_symfunc
from symvertex.verifier import SUITES
from symvertex.vertexops import ChargedState, mode


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# verify flags that argparse itself rejects: (suite, flag, value)
MALFORMED_VERIFY_FLAGS = [
    ("multivertex", "--m", "0"),
    ("multivertex", "--m", "-1"),
    ("reordering", "--test-degree", "-1"),
    ("clifford", "--degree-bound", "-1"),
    ("theorem2", "--max-weight", "-1"),
    ("theorem2", "--max-length", "-1"),
    ("inverse-series", "--max-sigma-weight", "-1"),
    ("inverse-series", "--max-zweight", "-1"),
    ("clifford", "--charges", ","),
]

# a dash-leading value of each range or list type, and what it parses to
DASH_VALUES = {_t_range: ("-2..2", (-2, 2)), _t_int_list: ("-1,0", (-1, 0))}

# every malformed command line of this file, rejected while parsing or
# while running
MALFORMED_ARGV = [("verify", suite, flag, value)
                  for suite, flag, value in MALFORMED_VERIFY_FLAGS] + [
    ("pi-schur", "--pi", "[2,3]", "--lambda", "[1]"),
    ("pi-schur", "--pi", "[1]", "--lambda", "[1]", "--format", "xml"),
    ("verify", "zero-modes", "--jobs", "0"),
    ("verify", "zero-modes", "--degree-budget", "-1"),
    ("pi-schur", "--pi", "[]", "--lambda", "[2]", "--route", "oracle"),
    ("series", "--family", "M", "--shape", "[1]", "--skew", "[2]",
     "--max-r", "1"),
    ("mode", "--pi", "[1]", "--kind", "X", "--m", "0", "--state",
     "not a state"),
    ("verify", "zero-modes", "--test-degree", "3"),
    ("verify", "reordering", "--cases", "XX"),
    ("pi-schur", "--pi", "[1]", "--lambda", "[1]", "--config",
     "/no/such/file"),
    ("series", "--family", "M", "--shape", "[1]", "--max-r", "-1"),
    ("mode", "--pi", "[1]", "--kind", "X", "--m", "0", "--state",
     '{"sectors": [{"charge": 1}]}'),
    ("mode", "--pi", "[1]", "--kind", "X", "--m", "0", "--state", "[1,2]"),
    # JSON floats and booleans are not integers
    ("mode", "--pi", "[]", "--kind", "X", "--m", "0", "--state",
     '[{"partition": [1], "num": 0.5, "den": 1}]'),
    ("mode", "--pi", "[]", "--kind", "X", "--m", "0", "--state",
     '[{"partition": [1.5], "num": 1, "den": 1}]'),
    ("mode", "--pi", "[]", "--kind", "X", "--m", "0", "--state",
     '[{"partition": [1], "num": true, "den": 1}]'),
    ("mode", "--pi", "[]", "--kind", "X", "--m", "0", "--state",
     '{"sectors": [{"charge": 1.7, "value": '
     '[{"partition": [1], "num": 1, "den": 1}]}]}'),
    # a zero denominator is named, in JSON and in the text shorthand
    ("mode", "--pi", "[]", "--kind", "X", "--m", "0", "--state",
     '[{"partition": [1], "num": 1, "den": 0}]'),
    ("mode", "--pi", "[]", "--kind", "X", "--m", "0", "--state", "1/0"),
]


@pytest.mark.parametrize("argv", MALFORMED_ARGV)
def test_malformed_argv_is_one_error_line(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("symvertex: error: ")
    assert len(captured.err.splitlines()) == 1


class TestPiSchur:
    def test_basic_value_text(self, capsys):
        code, out, _ = run(capsys, "pi-schur", "--pi", "[2]",
                           "--lambda", "[2]")
        assert code == 0
        expected = SymFunc.schur((2,)) - SymFunc.one()
        assert out.strip() == format_symfunc(expected)

    def test_empty_lambda_gives_unit(self, capsys):
        code, out, _ = run(capsys, "pi-schur", "--pi", "[3]",
                           "--lambda", "[]")
        assert code == 0
        assert out.strip() == "s[]"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "pi-schur", "--pi", "[2]",
                           "--lambda", "[2]", "--format", "json")
        assert code == 0
        assert json.loads(out) == symfunc_to_obj(pi_schur((2,), (2,)))
        assert parse_symfunc(out) == pi_schur((2,), (2,))

    def test_all_routes_agree(self, capsys):
        code, out, _ = run(capsys, "pi-schur", "--pi", "[2]",
                           "--lambda", "[2,1]",
                           "--route", "perp", "--route", "cauchy",
                           "--route", "vertex", "--route", "oracle")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[-1] == "routes agree"
        assert all(l.startswith("route ") for l in lines[:-1])

    def test_multi_route_json(self, capsys):
        code, out, _ = run(capsys, "pi-schur", "--pi", "[1]",
                           "--lambda", "[2]", "--route", "perp",
                           "--route", "vertex", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["agree"] is True
        assert set(obj["routes"]) == {"perp", "vertex"}

    def test_check_oracle(self, capsys):
        code, out, _ = run(capsys, "pi-schur", "--pi", "[2,1]",
                           "--lambda", "[3]", "--check-oracle")
        assert code == 0
        assert "routes agree" in out

    def test_oracle_route_rejects_empty_pi(self, capsys):
        code, _, err = run(capsys, "pi-schur", "--pi", "[]",
                           "--lambda", "[2]", "--route", "oracle")
        assert code == 2
        assert "--route" in err

    def test_dual_routes_agree(self, capsys):
        code, out, _ = run(capsys, "dual-pi-schur", "--pi", "[2]",
                           "--lambda", "[2,1]", "--route", "perp",
                           "--route", "cauchy", "--route", "vertex")
        assert code == 0
        assert "routes agree" in out


class TestRingCommands:
    def test_product(self, capsys):
        code, out, _ = run(capsys, "product", "--mu", "[2,1]", "--nu", "[1]",
                           "--format", "json")
        assert code == 0
        expected = SymFunc.schur((2, 1)) * SymFunc.schur((1,))
        assert json.loads(out) == symfunc_to_obj(expected)

    def test_product_check_oracle(self, capsys):
        code, out, _ = run(capsys, "product", "--mu", "[2]", "--nu", "[2,1]",
                           "--check-oracle")
        assert code == 0
        assert "oracle agrees" in out

    def test_skew(self, capsys):
        code, out, _ = run(capsys, "skew", "--lambda", "[2,1]", "--mu", "[1]")
        assert code == 0
        expected = SymFunc.schur((2, 1)).skew_by((1,))
        assert out.strip() == format_symfunc(expected)
        assert expected == SymFunc.schur((2,)) + SymFunc.schur((1, 1))

    def test_plethysm(self, capsys):
        code, out, _ = run(capsys, "plethysm", "--outer", "[2]",
                           "--inner", "[1,1]", "--format", "json")
        assert code == 0
        expected = plethysm((2,), SymFunc.schur((1, 1)))
        assert json.loads(out) == symfunc_to_obj(expected)

    def test_branch(self, capsys):
        code, out, _ = run(capsys, "branch", "--pi", "[2]",
                           "--lambda", "[2]")
        assert code == 0
        assert out.strip()  # nonempty expansion

    def test_series_table(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "L",
                           "--shape", "[1]", "--max-r", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("L-series of")
        assert lines[1] == "r=0: s[]"
        assert len(lines) == 4

    def test_series_skew(self, capsys):
        code, out, _ = run(capsys, "series", "--family", "M",
                           "--shape", "[2,1]", "--skew", "[1]",
                           "--max-r", "1", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["family"] == "M"
        assert len(obj["terms"]) == 2

    def test_series_zero_skew_is_flag_error(self, capsys):
        code, _, err = run(capsys, "series", "--family", "M",
                           "--shape", "[1]", "--skew", "[2]", "--max-r", "1")
        assert code == 2
        assert "--skew" in err


class TestModeCommand:
    def test_mode_json(self, capsys):
        code, out, _ = run(capsys, "mode", "--pi", "[2]", "--kind", "X",
                           "--m", "-2", "--state", "s[1]", "--format", "json")
        assert code == 0
        state = ChargedState({0: SymFunc.schur((1,))})
        expected = mode((2,), "X", -2, state)
        assert out.strip() == dumps(state_to_obj(expected))

    def test_mode_with_charge(self, capsys):
        code, out, _ = run(capsys, "mode", "--pi", "[1]", "--kind", "Xstar",
                           "--m", "0", "--state", "s[2]", "--charge", "1",
                           "--format", "json")
        assert code == 0
        state = ChargedState({1: SymFunc.schur((2,))})
        expected = mode((1,), "Xstar", 0, state)
        assert out.strip() == dumps(state_to_obj(expected))

    def test_mode_state_json_dict(self, capsys):
        state = ChargedState({2: SymFunc.schur((1, 1))})
        code, out, _ = run(capsys, "mode", "--pi", "[]", "--kind", "X",
                           "--m", "-1", "--state",
                           dumps(state_to_obj(state)), "--format", "json")
        assert code == 0
        expected = mode((), "X", -1, state)
        assert out.strip() == dumps(state_to_obj(expected))

    def test_mode_bad_state(self, capsys):
        code, _, err = run(capsys, "mode", "--pi", "[1]", "--kind", "X",
                           "--m", "0", "--state", "not a state")
        assert code == 2
        assert "--state" in err

    @pytest.mark.parametrize("state, named", [
        ('{"sectors": [{"charge": 1}]}', "'value' field"),
        ('{"sectors": [{"value": []}]}', "'charge' field"),
        ('{"sectors": 5}', "field 'sectors'"),
        ('{"sectors": [{"charge": "x", "value": []}]}', "field 'charge'"),
        ("[1,2]", "'partition' field, got 1"),
        ('[{"partition": [1]}]', "'num' field"),
        ('[{"partition": [1], "num": "1", "den": "0"}]', "field 'den'"),
        ('[{"partition": [1, 2], "num": "1", "den": "1"}]',
         "field 'partition'"),
    ])
    def test_malformed_state_names_the_field(self, capsys, state, named):
        code, out, err = run(capsys, "mode", "--pi", "[1]", "--kind", "X",
                             "--m", "0", "--state", state)
        assert code == 2
        assert out == ""
        assert err.startswith("symvertex: error: argument --state: ")
        assert named in err


class TestVerifyCommand:
    def test_zero_modes_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "zero-modes")
        assert code == 0
        assert out.startswith("suite zero-modes:")
        assert out.strip().endswith("-> PASS")

    def test_clifford_single_pi(self, capsys):
        code, out, _ = run(capsys, "verify", "clifford", "--pi", "[3]",
                           "--degree-bound", "3", "--charges", "0")
        assert code == 0
        assert "-> PASS" in out

    def test_reordering_small(self, capsys):
        code, out, _ = run(capsys, "verify", "reordering", "--pi", "[2]",
                           "--window", "0..2", "--test-degree", "3")
        assert code == 0
        assert "-> PASS" in out

    def test_multivertex_small(self, capsys):
        code, out, _ = run(capsys, "verify", "multivertex", "--pi", "[2]",
                           "--m", "2", "--dual", "false",
                           "--window", "-2..2")
        assert code == 0
        assert "-> PASS" in out

    def test_theorem2_small(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem2", "--pi", "[1]",
                           "--max-weight", "3", "--max-length", "2",
                           "--skip-oracle")
        assert code == 0
        assert "-> PASS" in out

    def test_inverse_series_small(self, capsys):
        code, out, _ = run(capsys, "verify", "inverse-series",
                           "--max-sigma-weight", "2", "--max-zweight", "6",
                           "--pi", "[2]")
        assert code == 0
        assert "-> PASS" in out

    def test_perturb_fails_with_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "zero-modes", "--perturb")
        assert code == 1
        assert "-> FAIL" in out
        assert "  FAIL " in out

    def test_wrong_suite_flag(self, capsys):
        code, _, err = run(capsys, "verify", "zero-modes",
                           "--test-degree", "3")
        assert code == 2
        assert "--test-degree" in err

    @pytest.mark.parametrize("suite, flag, value", MALFORMED_VERIFY_FLAGS)
    def test_malformed_flag_runs_no_cases(self, capsys, suite, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: argument %s: " % flag) in captured.err

    def test_long_string_is_refused_before_any_case(self, capsys,
                                                     monkeypatch):
        calls = []
        for name in ROUTES:
            monkeypatch.setitem(ROUTES, name, (
                lambda pi, lam, name=name: calls.append(name),) * 2)
        code, out, err = run(capsys, "verify", "theorem2",
                             "--max-length", "5")
        assert (code, out, calls) == (2, "", [])
        assert "string of 5 vertices exceeds the bound 4" in err

    def test_skip_vertex_builds_no_string(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(vertexops, "string_chain",
                            lambda *args: built.append(args))
        code, out, _ = run(capsys, "verify", "theorem2", "--max-length", "5",
                           "--skip-vertex")
        assert (code, built) == (0, [])
        assert out.strip().endswith("-> PASS")

    def test_unknown_reordering_case(self, capsys):
        code, _, err = run(capsys, "verify", "reordering", "--cases", "XX")
        assert code == 2
        assert "--cases" in err

    def test_verify_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "zero-modes",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["suite"] == "zero-modes"
        assert obj["failures"] == []

    def test_jobs_identical_json(self, capsys):
        argv = ["verify", "zero-modes", "--format", "json",
                "--timing", "none"]
        code1, out1, _ = run(capsys, *argv, "--jobs", "1")
        code8, out8, _ = run(capsys, *argv, "--jobs", "8")
        assert code1 == code8 == 0
        assert out1 == out8
        assert json.loads(out1)["elapsed_ms"] == 0


class TestVerifyFlagTable:
    def test_flags_and_suite_parameters_match(self):
        reachable = {suite: set() for suite in SUITES}
        for flag, (_, keywords) in VERIFY_FLAGS.items():
            for suite, keyword in keywords.items():
                params = inspect.signature(SUITES[suite]).parameters
                assert keyword in params, (flag, suite, keyword)
                reachable[suite].add(keyword)
        for suite, fn in SUITES.items():
            params = set(inspect.signature(fn).parameters)
            assert params - {"perturb"} == reachable[suite], suite

    @pytest.mark.parametrize("flag", [
        f for f, (options, _) in VERIFY_FLAGS.items()
        if options.get("type") in DASH_VALUES])
    def test_range_and_list_flags_take_dash_values(self, flag):
        options, keywords = VERIFY_FLAGS[flag]
        text, want = DASH_VALUES[options["type"]]
        argv = ["verify", next(iter(keywords)), flag, text]
        args = build_parser().parse_args(_merge_dash_values(argv))
        assert getattr(args, flag[2:].replace("-", "_")) == want


class TestConfigKeysAreFlags:
    def test_every_config_key_is_a_common_flag(self):
        subparsers = next(a for a in build_parser()._actions
                          if a.dest == "command")
        for name, sub in subparsers.choices.items():
            flags = sub._option_string_actions
            for key in _PARSERS:
                flag = "--" + key.replace("_", "-")
                assert flag in flags and flags[flag].dest == key, (name, key)


class TestExitCodes:
    def test_bad_partition_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pi-schur", "--pi", "[2,3]", "--lambda", "[1]"])
        assert exc.value.code == 2
        assert "--pi" in capsys.readouterr().err

    def test_bad_format_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pi-schur", "--pi", "[1]", "--lambda", "[1]",
                  "--format", "xml"])
        assert exc.value.code == 2

    def test_budget_exceeded_product(self, capsys):
        code, _, err = run(capsys, "product", "--mu", "[8,8]",
                           "--nu", "[8,8]")
        assert code == 3
        assert "budget" in err

    def test_budget_exceeded_verify(self, capsys):
        code, _, err = run(capsys, "verify", "reordering",
                           "--test-degree", "20")
        assert code == 3
        assert "budget" in err

    def test_budget_can_be_raised(self, capsys):
        code, _, _ = run(capsys, "product", "--mu", "[4,4]",
                         "--nu", "[4,4]", "--degree-budget", "16")
        assert code == 0

    def test_mode_past_the_chain_plan_ceiling(self, capsys):
        # a mode reads one coefficient and never runs the chain's plan
        code, out, err = run(capsys, "mode", "--pi", "[2]", "--kind", "X",
                             "--m", "-500", "--state", "s[1]",
                             "--degree-budget", "1000")
        assert (code, err) == (0, "")
        assert out == "|1, s[500,1] - s[499] - s[498,1] + s[497]>\n"

    @pytest.mark.parametrize("argv, expected", [
        # the oracle's packed range: exponent 16 in one variable
        (("pi-schur", "--pi", "[1]", "--route", "oracle",
          "--lambda", "[8,8]", "--degree-budget", "20"), 3),
        # the vertex route's bound on the string length
        (("pi-schur", "--pi", "[2]", "--route", "vertex",
          "--lambda", "[1,1,1,1,1]"), 2),
        # the factor-chain plan ceiling, on the two chains that run the
        # plan: a vertex string and a reordering side
        (("pi-schur", "--pi", "[2]", "--route", "vertex",
          "--lambda", "[500]", "--degree-budget", "1000"), 2),
        (("verify", "reordering", "--window", "0..1000", "--pi", "[2]",
          "--test-degree", "1"), 2),
        # the same bound on a multivertex string, refused before any case
        (("verify", "multivertex", "--m", "5"), 2),
    ])
    def test_library_bounds_are_exit_codes(self, capsys, argv, expected):
        code, _, err = run(capsys, *argv)
        assert code == expected
        assert err.startswith("symvertex: error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--jobs", "0"),
                                             ("--degree-budget", "-1")])
    def test_bad_common_flag_is_named(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "zero-modes", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("symvertex: error: argument %s: " % flag)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("line, message", [
        ("jobs=0", "line 1: unknown key 'jobs'"),
        ("degree-budget = -1", "degree_budget must be >= 0"),
    ])
    def test_bad_config_value_names_config(self, capsys, tmp_path, line,
                                           message):
        cfg = tmp_path / "sv.conf"
        cfg.write_text(line + "\n")
        code, _, err = run(capsys, "verify", "zero-modes",
                           "--config", str(cfg))
        assert code == 2
        assert err == "symvertex: error: --config: %s\n" % message

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "pi-schur", "--pi", "[1]",
                           "--lambda", "[1]", "--config", "/no/such/file")
        assert code == 2
        assert "--config" in err


class TestConfigPlumbing:
    def test_config_file_sets_format(self, capsys, tmp_path):
        cfg = tmp_path / "sv.conf"
        cfg.write_text("format = json\n")
        code, out, _ = run(capsys, "pi-schur", "--pi", "[1]",
                           "--lambda", "[1]", "--config", str(cfg))
        assert code == 0
        json.loads(out)  # valid JSON proves the file was honored

    def test_cli_flag_overrides_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "sv.conf"
        cfg.write_text("format = json\n")
        code, out, _ = run(capsys, "pi-schur", "--pi", "[1]",
                           "--lambda", "[1]", "--config", str(cfg),
                           "--format", "text")
        assert code == 0
        with pytest.raises(ValueError):
            json.loads(out)

    def test_env_config_fallback(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "sv.conf"
        cfg.write_text("format = json\n")
        monkeypatch.setenv(ENV_CONFIG, str(cfg))
        code, out, _ = run(capsys, "pi-schur", "--pi", "[1]",
                           "--lambda", "[1]")
        assert code == 0
        json.loads(out)

    def test_unknown_config_key(self, capsys, tmp_path):
        # suite ranges are flags only: their old config keys are unknown
        cfg = tmp_path / "sv.conf"
        for key, value in (("bogus-key", "3"), ("mode_range", "-1..1"),
                           ("charge-range", "0..0"), ("window", "-1..1")):
            cfg.write_text("%s = %s\n" % (key, value))
            code, _, err = run(capsys, "pi-schur", "--pi", "[1]",
                               "--lambda", "[1]", "--config", str(cfg))
            assert code == 2
            assert err == ("symvertex: error: --config: line 1: unknown key "
                           "%r\n" % key)

    def test_config_budget_respected(self, capsys, tmp_path):
        cfg = tmp_path / "sv.conf"
        cfg.write_text("degree-budget = 4\n")
        code, _, err = run(capsys, "product", "--mu", "[3]", "--nu", "[2]",
                           "--config", str(cfg))
        assert code == 3
        assert "budget" in err


# #### property: every command line keeps the exit-code contract ####

def mostly(good, bad):
    """Nine draws in ten from good, the rest from the malformed texts."""
    return st.integers(0, 9).flatmap(
        lambda i: good if i else st.sampled_from(bad))


PARTITION_TEXTS = mostly(
    st.sampled_from(partitions_up_to(3)).map(
        lambda p: "[%s]" % ",".join(map(str, p))),
    ["[2,3]", "[0]", "[-1]", "x", "", "[1,"])
INT_TEXTS = mostly(st.integers(-4, 4).map(str), ["x", "1.5", ""])
TERMS = st.dictionaries(
    st.sampled_from(partitions_up_to(3)),
    st.tuples(st.integers(-2, 2), mostly(st.sampled_from([1, 2, -1]), [0])),
    max_size=3).map(lambda d: [{"partition": list(lam), "num": a, "den": b}
                               for lam, (a, b) in d.items()])
STATE_TEXTS = mostly(
    st.one_of(
        TERMS.map(json.dumps),
        st.dictionaries(st.integers(-2, 2), TERMS, max_size=2).map(
            lambda secs: json.dumps({"sectors": [
                {"charge": c, "value": v} for c, v in secs.items()]})),
        st.sampled_from(["s[1]", "s[2,1] - s[]", "1/2*s[1]", "0"])),
    ["1/0", "", "garbage", "[1,2]", '{"sectors": 5}', "[{}]"])
ROUTE_TEXTS = mostly(st.sampled_from(sorted(ROUTES)), ["bogus"])

# subcommand -> [(flag, value strategy or None for a switch, required)]
COMPUTING_FLAGS = {
    "pi-schur": [("--pi", PARTITION_TEXTS, True),
                 ("--lambda", PARTITION_TEXTS, True),
                 ("--route", ROUTE_TEXTS, False),
                 ("--check-oracle", None, False)],
    "branch": [("--pi", PARTITION_TEXTS, True),
               ("--lambda", PARTITION_TEXTS, True)],
    "product": [("--mu", PARTITION_TEXTS, True),
                ("--nu", PARTITION_TEXTS, True),
                ("--check-oracle", None, False)],
    "skew": [("--lambda", PARTITION_TEXTS, True),
             ("--mu", PARTITION_TEXTS, True)],
    "plethysm": [("--outer", PARTITION_TEXTS, True),
                 ("--inner", PARTITION_TEXTS, True),
                 ("--check-oracle", None, False)],
    "series": [("--family", mostly(st.sampled_from(["M", "L"]), ["Q"]),
                True),
               ("--shape", PARTITION_TEXTS, True),
               ("--skew", PARTITION_TEXTS, False),
               ("--max-r", INT_TEXTS, True)],
    "mode": [("--pi", PARTITION_TEXTS, True),
             ("--kind", mostly(st.sampled_from(["X", "Xstar"]), ["Y"]),
              True),
             ("--m", INT_TEXTS, True),
             ("--state", STATE_TEXTS, True),
             ("--charge", INT_TEXTS, False)],
}
COMPUTING_FLAGS["dual-pi-schur"] = COMPUTING_FLAGS["pi-schur"]
COMMON_FLAGS = [
    ("--format", mostly(st.sampled_from(["text", "json"]), ["xml"]), False),
    # at or below the default budget: a large one lets a call run for
    # minutes
    ("--degree-budget", mostly(st.sampled_from(["0", "4", "14"]),
                               ["-1", "x"]), False)]


@st.composite
def computing_argv(draw):
    name = draw(st.sampled_from(sorted(COMPUTING_FLAGS)))
    argv = [name]
    for flag, values, required in COMPUTING_FLAGS[name] + COMMON_FLAGS:
        if draw(st.integers(0, 9)) > 0 if required else draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


COUNT_TEXTS = mostly(st.integers(0, 3).map(str), ["-1", "x", ""])
RANGE_TEXTS = mostly(
    st.tuples(st.integers(-2, 1), st.integers(0, 2)).map(
        lambda t: "%d..%d" % (t[0], t[0] + t[1])),
    ["1..0", "a..b", "1", ""])

# verify flag -> (value strategy or None for a switch, whether it is drawn
# whenever the suite takes it).  The flags drawn always bound a suite's
# ranges, so no suite runs at its full defaults.
VERIFY_VALUES = {
    "--cases": (mostly(st.sampled_from(["MM", "LM,ML", "LL"]), ["XX", ""]),
                False),
    "--pi": (PARTITION_TEXTS, True),
    "--window": (RANGE_TEXTS, True),
    "--test-degree": (COUNT_TEXTS, True),
    "--charge-range": (RANGE_TEXTS, True),
    "--mode-range": (RANGE_TEXTS, True),
    "--degree-bound": (COUNT_TEXTS, True),
    "--charges": (mostly(st.sampled_from(["0", "-1,1"]), [",", "x"]), False),
    "--m": (mostly(st.integers(1, 3).map(str), ["0", "x"]), True),
    "--dual": (mostly(st.sampled_from(["false", "true", "both"]), ["maybe"]),
               False),
    "--max-weight": (COUNT_TEXTS, True),
    "--max-length": (COUNT_TEXTS, True),
    "--skip-oracle": (None, False),
    "--skip-vertex": (None, False),
    "--max-sigma-weight": (COUNT_TEXTS, True),
    "--max-zweight": (mostly(st.integers(0, 6).map(str), ["-1", "x"]), True),
}


@st.composite
def verify_argv(draw):
    suite = draw(st.sampled_from(sorted(SUITES)))
    argv = ["verify", suite]
    # once in ten draws, one flag the suite does not take
    extra = draw(mostly(st.none(), [flag for flag, (_, keywords)
                                    in VERIFY_FLAGS.items()
                                    if suite not in keywords]))
    for flag, (_, keywords) in VERIFY_FLAGS.items():
        values, bounding = VERIFY_VALUES[flag]
        if flag == extra or suite in keywords and (bounding
                                                   or draw(st.booleans())):
            argv += [flag] if values is None else [flag, draw(values)]
    if draw(st.integers(0, 3)) == 3:
        argv.append("--perturb")
    for flag, values, _ in COMMON_FLAGS:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(computing_argv(), verify_argv()))
# the empty pi took `_reordering_sides` to an IndexError
@example(["verify", "reordering", "--pi", "[0]", "--test-degree", "1"])
@example(["verify", "reordering", "--pi", "[]", "--test-degree", "1",
          "--perturb"])
def test_any_computing_argv_keeps_the_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    # every kernel and suite is right on these ranges: only a planted
    # mutation fails a check
    assert code != 1 or "--perturb" in argv, (argv, out.getvalue())
    if code in (2, 3):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("symvertex: error: "), \
            (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def parse(parser, argv):
    """The namespace of argv, or the exit code and error text."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            return vars(parser.parse_args(_merge_dash_values(argv)))
        except SystemExit as exc:
            return exc.code, err.getvalue()


@pytest.fixture(scope="module")
def whole_tree():
    return build_parser()


@settings(max_examples=300)
@given(argv=st.one_of(computing_argv(), verify_argv()))
def test_own_subparser_parses_as_the_whole_tree(whole_tree, argv):
    assert parse(build_parser(argv[0]), argv) == parse(whole_tree, argv)
