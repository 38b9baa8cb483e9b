"""Verification suites: small-range passes, perturbation sensitivity,
report plumbing, and replayability of recorded failures."""

import json

import pytest

from symvertex.jsonform import laurent_to_obj
from symvertex.partitions import parse_partition
from symvertex.schurring import SymFunc
from symvertex.verifier import (SUITES, VerificationReport, _laurent_diff,
                                _reordering_sides, verify_clifford,
                                verify_inverse_series, verify_multivertex,
                                verify_reordering, verify_route_agreement,
                                verify_zero_modes)
from symvertex.vertexops import (NormalProduct, apply_chain,
                                 normal_ordered_string, string_chain)

# Small-but-sensitive parameter sets: every perturbation below is known to
# produce at least one failing case inside these ranges.
SMALL = {
    "reordering": dict(cases=("MM", "LL"), pis=[(2,)], window=(0, 2),
                       test_degree=3),
    "zero-modes": dict(charge_range=(-2, 2)),
    "clifford": dict(pis=((2,),), mode_range=(-1, 1), degree_bound=2,
                     charges=(0,)),
    "multivertex": dict(pis=((2,),), ms=(2,), duals=(False,),
                        window=(-2, 2)),
    "theorem2": dict(pis=[(1,), (2,)], max_weight=3, max_length=2,
                     include_oracle=False),
    "inverse-series": dict(max_sigma_weight=2, max_zweight=6,
                           hook_pis=[(2,), (1, 1)]),
}


class TestSuitesPass:
    @pytest.mark.parametrize("suite", sorted(SMALL))
    def test_small_config_passes(self, suite):
        report = SUITES[suite](**SMALL[suite])
        assert report.passed()
        assert report.failures == []
        assert report.cases_run > 0
        assert report.suite == suite

    def test_registry_covers_six_suites(self):
        assert set(SUITES) == {"reordering", "zero-modes", "clifford",
                               "multivertex", "theorem2", "inverse-series"}


class TestPerturbationsFail:
    @pytest.mark.parametrize("suite", sorted(SMALL))
    def test_perturbed_run_fails(self, suite):
        report = SUITES[suite](perturb=True, **SMALL[suite])
        assert not report.passed()
        assert len(report.failures) >= 1
        # every failure record carries inputs plus both sides
        for rec in report.failures:
            assert "inputs" in rec
            assert "lhs" in rec and "rhs" in rec

    def test_perturb_flag_recorded_in_config(self):
        report = verify_zero_modes(perturb=True, **SMALL["zero-modes"])
        assert report.config["perturb"] is True


class TestReport:
    def _small_report(self, perturb=False):
        return verify_zero_modes(perturb=perturb, **SMALL["zero-modes"])

    def test_obj_roundtrip(self):
        rep = self._small_report()
        back = VerificationReport.from_obj(rep.to_obj())
        assert back == rep

    def test_obj_is_json_serializable(self):
        rep = self._small_report(perturb=True)
        text = json.dumps(rep.to_obj())
        back = VerificationReport.from_obj(json.loads(text))
        assert back.cases_run == rep.cases_run
        assert len(back.failures) == len(rep.failures)

    def test_summary_line_pass(self):
        rep = self._small_report()
        lines = rep.summary_lines()
        assert len(lines) == 1
        assert lines[0].startswith("suite zero-modes:")
        assert lines[0].endswith("-> PASS")
        assert "%d cases" % rep.cases_run in lines[0]

    def test_summary_line_fail_truncates(self):
        rep = self._small_report(perturb=True)
        assert len(rep.failures) > 2
        lines = rep.summary_lines(max_failures=2)
        assert lines[0].endswith("-> FAIL")
        assert lines[1].startswith("  FAIL ")
        assert lines[-1] == ("  ... and %d more failures"
                             % (len(rep.failures) - 2))

    def test_passed_reflects_failures(self):
        ok = VerificationReport("x", {}, 3, [], 1)
        bad = VerificationReport("x", {}, 3, [{"inputs": {}}], 1)
        assert ok.passed() and not bad.passed()


class TestDeterminism:
    def test_jobs_do_not_change_report(self):
        rep1 = verify_reordering(jobs=1, **SMALL["reordering"])
        rep4 = verify_reordering(jobs=4, **SMALL["reordering"])
        o1, o4 = rep1.to_obj(), rep4.to_obj()
        o1["elapsed_ms"] = o4["elapsed_ms"] = 0
        assert o1 == o4

    def test_jobs_do_not_change_failures(self):
        rep1 = verify_clifford(jobs=1, perturb=True, **SMALL["clifford"])
        rep4 = verify_clifford(jobs=4, perturb=True, **SMALL["clifford"])
        assert rep1.failures == rep4.failures


class TestFailureReplay:
    """A recorded failure must contain enough to recompute both sides."""

    def test_multivertex_failure_replays(self):
        rep = verify_multivertex(perturb=True, **SMALL["multivertex"])
        rec = rep.failures[0]
        pi = parse_partition(rec["inputs"]["pi"])
        m = rec["inputs"]["m"]
        dual = rec["inputs"]["dual"]
        f = (SymFunc.one() if rec["inputs"]["state"] == "1"
             else SymFunc.schur((1,)))
        lo, hi = rec["inputs"]["window"]
        win = {"z%d" % (i + 1): (lo, hi) for i in range(m)}
        lhs = apply_chain(string_chain(pi, m, dual=dual), f, win)
        np = normal_ordered_string(pi, m, dual=dual)
        np = NormalProduct(np.vars, np.prefactors[1:], np.chain)
        rhs = np.apply(f, win)
        dl, dr = _laurent_diff(lhs, rhs)
        assert laurent_to_obj(dl) == rec["lhs"]
        assert laurent_to_obj(dr) == rec["rhs"]

    def test_reordering_failure_replays(self):
        rep = verify_reordering(perturb=True, **SMALL["reordering"])
        rec = rep.failures[0]
        case = rec["inputs"]["case"]
        pi = parse_partition(rec["inputs"]["pi"])
        lam = parse_partition(rec["inputs"]["lambda"])
        lo, hi = rec["inputs"]["window"]
        win = {"z": (lo, hi), "w": (lo, hi)}
        lhs_chain, rhs_chain = _reordering_sides(case, pi, perturb=True)
        f = SymFunc.schur(lam)
        lhs = apply_chain(lhs_chain, f, win)
        rhs = apply_chain(rhs_chain, f, win)
        assert lhs != rhs
        dl, dr = _laurent_diff(lhs, rhs)
        assert laurent_to_obj(dl) == rec["lhs"]
        assert laurent_to_obj(dr) == rec["rhs"]


class TestSuiteSpecifics:
    def test_zero_modes_counts(self):
        rep = verify_zero_modes(charge_range=(-3, 3))
        # four identities, each one symbolic check plus seven charges
        assert rep.cases_run == 4 * 8
        assert rep.passed()

    def test_clifford_case_structure(self):
        rep = verify_clifford(**SMALL["clifford"])
        assert rep.passed()
        assert rep.config["pis"] == ["[2]"]
        assert rep.config["mode_range"] == [-1, 1]

    def test_route_agreement_with_oracle(self):
        rep = verify_route_agreement(pis=[(2,)], max_weight=2, max_length=2,
                                     include_oracle=True)
        assert rep.passed()

    def test_route_agreement_negative_length_runs_nothing(self):
        rep = verify_route_agreement(max_length=-1)
        assert rep.cases_run == 0

    def test_inverse_series_parts(self):
        rep = verify_inverse_series(max_sigma_weight=1, max_zweight=4,
                                    hook_pis=[(1,)])
        assert rep.passed()
        assert rep.config["max_zweight"] == 4
