"""Verification suites: small-range passes, perturbation sensitivity,
report plumbing, and replayability of recorded failures."""

import json
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symvertex import verifier
from symvertex.jsonform import laurent_to_obj
from symvertex.partitions import (format_partition, hooks_inside,
                                  parse_partition, partitions_of,
                                  partitions_up_to, weight)
from symvertex.plethysm import plethysm, power_substitute, series_term
from symvertex.schurring import PowerExpr, SymFunc, to_power
from symvertex.verifier import (SUITES, VerificationReport, _laurent_diff,
                                _mul_into, _pack, _reordering_sides,
                                _series_power_terms, _unpack,
                                verify_clifford,
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

    def test_obj_is_json_serializable(self):
        rep = self._small_report(perturb=True)
        assert json.loads(json.dumps(rep.to_obj())) == rep.to_obj()

    def test_summary_line_pass(self):
        rep = self._small_report()
        lines = rep.summary_lines()
        assert len(lines) == 1
        assert lines[0].startswith("suite zero-modes:")
        assert lines[0].endswith("-> PASS")
        assert "%d cases" % rep.cases_run in lines[0]

    def test_summary_line_fail_truncates(self):
        rep = self._small_report(perturb=True)
        assert len(rep.failures) > 5
        lines = rep.summary_lines()
        assert len(lines) == 7
        assert lines[0].endswith("-> FAIL")
        assert lines[1].startswith("  FAIL ")
        assert lines[-1] == ("  ... and %d more failures"
                             % (len(rep.failures) - 5))

    def test_passed_reflects_failures(self):
        ok = VerificationReport("x", {}, 3, [], 1)
        bad = VerificationReport("x", {}, 3, [{"inputs": {}}], 1)
        assert ok.passed() and not bad.passed()


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
        lhs = apply_chain(string_chain(pi, (dual,) * m), f, win)
        np = normal_ordered_string(pi, (dual,) * m)
        np = NormalProduct(np.vars, np.prefactors[1:], np.chain)
        rhs = np.apply(f, win)
        dl, dr = _laurent_diff(lhs, rhs)
        assert laurent_to_obj(np.vars, dl) == rec["lhs"]
        assert laurent_to_obj(np.vars, dr) == rec["rhs"]

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
        assert laurent_to_obj(lhs_chain.vars, dl) == rec["lhs"]
        assert laurent_to_obj(lhs_chain.vars, dr) == rec["rhs"]


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


def fraction_series_terms(shape, rmax):
    """Reference for verifier._series_power_terms: the Newton recurrences
    h_r = (1/r) sum_k p_k[g] h_{r-k} and the signed column twin, run in
    Fractions with no scaling, as the suite ran them before it moved to
    integers."""
    gp = to_power(shape)
    qs = [None] + [power_substitute(k, gp) for k in range(1, rmax + 1)]
    row = [PowerExpr.one()]
    col = [PowerExpr.one()]
    for r in range(1, rmax + 1):
        acc_row = PowerExpr()
        acc_col = PowerExpr()
        for k in range(1, r + 1):
            acc_row = acc_row + qs[k] * row[r - k]
            acc_col = acc_col + qs[k] * col[r - k]
        row.append(acc_row.scale(Fraction(1, r)))
        col.append(acc_col.scale(Fraction(-1, r)))
    return row, col


def default_suite_shapes():
    """{label: shape} of every shape verify_inverse_series builds at its
    defaults: kernel shapes to weight 3, hook skews of shapes to weight 4."""
    shapes = {format_partition(s): SymFunc.schur(s)
              for w in range(4) for s in partitions_of(w)}
    for pi in [p for w in range(1, 5) for p in partitions_of(w)]:
        for hook in hooks_inside(pi):
            shape = SymFunc.schur(pi).skew_by(hook)
            if shape:
                shapes["%s/%s" % (format_partition(pi),
                                  format_partition(hook))] = shape
    return shapes


def product_series_terms(shape, rmax):
    """Reference for verifier._series_power_terms: the integer-scaled
    Newton recurrences run one PowerExpr product and sum per term."""
    gp = to_power(shape)
    den = lcm(*(a.denominator for a in gp.c.values()))
    gq = gp.scale(den)
    qs = [None] + [power_substitute(k, gq) for k in range(1, rmax + 1)]
    row = [PowerExpr.one()]
    col = [PowerExpr.one()]
    for r in range(1, rmax + 1):
        acc_row = PowerExpr()
        acc_col = PowerExpr()
        for k in range(1, r + 1):
            q = qs[k].scale(factorial(r - 1) // factorial(r - k)
                            * den ** (k - 1))
            acc_row = acc_row + q * row[r - k]
            acc_col = acc_col + q * col[r - k]
        row.append(acc_row)
        col.append(-acc_col)
    return row, col, den


def product_total(row, col, r, perturb=False):
    """Reference for the suite's check: sum_a C(r,a) row[a] col[r-a] by one
    PowerExpr product per term and a sum; perturb signs term a by
    (-1)^(r-a)."""
    total = PowerExpr()
    for a in range(r + 1):
        c = comb(r, a) * ((-1) ** (r - a) if perturb else 1)
        total = total + row[a].scale(c) * col[r - a]
    return total


def packed(expr, bits):
    return {_pack(rho, bits): a for rho, a in expr.c.items()}


def unpacked(d, bits):
    return PowerExpr._new({_unpack(u, bits): a for u, a in d.items()})


def packed_total(row, col, r, perturb=False):
    """The suite's check on packed terms: sum_a C(r,a) row[a] col[r-a]
    through _mul_into; perturb signs term a by (-1)^(r-a)."""
    total = {}
    for a in range(r + 1):
        _mul_into(total, row[a], col[r - a],
                  comb(r, a) * (-1) ** (r - a) if perturb else comb(r, a))
    return total


def assert_scaled_terms_match(shape, rmax):
    """The Newton terms against both references, and the check's totals,
    with perturb off and on, against the product-and-add total."""
    row, col, den, bits = _series_power_terms(shape, rmax)
    ref_row, ref_col = fraction_series_terms(shape, rmax)
    prow = [unpacked(d, bits) for d in row]
    pcol = [unpacked(d, bits) for d in col]
    assert (prow, pcol, den) == product_series_terms(shape, rmax)
    assert len(row) == len(col) == rmax + 1
    for r in range(rmax + 1):
        scale = factorial(r) * den ** r
        for term in row[r], col[r]:
            assert all(type(v) is int for v in term.values())
        assert prow[r].scale(Fraction(1, scale)) == ref_row[r], r
        assert pcol[r].scale(Fraction(1, scale)) == ref_col[r], r
        for perturb in (False, True):
            assert (unpacked(packed_total(row, col, r, perturb), bits)
                    == product_total(prow, pcol, r, perturb)), (r, perturb)


class TestIntegerSeriesTerms:
    """The integer-scaled Newton terms of the inverse-series suite against
    the Fraction recurrence and the PowerExpr products it replaced."""

    @pytest.mark.parametrize("label, shape",
                             sorted(default_suite_shapes().items()))
    def test_every_default_shape_to_degree_4(self, label, shape):
        assert_scaled_terms_match(shape, 4)

    @pytest.mark.parametrize("shape, rmax", [
        (SymFunc.one(), 12), (SymFunc.schur((1,)), 12),
        (SymFunc.schur((2, 1)), 4),
        # hook skews paired at the hook's weight 1: [3]/[1] = s[2],
        # [2,2]/[1] = s[2,1] and [3,1]/[1] = s[3] + s[2,1]
        (SymFunc.schur((3,)).skew_by((1,)), 12), (SymFunc.schur((2,)), 6),
        (SymFunc.schur((2, 2)).skew_by((1,)), 12),
        (SymFunc.schur((3, 1)).skew_by((1,)), 12)])
    def test_full_range(self, shape, rmax):
        assert_scaled_terms_match(shape, rmax)

    def test_perturbed_records_match_reference(self):
        """Every failure record of a small perturbed run, lhs strings
        included, as the Fraction recurrence computes it."""
        cases = [("series", "[]", SymFunc.one(), 3),
                 ("series", "[1]", SymFunc.schur((1,)), 3),
                 ("hooks", "[2]/[2]", SymFunc.one(), 1),
                 ("hooks", "[2]/[1]", SymFunc.schur((1,)), 3)]
        want = []
        for part, label, shape, rmax in cases:
            row, col = fraction_series_terms(shape, rmax)
            for r in range(1, rmax + 1):
                total = sum((row[a] * col[r - a].scale((-1) ** (r - a))
                             for a in range(r + 1)), PowerExpr())
                if total:
                    want.append({
                        "inputs": {"part": part, "shape": label, "r": r},
                        "lhs": {",".join(map(str, rho)): str(cv)
                                for rho, cv in total.terms()},
                        "rhs": {}})
        rep = verify_inverse_series(max_sigma_weight=1, max_zweight=3,
                                    hook_pis=[(2,)], perturb=True)
        assert rep.cases_run == 10
        assert want and rep.failures == want


COEFFS = st.one_of(st.integers(-6, 6),
                   st.fractions(max_denominator=4, min_value=-3, max_value=3))


def power_terms(count):
    """count PowerExpr of weight below 4 each."""
    return st.lists(st.dictionaries(st.sampled_from(partitions_up_to(3)),
                                    COEFFS, max_size=4).map(PowerExpr),
                    min_size=count, max_size=count)


def suite_widths():
    """{bits: the largest weight bound rmax*deg packed at that width} over
    the shapes verify_inverse_series builds at its defaults; the width is
    read off _series_power_terms, which depends only on deg and rmax."""
    grades = {(w, max(w, 1)) for w in range(4)}
    grades |= {(weight(pi) - weight(hook), weight(hook))
               for pi in partitions_up_to(4) if pi
               for hook in hooks_inside(pi)}
    widths = {}
    for deg, grade in grades:
        rmax = 12 // grade
        shape = SymFunc.schur((deg,)) if deg else SymFunc.one()
        bits = _series_power_terms(shape, rmax)[3]
        widths[bits] = max(widths.get(bits, 0), rmax * max(deg, 1))
    return sorted(widths.items())


class TestMulInto:
    """verifier._mul_into, the suite's one product loop, on packed
    monomials."""

    @given(power_terms(3), COEFFS)
    def test_adds_the_scaled_product(self, terms, c):
        z, x, y = terms
        got = _mul_into(packed(z, 3), packed(x, 3), packed(y, 3), c)
        assert unpacked(got, 3) == z + x.scale(c) * y

    @given(st.integers(0, 4).flatmap(lambda r: power_terms(2 * r + 2).map(
        lambda terms: (r, terms))))
    def test_total_on_random_terms(self, case):
        """Random row and col terms with supports of their own and int and
        Fraction coefficients mixed."""
        r, terms = case
        row, col = terms[:r + 1], terms[r + 1:]
        for perturb in (False, True):
            got = packed_total([packed(t, 4) for t in row],
                               [packed(t, 4) for t in col], r, perturb)
            assert unpacked(got, 4) == product_total(row, col, r, perturb)

    @pytest.mark.parametrize("bits, bound", suite_widths())
    def test_packing_at_the_suite_widths(self, bits, bound):
        """Every partition of weight up to the bound unpacks to itself, and
        a product's code is the code of the sorted merge."""
        for kappa in partitions_up_to(bound):
            assert _unpack(_pack(kappa, bits), bits) == kappa
            rho, tau = kappa[::2], kappa[1::2]
            got = _mul_into({}, {_pack(rho, bits): 1},
                            {_pack(tau, bits): 1}, 1)
            assert got == {_pack(kappa, bits): 1}


class TestSeriesTermFault:
    # a sign error in each branch of series_term, computed past the memo
    PLANTS = {
        "L": lambda shape, r: plethysm((1,) * r, shape).scale(
            (-1) ** (r + 1)),
        "M": lambda shape, r: plethysm((r,), shape).scale(-1),
    }

    # kernel shapes [], [1] to r = 6 and [2], [1,1] to r = 3; the column
    # terms e_r[1] of the empty shape vanish at r >= 2 and cannot fail
    @pytest.mark.parametrize("family, failures",
                             [("L", 6 + 6 + 3 + 3 - 5), ("M", 6 + 6 + 3 + 3)])
    def test_planted_sign_error_fails_the_suite(self, monkeypatch, family,
                                                failures):
        """The plant, put where the suite looks series_term up, fails every
        plain-shape case whose planted term is nonzero, every hook case at
        r = 1 and r = 2 whose planted term is nonzero, and nothing else."""
        def planted(fam, shape, r):
            if fam == family:
                return self.PLANTS[fam](shape, r)
            return series_term(fam, shape, r)

        monkeypatch.setattr(verifier, "series_term", planted)
        rep = verify_inverse_series(max_sigma_weight=2, max_zweight=6)
        # 39 hook shapes at r = 1; 35 reach r = 2, and e_2[1] vanishes on
        # the 6 of them that are the empty shape
        hooks = 39 + (35 - 6 if family == "L" else 35)
        assert len(rep.failures) == failures + hooks
        for rec in rep.failures:
            assert rec["inputs"]["part"] == "series" or rec["inputs"]["r"] <= 2
            assert rec["inputs"]["family"] == family
