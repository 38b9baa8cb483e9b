"""Faults planted in kernel functions must be caught by the suites.

Each row plants one fault at the module attribute where its consumer
looks the function up, with the memos cleared so no value computed
before the plant can hide it, and requires a small suite run to report
failures.
"""

import inspect
import json
import sys

import pytest

from symvertex import oracle, schurring, verifier, vertexops
from symvertex.cli import main
from symvertex.schurring import PowerExpr
from symvertex.verifier import (verify_clifford, verify_inverse_series,
                                verify_multivertex, verify_reordering,
                                verify_route_agreement)
from symvertex.vertexops import Factor


def _sign_forced_positive(orig):
    def planted(n, mu):
        t = orig(n, mu)
        return None if t is None else (1, t[1])
    return planted


def _negative_terms_dropped(orig):
    def planted(n, mu):
        t = orig(n, mu)
        return None if t is None or t[0] < 0 else t
    return planted


def _top_stage_entry_dropped(orig):
    def planted(pi, dual, lam):
        stage, period = orig(pi, dual, lam)
        top = max(stage, default=None)
        return {e: v for e, v in stage.items() if e != top}, period
    return planted


def _extraction_off_by_one(orig):
    def planted(pi, dual, j, lam):
        return orig(pi, dual, j + 1, lam)
    return planted


def _scale_dropped(orig):
    def planted(d, x, y, c):
        return orig(d, x, y, 1)
    return planted


def _first_part_scaled_wrong(orig):
    # p_k[p_rho] with its first part scaled by k+1 instead of k
    def planted(k, expr):
        return PowerExpr._new({(rho[0] + rho[0] // k,) + rho[1:] if rho
                               else rho: a
                               for rho, a in orig(k, expr).c.items()})
    return planted


def _constant_term_skipped(orig):
    def planted(terms, base):
        return orig({rho: a for rho, a in terms.items() if rho}, base)
    return planted


def _truncated_one_short(orig):
    def planted(base, n, cap, inverted):
        return orig(base, n, max(cap - 1, 0), inverted)
    return planted


def _last_candidate_dropped(orig):
    def planted(lam, k):
        out = orig(lam, k)
        return out[:-1] if k > 0 else out
    return planted


def _last_removal_dropped(orig):
    def planted(lam, k):
        out = orig(lam, k)
        return out[:-1] if k < 0 else out
    return planted


def _last_pred_dropped(orig):
    def planted(nu):
        return orig(nu)[:-1]
    return planted


def _bounds_one_short(orig):
    def planted(chain, state_degree, window):
        rb, down, up = orig(chain, state_degree, window)
        return [max(r - 1, 0) for r in rb], down, up
    return planted


def _cap_one_short(orig):
    def planted(factor):
        step, cap = orig(factor)
        return step, None if cap is None else cap - 1
    return planted


def _sign_forced_positive_strips(orig):
    def planted(lam, k):
        return [(nu, 1) for nu, _ in orig(lam, k)]
    return planted


def _cross_factors_dropped(orig):
    # keep the factors that move one variable only
    def planted(pi, duals, varnames):
        return [f for f in orig(pi, duals, varnames)
                if sum(1 for e in f.exps if e) < 2]
    return planted


def _first_cross_family_flipped(orig):
    # the cross skews of the operator in the first variable
    flip = {"M": "L", "L": "M"}

    def planted(pi, duals, varnames):
        return [Factor(f.action, flip[f.family], f.shape, f.exps, f.label)
                if f.action == "skew" and f.exps[0] > 0 else f
                for f in orig(pi, duals, varnames)]
    return planted


def _charge_offset(dual, shift):
    # one kind's result lands one charge step too far: creation at c + 2,
    # annihilation at c - 2
    def wrapper(orig):
        def planted(out, pi, d, m, sectors):
            if d != dual:
                return orig(out, pi, d, m, sectors)
            for c, acc in orig({}, pi, d, m, sectors).items():
                tgt = out.setdefault(c + shift, {})
                for nu, v in acc.items():
                    tgt[nu] = tgt.get(nu, 0) + v
            return out
        return planted
    return wrapper


def _one_part_class_negated(orig):
    def planted(lam, rho):
        val = orig(lam, rho)
        return -val if len(rho) == 1 and rho[0] >= 2 else val
    return planted


def _last_key_dropped(orig):
    def planted(mu, nu=None, lam=None):
        out = orig(mu, nu, lam)
        return dict(list(out.items())[:-1]) if len(out) >= 2 else out
    return planted


def _multiplicities_lowered(orig):
    def planted(mu, nu=None, lam=None):
        return {key: c - 1 if c > 1 else c
                for key, c in orig(mu, nu, lam).items()}
    return planted


def _in_source(module, old, new):
    # for a fault in a local of the kernel: the function recompiled in its
    # module's namespace with `old` replaced once by `new`
    def wrapper(orig):
        src = inspect.getsource(orig)
        assert src.count(old) == 1
        namespace = dict(vars(module))
        exec(src.replace(old, new), namespace)
        return namespace[orig.__name__]
    return wrapper


# the lattice cap one smaller, clamped at 0 so every shape stays valid
_lattice_cap_tightened = _in_source(
    schurring, "before[j - 1] - content[j]",
    "max(before[j - 1] - content[j] - 1, 0)")

# the count of one coefficient (the outer shape held at lam) caps each
# label one box short of lam's row
_outer_cap_short = _in_source(
    schurring, "min(cap, lam[r] - e)", "min(cap, lam[r] - e - 1)")

# the Z side's peel adds every entry of its row, the negative ones too
_z_peel_signs_dropped = _in_source(
    oracle, "grouped.get(key, {}), v)", "grouped.get(key, {}), abs(v))")

# every series term of two or more terms acts on a Schur function without
# its last term (dropping a single-term series outright leaves both sides
# of reordering_small equal)
_series_term_last_dropped = _in_source(
    vertexops, "series_term(family, shape, r).c.items()",
    "(lambda t: t[:-1] if len(t) > 1 else t)("
    "list(series_term(family, shape, r).c.items()))")


# every bead move of the way back from power sums counted with sign +1
_bead_sign_positive = _in_source(
    schurring, "(-c if jumped & 1 else c)", "c")

# the coefficient of p_rho divided by the LCM of the denominators only,
# not by z_rho as well
_centralizer_dropped = _in_source(
    schurring, "centralizer_order(rho) * den", "den")


# every series coefficient taken as 1: a term acts as the sum of its
# Schur functions
_series_coefficients_one = _in_source(
    vertexops, "acc.get(nu, 0) + b * m", "acc.get(nu, 0) + m")

# every series term acts without its first term
_series_term_first_dropped = _in_source(
    vertexops, "series_term(family, shape, r).c.items()",
    "list(series_term(family, shape, r).c.items())[1:]")

# the box of each label length one short at the top: the labels with the
# largest part in some variable read 0
_box_top_short = _in_source(
    vertexops, "(min(p), max(p))", "(min(p), max(min(p), max(p) - 1))")


def _off_diagonal_raised(orig):
    # every nonzero Kostka number off the diagonal one too large
    def planted(kappa, alpha):
        k = orig(kappa, alpha)
        return k + 1 if k and kappa != alpha else k
    return planted


def clifford_small():
    return verify_clifford(degree_bound=3, mode_range=(-2, 2))


def inverse_series_small():
    return verify_inverse_series(max_sigma_weight=2, max_zweight=6)


def route_agreement_small():
    return verify_route_agreement(pis=[(1,), (2,), (1, 1)], max_weight=3,
                                  include_vertex=False)


def vertex_routes_small():
    return verify_route_agreement(pis=[(1,), (2,), (1, 1)], max_weight=3,
                                  include_oracle=False)


# the runs above all pass with LR multiplicities lowered by one; this one
# fails 3 of its 368 cases
def lr_multiplicities_small():
    return verify_route_agreement(pis=[(1,), (2,), (1, 1), (2, 1)],
                                  max_weight=6, include_oracle=False)


def multivertex_small():
    return verify_multivertex(pis=((2,), (2, 1)), ms=(2,), window=(-2, 2))


def reordering_small():
    return verify_reordering(cases=("MM", "LL"), pis=[(2,)], window=(0, 2),
                             test_degree=3)


# (row id, module, attribute, wrapper building the plant from the original,
#  suite run that must report failures)
FAULTS = [
    ("straighten-sign-positive", vertexops, "_straighten",
     _sign_forced_positive, clifford_small),
    ("straighten-drops-negative", vertexops, "_straighten",
     _negative_terms_dropped, clifford_small),
    ("mode-extraction-off-by-one", vertexops, "_vertex_coefficient",
     _extraction_off_by_one, clifford_small),
    # the modes' skew factors, run on their own chain
    ("skew-stage-drops-top", vertexops, "_skew_stage",
     _top_stage_entry_dropped, clifford_small),
    # mode and anticommutator look the helper up in vertexops
    ("mode-creation-charge-offset", vertexops, "_mode_into",
     _charge_offset(False, 1), clifford_small),
    ("mode-annihilation-charge-offset", vertexops, "_mode_into",
     _charge_offset(True, -1), clifford_small),
    ("power-mul-scale-dropped", verifier, "_mul_into",
     _scale_dropped, inverse_series_small),
    ("power-substitute-part-scaled", verifier, "power_substitute",
     _first_part_scaled_wrong, inverse_series_small),
    # the recursion looks itself up in schurring, so every level is planted
    ("from-power-constant-skipped", schurring, "_from_power_int",
     _constant_term_skipped, inverse_series_small),
    ("from-power-bead-sign-positive", schurring, "_from_power_int",
     _bead_sign_positive, inverse_series_small),
    # the check side of the suite looks it up in verifier
    ("to-power-divides-by-one", verifier, "to_power",
     _centralizer_dropped, inverse_series_small),
    # the recursion looks itself up in schurring; only the series cases
    # of the suite see it
    ("charvalue-one-part-negated", schurring, "charvalue",
     _one_part_class_negated, inverse_series_small),
    # both kernels and the shape series are built by this one routine
    ("series-factors-one-degree-short", oracle, "_series_factor_layers",
     _truncated_one_short, route_agreement_small),
    # products, skews and the column rules look it up in schurring; one
    # row per sign of the strip
    ("pieri-row-drops-last", schurring, "pieri_row",
     _last_candidate_dropped, reordering_small),
    ("pieri-row-removal-drops-last", schurring, "pieri_row",
     _last_removal_dropped, reordering_small),
    ("border-strips-sign-positive", schurring, "border_strips",
     _sign_forced_positive_strips, reordering_small),
    # every chain factor acts through it, so both sides see the fault
    ("term-action-drops-last-term", vertexops, "_term_action",
     _series_term_last_dropped, reordering_small),
    # reordering_small passes with these two: its identity holds for the
    # corrupted series too
    ("term-action-coefficients-one", vertexops, "_term_action",
     _series_coefficients_one, clifford_small),
    ("term-action-drops-first-term", vertexops, "_term_action",
     _series_term_first_dropped, clifford_small),
    ("plan-bounds-one-short", vertexops, "_termination_plan",
     _bounds_one_short, reordering_small),
    # the capped factors: the normal-ordering prefactors, on the
    # normal-ordered side only, and constant column skews, on both sides
    ("self-bound-constant-cap-short", vertexops, "_self_bound",
     _cap_one_short, multivertex_small),
    # the tableau sum and the Kostka numbers both read the strips
    ("horiz-preds-drops-last", oracle, "_horiz_preds",
     _last_pred_dropped, route_agreement_small),
    # the recursion looks itself up in oracle, so every level is planted;
    # both the Z-side and the X-side peel read it
    ("kostka-off-diagonal-raised", oracle, "kostka",
     _off_diagonal_raised, route_agreement_small),
    ("z-peel-row-signs-dropped", oracle, "_extract_schur_z",
     _z_peel_signs_dropped, route_agreement_small),
    # string_chain and normal_ordered_string share the builder, so only
    # the normal-ordered side loses its cross factors
    ("cross-factors-dropped", vertexops, "_vertex_factors",
     _cross_factors_dropped, multivertex_small),
    # both sides of multivertex share the builder; the vertex route of
    # theorem2 sees the fault
    ("cross-family-flipped", vertexops, "_vertex_factors",
     _first_cross_family_flipped, vertex_routes_small),
    # the suite looks the batch up in verifier; vertex_string, its
    # one-label case, reads a box of one point
    ("vertex-strings-box-top-short", verifier, "vertex_strings",
     _box_top_short, vertex_routes_small),
    # products and skews outside the Pieri rules look it up in schurring
    ("lr-tableaux-drops-last", schurring, "_lr_tableaux",
     _last_key_dropped, clifford_small),
    ("lr-tableaux-multiplicities-lowered", schurring, "_lr_tableaux",
     _multiplicities_lowered, lr_multiplicities_small),
    # of the small runs, clifford_small (11 of 6,930 cases) and
    # lr_multiplicities_small see the tighter cap; the others pass
    ("lr-tableaux-lattice-cap-tightened", schurring, "_lr_tableaux",
     _lattice_cap_tightened, clifford_small),
    # only the Cauchy route counts with the outer shape fixed, and only past
    # weight 3 does it meet a pair that no Pieri rule takes
    ("lr-tableaux-outer-cap-short", schurring, "_lr_tableaux",
     _outer_cap_short, lr_multiplicities_small),
]


def _clear_memos():
    """Empty every module-level memo dict of the package."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("symvertex."):
            for attr, val in vars(mod).items():
                if attr.endswith("_memo") and isinstance(val, dict):
                    val.clear()


@pytest.fixture
def cold_memos():
    _clear_memos()
    yield
    _clear_memos()


@pytest.mark.parametrize("module, attr, plant, run",
                         [row[1:] for row in FAULTS],
                         ids=[row[0] for row in FAULTS])
def test_planted_fault_is_caught(cold_memos, monkeypatch, module, attr,
                                 plant, run):
    monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    rep = run()
    assert rep.failures


# the inverse identity holds for any sequence Q_k, so a kernel fault shows
# in the hook cases only through their Newton terms against series_term
@pytest.mark.parametrize("row_id", ["power-mul-scale-dropped",
                                    "power-substitute-part-scaled",
                                    "from-power-constant-skipped"])
def test_hook_cases_see_the_fault(cold_memos, monkeypatch, row_id):
    _, module, attr, plant, run = next(row for row in FAULTS
                                       if row[0] == row_id)
    monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    assert any(rec["inputs"]["part"] == "hooks" for rec in run().failures)


def test_unplanted_runs_pass(cold_memos):
    for run in {row[4] for row in FAULTS}:
        assert not run().failures


def _least_monomial_dropped(orig):
    # a Schur polynomial in several variables loses a monomial, so the
    # series of a shape is no longer symmetric in Z
    def planted(lam, nvars):
        poly = orig(lam, nvars)
        return {k: v for k, v in poly.items() if k != min(poly)} \
            if len(poly) > 1 else poly
    return planted


def test_oracle_fault_is_a_failed_check(cold_memos, monkeypatch, capsys):
    # a fault in the oracle fails cases (exit 1); a ValueError raised by
    # another route is still a bad request (exit 2)
    monkeypatch.setattr(oracle, "_horiz_preds",
                        _last_pred_dropped(oracle._horiz_preds))
    argv = ["verify", "theorem2", "--timing", "none", "--format", "json"]
    assert main(argv + ["--max-weight", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"]
    assert main(argv + ["--pi", "[]", "--max-weight", "3"]) == 2
    assert main(argv + ["--pi", "[1]", "--max-weight", "5",
                        "--max-length", "5"]) == 2
    # a ValueError raised inside the oracle route, here by its symmetry
    # check, fails each case it reaches with the error as the value
    monkeypatch.undo()
    _clear_memos()
    monkeypatch.setattr(oracle, "schur_poly",
                        _least_monomial_dropped(oracle.schur_poly))
    assert main(argv + ["--max-weight", "3"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["failures"]
    assert all(rec["rhs"] == {"error": "kernel at lambda=%s is not "
                              "symmetric in Z" % rec["inputs"]["lambda"]}
               for rec in rep["failures"])
