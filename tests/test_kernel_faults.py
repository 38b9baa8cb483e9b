"""Faults planted in kernel functions must be caught by the suites.

Each row plants one fault at the module attribute where its consumer
looks the function up, with the memos cleared so no value computed
before the plant can hide it, and requires a small suite run to report
failures.
"""

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
    def planted(terms, strips):
        return orig({rho: a for rho, a in terms.items() if rho}, strips)
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


def _last_pred_dropped(orig):
    def planted(nu):
        return orig(nu)[:-1]
    return planted


def _bounds_one_short(orig):
    def planted(chain, state_degree, window):
        rb, down, up = orig(chain, state_degree, window)
        return [max(r - 1, 0) for r in rb], down, up
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
    # the recursion looks itself up in schurring; only the series cases
    # of the suite see it
    ("charvalue-one-part-negated", schurring, "charvalue",
     _one_part_class_negated, inverse_series_small),
    # both kernels and the shape series are built by this one routine
    ("series-factors-one-degree-short", oracle, "_series_factor_layers",
     _truncated_one_short, route_agreement_small),
    # products and the column rules look it up in schurring
    ("pieri-row-drops-last", schurring, "pieri_row",
     _last_candidate_dropped, reordering_small),
    ("pieri-row-down-drops-last", schurring, "pieri_row_down",
     _last_candidate_dropped, reordering_small),
    ("border-strips-sign-positive", schurring, "border_strips",
     _sign_forced_positive_strips, reordering_small),
    ("plan-bounds-one-short", vertexops, "_termination_plan",
     _bounds_one_short, reordering_small),
    # decompose detects the broken tableau sum and raises; the suite
    # records that as failed cases
    ("horiz-preds-drops-last", oracle, "_horiz_preds",
     _last_pred_dropped, route_agreement_small),
    # string_chain and normal_ordered_string share the builder, so only
    # the normal-ordered side loses its cross factors
    ("cross-factors-dropped", vertexops, "_vertex_factors",
     _cross_factors_dropped, multivertex_small),
    # both sides of multivertex share the builder; the vertex route of
    # theorem2 sees the fault
    ("cross-family-flipped", vertexops, "_vertex_factors",
     _first_cross_family_flipped, vertex_routes_small),
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


def test_oracle_fault_is_a_failed_check(cold_memos, monkeypatch, capsys):
    # a ValueError raised inside the oracle route fails its cases (exit
    # 1); one raised by another route is still a bad request (exit 2)
    monkeypatch.setattr(oracle, "_horiz_preds",
                        _last_pred_dropped(oracle._horiz_preds))
    argv = ["verify", "theorem2", "--timing", "none", "--format", "json"]
    assert main(argv + ["--max-weight", "3"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["failures"]
    assert all(set(rec["rhs"]) == {"error"} for rec in rep["failures"])
    assert main(argv + ["--pi", "[]", "--max-weight", "3"]) == 2
    assert main(argv + ["--pi", "[1]", "--max-weight", "5",
                        "--max-length", "5"]) == 2
