from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symvertex.partitions import partitions_of, partitions_up_to, weight
from symvertex.plethysm import dual_pi_schur, pi_schur, series_term
from symvertex.schurring import SymFunc
from symvertex.verifier import (DEFAULT_CLIFFORD_PIS, REORDERING_CASES,
                                _reordering_sides)
from symvertex.vertexops import (DEFAULT_STRING_BOUND, ChargedState,
                                 FactorChain, NormalProduct,
                                 ZeroModeNormalForm,
                                 _mode_memo, _self_bound, _stage_memo,
                                 _straighten, _termination_plan,
                                 _vertex_coefficient,
                                 annihilation_zero_word, anticommutator,
                                 apply_chain, creation_zero_word,
                                 make_factor, mode,
                                 normal_ordered_string, normalize_window,
                                 string_chain, vertex_string,
                                 vertex_strings, zero_mode_normal_form)

S = SymFunc.schur
ONE = SymFunc.one()

_COEFFS = st.sampled_from([1, -1, 2, Fraction(-1, 2)])
SMALL_SYMFUNCS = st.lists(
    st.tuples(st.sampled_from(partitions_up_to(3)), _COEFFS), max_size=3
).map(lambda ts: sum((S(p).scale(c) for p, c in ts), SymFunc.zero()))
STATES = st.dictionaries(st.integers(-2, 2), SMALL_SYMFUNCS,
                         max_size=3).map(ChargedState)


def chain_summary(chain):
    return [(f.action, f.family, dict(f.shape.c), f.exps)
            for f in chain.factors]


class TestChainBuilders:
    def test_creation_row_three(self):
        got = chain_summary(string_chain((3,), (False,)))
        assert got == [
            ("multiply", "M", {(1,): 1}, (1,)),
            ("skew", "L", {(1,): 1}, (-1,)),
            ("skew", "L", {(2,): 1}, (1,)),
            ("skew", "L", {(1,): 1}, (2,)),
            ("skew", "L", {(): 1}, (3,)),
        ]

    def test_creation_empty_shape_is_classical(self):
        got = chain_summary(string_chain((), (False,)))
        assert got == [("multiply", "M", {(1,): 1}, (1,)),
                       ("skew", "L", {(1,): 1}, (-1,))]

    def test_creation_hook(self):
        got = chain_summary(string_chain((2, 1), (False,)))
        assert got == [
            ("multiply", "M", {(1,): 1}, (1,)),
            ("skew", "L", {(1,): 1}, (-1,)),
            ("skew", "L", {(2,): 1, (1, 1): 1}, (1,)),
            ("skew", "L", {(1,): 1}, (2,)),
        ]

    def test_annihilation_row_three(self):
        got = chain_summary(string_chain((3,), (True,)))
        assert got == [
            ("multiply", "L", {(1,): 1}, (1,)),
            ("skew", "M", {(1,): 1}, (-1,)),
            ("skew", "M", {(2,): 1}, (1,)),
        ]

    def test_annihilation_empty_shape(self):
        got = chain_summary(string_chain((), (True,)))
        assert got == [("multiply", "L", {(1,): 1}, (1,)),
                       ("skew", "M", {(1,): 1}, (-1,))]

    def test_annihilation_column_two(self):
        got = chain_summary(string_chain((1, 1), (True,)))
        assert got == [
            ("multiply", "L", {(1,): 1}, (1,)),
            ("skew", "M", {(1,): 1}, (-1,)),
            ("skew", "M", {(1,): 1}, (1,)),
            ("skew", "L", {(): 1}, (2,)),
        ]

    # one-operator chains of the remaining default clifford shapes
    @pytest.mark.parametrize("pi, dual, want", [
        ((2,), False, [("multiply", "M", {(1,): 1}, (1,)),
                       ("skew", "L", {(1,): 1}, (-1,)),
                       ("skew", "L", {(1,): 1}, (1,)),
                       ("skew", "L", {(): 1}, (2,))]),
        ((4,), False, [("multiply", "M", {(1,): 1}, (1,)),
                       ("skew", "L", {(1,): 1}, (-1,)),
                       ("skew", "L", {(3,): 1}, (1,)),
                       ("skew", "L", {(2,): 1}, (2,)),
                       ("skew", "L", {(1,): 1}, (3,)),
                       ("skew", "L", {(): 1}, (4,))]),
        ((1, 1), False, [("multiply", "M", {(1,): 1}, (1,)),
                         ("skew", "L", {(1,): 1}, (-1,)),
                         ("skew", "L", {(1,): 1}, (1,))]),
        ((2,), True, [("multiply", "L", {(1,): 1}, (1,)),
                      ("skew", "M", {(1,): 1}, (-1,)),
                      ("skew", "M", {(1,): 1}, (1,))]),
        ((4,), True, [("multiply", "L", {(1,): 1}, (1,)),
                      ("skew", "M", {(1,): 1}, (-1,)),
                      ("skew", "M", {(3,): 1}, (1,))]),
        ((2, 1), True, [("multiply", "L", {(1,): 1}, (1,)),
                        ("skew", "M", {(1,): 1}, (-1,)),
                        ("skew", "M", {(2,): 1, (1, 1): 1}, (1,)),
                        ("skew", "L", {(1,): 1}, (2,))]),
    ])
    def test_default_clifford_shapes(self, pi, dual, want):
        assert chain_summary(string_chain(pi, (dual,))) == want

    def test_mixed_normal_ordered_hook(self):
        # creation in z1, annihilation in z2: cross skews by a z1-row and
        # a z2-column, the row series exactly when the column is odd
        npd = normal_ordered_string((2, 1), (False, True))
        assert tuple(npd.prefactors) == (((-1, 1), -1),)
        assert chain_summary(npd.chain) == [
            ("multiply", "M", {(1,): 1}, (1, 0)),
            ("multiply", "L", {(1,): 1}, (0, 1)),
            ("skew", "L", {(1,): 1}, (-1, 0)),
            ("skew", "M", {(1,): 1}, (0, -1)),
            ("skew", "M", {(2,): 1, (1, 1): 1}, (0, 1)),
            ("skew", "L", {(1,): 1}, (0, 2)),
            ("skew", "L", {(2,): 1, (1, 1): 1}, (1, 0)),
            ("skew", "M", {(1,): 2}, (1, 1)),
            ("skew", "L", {(): 1}, (1, 2)),
            ("skew", "L", {(1,): 1}, (2, 0)),
            ("skew", "M", {(): 1}, (2, 1)),
        ]


class TestApplyChain:
    def test_row_series_on_vacuum(self):
        got = apply_chain(string_chain((), (False,)), ONE, {"z1": (0, 3)})
        for a in range(4):
            assert got.get((a,)) == S((a,) if a else ())

    def test_identity_chain(self):
        chain = FactorChain(("z",), [])
        got = apply_chain(chain, S((2, 1)), {"z": (-2, 2)})
        assert got.get((0,)) == S((2, 1))
        assert all(e == (0,) for e, _ in got.items())

    def test_row_three_cube_coefficient(self):
        got = apply_chain(string_chain((3,), (False,)), ONE, {"z1": (3, 3)})
        assert got.get((3,)) == S((3,)) - ONE

    def test_window_enlargement_is_invisible(self):
        for chain in (string_chain((2,), (False,)),
                      string_chain((2, 1), (True,)),
                      string_chain((2,), (False, False))):
            nv = len(chain.vars)
            small = {v: (-2, 2) for v in chain.vars}
            big = {v: (-4, 4) for v in chain.vars}
            f = S((2, 1))
            a = apply_chain(chain, f, small)
            b = apply_chain(chain, f, big)
            assert a == {e: v for e, v in b.items()
                         if all(-2 <= x <= 2 for x in e)}

    def test_chains_refuse_charged_states(self):
        with pytest.raises(TypeError, match="state must be a SymFunc"):
            apply_chain(string_chain((2,), (False,)), ChargedState({0: ONE}),
                        {"z1": (-2, 2)})

    @given(st.sampled_from(partitions_up_to(4)))
    def test_classical_pair_annihilates_positive_modes(self, lam):
        got = apply_chain(string_chain((), (False,)), S(lam),
                          {"z1": (-6, -1)})
        # coefficients below degree -|lam| must vanish
        for (a,), v in got.items():
            assert a >= -weight(lam)


class TestModes:
    def test_zero_mode_on_vacuum(self):
        got = mode((), "X", 0, ChargedState({0: ONE}))
        assert got == ChargedState({1: ONE})

    def test_negative_mode_creates_row(self):
        got = mode((), "X", -2, ChargedState({0: ONE}))
        assert got == ChargedState({1: S((2,))})
        # modes never run the chain, so its plan's ceiling does not bound m
        got = mode((), "X", -500, ChargedState({0: ONE}))
        assert got == ChargedState({1: S((500,))})

    def test_positive_mode_kills_vacuum(self):
        got = mode((), "X", 1, ChargedState({0: ONE}))
        assert got == ChargedState()

    def test_kind_spellings(self):
        st0 = ChargedState({0: S((1,))})
        with pytest.raises(ValueError, match="'X' or 'Xstar'"):
            mode((2,), "X*", 0, st0)

    def test_linearity_over_sectors(self):
        st0 = ChargedState({0: ONE, 1: S((1,))})
        got = mode((), "X", 0, st0)
        a = mode((), "X", 0, ChargedState({0: ONE}))
        b = mode((), "X", 0, ChargedState({1: S((1,))}))
        assert got == a + b

    @pytest.mark.parametrize("dual,j", [(False, 2), (True, 3), (False, -3)])
    def test_coefficients_are_read_only(self, dual, j):
        first = _vertex_coefficient((2,), dual, j, (2, 1))
        want = dict(first.c)
        with pytest.raises(TypeError):
            first.c[(9,)] = 1
        for key in want:
            with pytest.raises(TypeError):
                del first.c[key]
        assert first.scale(2) - first - first == SymFunc.zero()
        assert dict(_vertex_coefficient((2,), dual, j, (2, 1)).c) == want

    @pytest.mark.parametrize("pi", [(), (2,), (2, 1)])
    def test_shifted_charge_convention_is_next_mode(self, pi):
        # the clifford suite's deliberate mutation reads the extraction
        # index off the shifted charge; it runs as mode at index m + 1
        def post_shift_mode(kind, m, state):
            dual = kind == "Xstar"
            out = ChargedState()
            for c, f in state.c.items():
                tgt = (c - 1) if dual else (c + 1)
                j = (tgt - 1 - m) if dual else (-m - tgt)
                acc = SymFunc.zero()
                for lam, co in f.c.items():
                    acc = acc + _vertex_coefficient(pi, dual, j,
                                                    lam).scale(co)
                if acc:
                    out = out + ChargedState({tgt: acc})
            return out

        for kind in ("X", "Xstar"):
            for m in range(-3, 4):
                for c in (-1, 0, 1):
                    for lam in partitions_up_to(3):
                        st0 = ChargedState({c: S(lam)})
                        assert post_shift_mode(kind, m, st0) == \
                            mode(pi, kind, m + 1, st0)


def chain_coefficient(pi, dual, j, lam):
    """The z^j coefficient of the vertex operator on s_lam by running the
    whole chain: the production route before Bernstein straightening,
    kept as the reference."""
    res = apply_chain(string_chain(pi, (dual,)), S(lam), {"z1": (j, j)})
    return res.get((j,), SymFunc.zero())


# the six default clifford shapes, the single columns whose dual skew
# stage is unbounded, and shapes with two skew factors of each kind
STRAIGHTENED_PIS = [(), (2,), (1, 1), (3,), (2, 1), (4,),
                    (1,), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1)]


class TestBernsteinStraightening:
    @pytest.mark.parametrize("n", range(-5, 4))
    def test_straighten_is_bernstein_operator(self, n):
        # B_n = sum_i (-1)^i h_(n+i) e_i-adj, expanded by Pieri products
        for mu in partitions_up_to(4):
            want = SymFunc.zero()
            for i in range(max(0, -n), len(mu) + 1):
                want = want + (S((n + i,)) * S(mu).skew_by((1,) * i)
                               ).scale((-1) ** i)
            t = _straighten(n, mu)
            got = SymFunc.zero() if t is None else S(t[1]).scale(t[0])
            assert got == want, (n, mu)

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("pi", STRAIGHTENED_PIS)
    def test_matches_chain_reference(self, pi, dual):
        for j in range(-7, 8):
            for lam in partitions_up_to(4):
                assert _vertex_coefficient(pi, dual, j, lam) == \
                    chain_coefficient(pi, dual, j, lam), (j, lam)

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("pi", STRAIGHTENED_PIS)
    def test_coefficients_are_integers(self, pi, dual):
        # exact arithmetic: a float sign would compare equal to the int
        for j in range(-7, 8):
            for lam in partitions_up_to(4):
                val = _vertex_coefficient(pi, dual, j, lam)
                assert all(type(c) is int for c in val.c.values()), (j, lam)

    @pytest.mark.parametrize("kind", ["X", "Xstar"])
    @pytest.mark.parametrize("pi", [(), (1,), (2,), (1, 1)])
    def test_mode_on_fraction_state(self, pi, kind):
        state = ChargedState({0: S((1,)).scale(Fraction(1, 3))
                              + S((2, 1)).scale(Fraction(-5, 7))})
        dual = kind == "Xstar"
        for m in range(-3, 4):
            j = -1 - m if dual else -m
            want = (chain_coefficient(pi, dual, j, (1,)).scale(Fraction(1, 3))
                    + chain_coefficient(pi, dual, j, (2, 1)).scale(
                        Fraction(-5, 7)))
            got = mode(pi, kind, m, state)
            assert got == ChargedState({-1 if dual else 1: want}), m
            assert all(type(c) in (int, Fraction)
                       for f in got.c.values() for c in f.c.values()), m

    @pytest.mark.parametrize("pi", [(1,), (1, 1, 1)])
    def test_unbounded_dual_stage_is_cut(self, pi):
        # the dual skew stage of an odd single column is infinite in z;
        # it is kept as a period of len(pi) over a finite stage and cut in
        # mode, never expanded on a window
        _mode_memo.clear()
        _stage_memo.clear()
        for m in range(-4, 5):
            for c in (-1, 0, 1):
                for lam in partitions_up_to(3):
                    val = mode(pi, "Xstar", m, ChargedState({c: S(lam)}))
                    want = chain_coefficient(pi, True, c - 1 - m, lam)
                    assert val == ChargedState({c - 1: want}), (m, c, lam)
                    assert _stage_memo[pi, True, lam][1] == len(pi)


class TestAnticommutator:
    def test_delta_pairing(self):
        st0 = ChargedState({0: S((1,))})
        got = anticommutator((3,), "X", 1, "Xstar", -1, st0)
        assert got == st0

    def test_like_kinds_vanish(self):
        st0 = ChargedState({0: S((2, 1))})
        assert anticommutator((2,), "X", -1, "X", 2, st0) == ChargedState()

    def test_mixed_kinds_off_diagonal_vanish(self):
        st0 = ChargedState({0: S((2,))})
        got = anticommutator((2,), "X", 2, "Xstar", -1, st0)
        assert got == ChargedState()


# apply_chain, mode and anticommutator as they ran before the vertex layer
# moved onto plain coefficient dicts, with SymFunc and ChargedState
# arithmetic per term, kept as references


def ref_apply_chain(chain, state, window):
    w = normalize_window(window, chain.vars)
    nv = len(chain.vars)
    if not state:
        return {}
    rb, down, up = _termination_plan(chain, state.degree(), w)
    lo = [w[v][0] for v in chain.vars]
    hi = [w[v][1] for v in chain.vars]
    app = list(reversed(chain.factors))
    cur = {(0,) * nv: state}
    for u, f in enumerate(app):
        step, cap = _self_bound(f)
        lo_u = [lo[v] - up[u + 1][v] for v in range(nv)]
        hi_u = [hi[v] + down[u + 1][v] for v in range(nv)]
        nxt = {}
        for exps, val in cur.items():
            if step:
                rmax = val.degree() // step
            elif cap is not None:
                rmax = cap
            else:
                rmax = rb[u]
                for v, e in enumerate(f.exps):
                    if e > 0:
                        rmax = min(rmax, (hi_u[v] - exps[v]) // e)
                    elif e < 0:
                        rmax = min(rmax, (exps[v] - lo_u[v]) // (-e))
            for r in range(rmax + 1):
                term = series_term(f.family, f.shape, r)
                if not term:
                    continue
                ne = tuple(x + r * e for x, e in zip(exps, f.exps))
                if not all(a <= x <= b for a, x, b in zip(lo_u, ne, hi_u)):
                    continue
                if f.action == "multiply":
                    nv_val = val * term
                else:
                    nv_val = val.skew_by(term)
                if nv_val:
                    nxt[ne] = nxt.get(ne, 0) + nv_val
        cur = {e: v for e, v in nxt.items() if v}
        if not cur:
            break
    return {e: val for e, val in cur.items()
            if all(a <= x <= b for a, x, b in zip(lo, e, hi))}


def ref_mode(pi, kind, m, state):
    dual = kind == "Xstar"
    out = {}
    for c, f in state.c.items():
        j = (c - 1 - m) if dual else (-m - c)
        acc = {}
        for lam, co in f.c.items():
            for nu, v in _vertex_coefficient(pi, dual, j, lam).c.items():
                acc[nu] = acc.get(nu, 0) + co * v
        out[(c - 1) if dual else (c + 1)] = SymFunc._new(acc)
    return ChargedState._new(out)


def ref_anticommutator(pi, kind_a, m, kind_b, n, state):
    return (ref_mode(pi, kind_a, m, ref_mode(pi, kind_b, n, state))
            + ref_mode(pi, kind_b, n, ref_mode(pi, kind_a, m, state)))


def exact_values(value):
    """Every coefficient is an int or a non-integral Fraction."""
    if isinstance(value, dict):
        return all(exact_values(v) for v in value.values())
    if isinstance(value, ChargedState):
        return all(exact_values(f) for f in value.c.values())
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in value.c.values())


FRACTION_STATE = ChargedState({
    -1: S((1,)).scale(Fraction(1, 3)) + S((2, 1)).scale(Fraction(-5, 7)),
    0: ONE.scale(2) + S((1, 1)).scale(Fraction(3, 2)),
    2: S((2,)).scale(Fraction(-1, 2))})


class TestPlainDictReferences:
    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("pi", DEFAULT_CLIFFORD_PIS)
    def test_vertex_chains(self, pi, dual):
        chain = string_chain(pi, (dual,))
        for window in [(-w, w) for w in range(5)] + [(-4, -1), (1, 4)]:
            for lam in partitions_up_to(4):
                got = apply_chain(chain, S(lam), {"z1": window})
                assert got == ref_apply_chain(chain, S(lam), {"z1": window}), \
                    (window, lam)
                assert exact_values(got)

    @pytest.mark.parametrize("case", REORDERING_CASES)
    def test_reordering_sides(self, case):
        # the shapes to weight 3 on two windows, then the suite's own
        # shapes of weight 4 and window; Schur and Fraction inputs
        runs = [(partitions_up_to(3)[1:], ((0, 4), (-2, 2)), 3),
                (partitions_of(4), ((0, 4),), 4)]
        for pis, windows, degree in runs:
            states = ([S(lam) for lam in partitions_up_to(degree)]
                      + list(FRACTION_STATE.c.values()))
            for pi in pis:
                for chain in _reordering_sides(case, pi):
                    for window in windows:
                        win = {"z": window, "w": window}
                        for f in states:
                            got = apply_chain(chain, f, win)
                            assert got == ref_apply_chain(chain, f, win), \
                                (pi, window, f)
                            assert exact_values(got)

    @pytest.mark.parametrize("pi", [(), (2,), (1, 1), (2, 1)])
    def test_two_operator_strings(self, pi):
        win = {"z1": (-3, 3), "z2": (-3, 3)}
        for duals in product((False, True), repeat=2):
            chain = string_chain(pi, duals)
            for f in (ONE, S((1,)), S((2, 1))):
                got = apply_chain(chain, f, win)
                assert got == ref_apply_chain(chain, f, win), (duals, f)
                assert exact_values(got)

    def test_fraction_coefficients(self):
        chains = [string_chain(pi, (dual,))
                  for pi in ((2,), (1, 1), (2, 1)) for dual in (False, True)]
        chains.append(string_chain((2,), (False, True)))
        for chain in chains:
            win = {v: (-3, 3) for v in chain.vars}
            for f in FRACTION_STATE.c.values():
                got = apply_chain(chain, f, win)
                assert got == ref_apply_chain(chain, f, win), chain
                assert got and exact_values(got)

    def test_anticommutator_on_small_clifford_range(self):
        lams = partitions_up_to(3)
        for pi in DEFAULT_CLIFFORD_PIS:
            for ka, kb in (("X", "X"), ("Xstar", "Xstar"), ("X", "Xstar")):
                for m in range(-2, 3):
                    for n in range(-2, 3):
                        for lam in lams:
                            for c in (-1, 0, 1):
                                st0 = ChargedState({c: S(lam)})
                                got = anticommutator(pi, ka, m, kb, n, st0)
                                assert got == ref_anticommutator(
                                    pi, ka, m, kb, n, st0)
                                assert exact_values(got)

    @pytest.mark.parametrize("pi", DEFAULT_CLIFFORD_PIS)
    def test_modes_on_fraction_state(self, pi):
        for kind in ("X", "Xstar"):
            for m in range(-3, 4):
                got = mode(pi, kind, m, FRACTION_STATE)
                assert got == ref_mode(pi, kind, m, FRACTION_STATE), m
                assert exact_values(got)
                got = anticommutator(pi, kind, m, "Xstar", -m, FRACTION_STATE)
                assert got == ref_anticommutator(pi, kind, m, "Xstar", -m,
                                                 FRACTION_STATE), m
                assert exact_values(got)


class TestCacheSafety:
    # a caller that mutates a chain, a factor or a returned value after a
    # call cannot change what a later call returns

    WIN = {"z": (-1, 3), "w": (-1, 3)}

    @pytest.mark.parametrize("mutate", [
        lambda c: setattr(c.factors[0], "shape", S((1, 1))),
        lambda c: setattr(c.factors[1], "exps", (1, -1)),
        lambda c: setattr(c.factors[1], "family", "L"),
        lambda c: c.factors.append(
            make_factor("skew", "M", S((1,)), (0, 1), c.vars)),
    ], ids=["shape", "exps", "family", "appended"])
    def test_mutated_chain_is_applied_as_it_now_is(self, mutate):
        _, chain = _reordering_sides("MM", (2, 1))
        f = S((2, 1)) + S((1,))
        before = apply_chain(chain, f, self.WIN)
        assert before == ref_apply_chain(chain, f, self.WIN)
        mutate(chain)
        got = apply_chain(chain, f, self.WIN)
        assert got == ref_apply_chain(chain, f, self.WIN)
        assert got != before

    def test_mutated_result_does_not_reach_the_next_call(self):
        chain = string_chain((2, 1), (False, True))
        win = {"z1": (-2, 2), "z2": (-2, 2)}
        first = apply_chain(chain, S((1,)), win)
        want = ref_apply_chain(chain, S((1,)), win)
        assert first == want
        for val in first.values():
            val.c[(7,)] = 3
            val.c.pop(next(iter(val.c)))
        assert apply_chain(chain, S((1,)), win) == want
        value = vertex_string((2,), (2, 1))
        value.c.clear()
        assert vertex_string((2,), (2, 1)) == pi_schur((2,), (2, 1))

    def test_string_chain_is_new_on_every_call(self):
        a, b = string_chain((2,), (False,)), string_chain((2,), (False,))
        assert a is not b and a.factors is not b.factors
        assert all(x is not y for x, y in zip(a.factors, b.factors))
        a.factors.clear()
        assert chain_summary(string_chain((2,), (False,))) == \
            chain_summary(b)


class TestVertexString:
    def test_too_tall_to_fit(self):
        assert vertex_string((3,), (2, 1)) == S((2, 1))

    @given(st.sampled_from(partitions_up_to(3)[1:]))
    def test_empty_label(self, pi):
        assert vertex_string(pi, ()) == ONE
        assert vertex_string(pi, (), dual=True) == ONE

    def test_dual_column_two(self):
        assert vertex_string((2,), (1, 1), dual=True) == S((2,)) - ONE

    def test_vertex_budget(self):
        # DEFAULT_STRING_BOUND vertices run; one more is refused
        lam = (1,) * DEFAULT_STRING_BOUND
        for pi in ((1,), (2,)):
            assert vertex_string(pi, lam) == pi_schur(pi, lam)
            assert vertex_string(pi, lam, dual=True) == dual_pi_schur(pi, lam)
            # refused on every call, not only before a chain is kept
            for dual in (False, True, False, True):
                with pytest.raises(ValueError, match="exceeds the bound"):
                    vertex_string(pi, lam + (1,), dual=dual)

    def test_batch_equals_each_label(self):
        # mixed lengths, (), a repeat, and lengths sharing one box; the
        # sparse box of length 3 is split by last parts, then by middle
        # parts.  No label reads 0, as each value is s_lam plus lower terms
        lams = [(2, 1), (), (3,), (1, 1, 1), (1,), (2, 2), (), (4, 1, 1),
                (1, 1), (5, 1), (3, 3), (4, 2, 2), (5, 3, 1), (5, 1, 1)]
        for pi in ((2,), (2, 1), (1, 1, 1)):
            for dual in (False, True):
                got = vertex_strings(pi, lams, dual)
                assert got == {lam: vertex_string(pi, lam, dual)
                               for lam in lams}, (pi, dual)


@pytest.mark.parametrize("call", [
    lambda: vertex_strings((2,), [(2, 1), (3,), (1,), ()]),
    lambda: mode((2, 1), "X", -1, ChargedState({0: S((1,)), 1: S((2,))})).c,
    lambda: anticommutator((2,), "X", 1, "Xstar", -1,
                           ChargedState({0: S((1,)), -1: S((2, 1))})).c,
], ids=["vertex_strings", "mode", "anticommutator"])
def test_mutated_result_leaves_the_next_call_unchanged(call):
    first = call()
    want = {k: dict(v.c) for k, v in first.items()}
    assert all(want.values())
    for val in first.values():
        val.c.clear()
        val.c[(7,)] = 3
    first.clear()
    assert {k: dict(v.c) for k, v in call().items()} == want


class TestZeroModes:
    def test_two_creations(self):
        got = zero_mode_normal_form(creation_zero_word("z")
                                    + creation_zero_word("w"))
        assert got == ZeroModeNormalForm(prefactor=(("w", -2), ("z", -1)),
                                         alpha=(("w", 1), ("z", 1)),
                                         shift=2)

    def test_two_annihilations(self):
        got = zero_mode_normal_form(annihilation_zero_word("z")
                                    + annihilation_zero_word("w"))
        assert got == ZeroModeNormalForm(prefactor=(("w", -1),),
                                         alpha=(("w", -1), ("z", -1)),
                                         shift=-2)

    def test_empty_word(self):
        assert zero_mode_normal_form([]) == ZeroModeNormalForm((), (), 0)

    def test_concrete_charge_action(self):
        nf = zero_mode_normal_form(creation_zero_word("z")
                                   + creation_zero_word("w"))
        # on charge c the pair reads w^c z^(c+1) and lands at charge c+2
        assert nf.exponents_at(0) == ({"z": 1}, 2)
        assert nf.exponents_at(2) == ({"w": 2, "z": 3}, 4)
        assert nf.exponents_at(-1) == ({"w": -1}, 1)


# NormalProduct.apply as it ran before its prefactors became chain
# factors: the chain on a window padded by the prefactors' reach, each
# (1 - x^exps)^power multiplied out, then the window cut back; kept as a
# reference


def ref_multiply_one_minus_monomial(coeffs, exps, times):
    out = coeffs
    for _ in range(times):
        data = {}
        for e, v in out.items():
            data[e] = data.get(e, 0) + v
            shifted = tuple(x + y for x, y in zip(e, exps))
            data[shifted] = data.get(shifted, 0) + (-v)
        out = {e: v for e, v in data.items() if v}
    return out


def ref_restrict(coeffs, varnames, window):
    w = normalize_window(window, varnames)
    return {e: v for e, v in coeffs.items()
            if all(w[varnames[i]][0] <= e[i] <= w[varnames[i]][1]
                   for i in range(len(varnames)))}


def ref_normal_apply(npd, state, window):
    w = normalize_window(window, npd.vars)
    pad_lo = {v: 0 for v in npd.vars}
    pad_hi = {v: 0 for v in npd.vars}
    for exps, power in npd.prefactors:
        if power < 0:
            raise ValueError("inverse prefactor cannot be expanded on a "
                             "window; cross-multiply instead")
        for v, e in zip(npd.vars, exps):
            if e > 0:
                pad_lo[v] += power * e
            else:
                pad_hi[v] += power * (-e)
    wide = {v: (w[v][0] - pad_lo[v], w[v][1] + pad_hi[v]) for v in npd.vars}
    res = apply_chain(npd.chain, state, wide)
    for exps, power in npd.prefactors:
        res = ref_multiply_one_minus_monomial(res, exps, power)
    return ref_restrict(res, npd.vars, w)


class TestPrefactorFactors:
    @pytest.mark.parametrize("pi", [(2,), (2, 1)])
    def test_multivertex_range(self, pi):
        for m in (2, 3):
            for dual in (False, True):
                npd = normal_ordered_string(pi, (dual,) * m)
                win = {v: (-3, 3) for v in npd.vars}
                for f in (ONE, S((1,))):
                    got = npd.apply(f, win)
                    assert got == ref_normal_apply(npd, f, win), (m, dual)
                    assert got

    def test_power_two_prefactor(self):
        npd0 = normal_ordered_string((2,), (False, False))
        for prefactors in ([((-1, 1), 2)], [((-1, 1), 2), ((1, 0), 1)],
                           [((0, 1), 2), ((-1, 1), 1)]):
            npd = NormalProduct(npd0.vars, prefactors, npd0.chain)
            for f in (ONE, S((1,)), S((2, 1))):
                for win in ({"z1": (-2, 2), "z2": (-2, 2)},
                            {"z1": (-1, 3), "z2": (0, 2)}):
                    assert npd.apply(f, win) == ref_normal_apply(npd, f, win), \
                        (prefactors, f, win)


class TestNormalOrdering:
    def test_like_kind_prefactor(self):
        npd = normal_ordered_string((2,), (False, False))
        assert tuple(npd.prefactors) == (((-1, 1), 1),)
        assert repr(npd.chain.factors[0]) == "Factor(M(z1))"

    def test_mixed_pair_has_symbolic_inverse(self):
        npd = normal_ordered_string((2,), (False, True))
        assert tuple(npd.prefactors) == (((-1, 1), -1),)
        with pytest.raises(ValueError):
            npd.apply(ONE, {"z1": (-1, 1), "z2": (-1, 1)})

    def test_mixed_kinds_beyond_a_pair_refused(self):
        with pytest.raises(ValueError):
            normal_ordered_string((2,), (False, True, False))

    def test_like_kind_product_matches_direct_chain(self):
        for pi in ((), (2,), (1, 1)):
            for dual in (False, True):
                win = {"z1": (-2, 2), "z2": (-2, 2)}
                lhs = apply_chain(string_chain(pi, (dual, dual)), S((1,)),
                                  win)
                rhs = normal_ordered_string(pi, (dual, dual)).apply(
                    S((1,)), win)
                assert lhs == rhs, (pi, dual)

    def test_mixed_pair_cross_multiplied(self):
        for pi, duals in (((2,), (False, True)), ((2,), (True, False)),
                          ((2, 1), (False, True))):
            vs = ("z1", "z2")
            win = normalize_window({"z1": (-2, 2), "z2": (-2, 2)}, vs)
            f = S((1,))
            chain = string_chain(pi, duals)
            chain.factors.insert(0, make_factor("multiply", "L", ONE,
                                                (-1, 1), vs))
            lhs = apply_chain(chain, f, win)
            npd = normal_ordered_string(pi, duals)
            rhs = apply_chain(npd.chain, f, win)
            assert lhs == rhs, (pi, duals)


class TestLaurentAndStates:
    def test_normalize_window_forms(self):
        vs = ("z", "w")
        assert normalize_window({"z": (1, 2), "w": (-1, 0)}, vs) == \
            {"z": (1, 2), "w": (-1, 0)}
        with pytest.raises(ValueError, match="missing variable 'w'"):
            normalize_window({"z": (0, 3)}, vs)

    @pytest.mark.parametrize("ends", [(1.9, 1.9), (True, 2), (0, 2.0),
                                      (Fraction(1), 2), (0, "2")])
    def test_non_int_window_ends_are_refused(self, ends):
        with pytest.raises(ValueError, match="ends for 'w' must be integers"):
            normalize_window({"z": (0, 1), "w": ends}, ("z", "w"))
        with pytest.raises(ValueError, match="ends for 'z1' must be integers"):
            apply_chain(string_chain((2,), (False,)), S((1,)), {"z1": ends})

    def test_one_minus_monomial(self):
        # (1 - x)^c is the column series of the constant c
        for c in range(5):
            for r in range(6):
                assert series_term("L", SymFunc({(): c}), r) == \
                    SymFunc({(): (-1) ** r * comb(c, r)}), (c, r)

    def test_charged_state_algebra(self):
        a = ChargedState({0: ONE, 2: S((1,))})
        b = ChargedState({0: -ONE})
        assert (a + b) == ChargedState({2: S((1,))})
        assert a.scale(0) == ChargedState()
        assert a.shift_charge(3) == ChargedState({3: ONE, 5: S((1,))})
        assert not ChargedState()
        assert a.degree() == 1

    def test_state_constructor_checks_and_coerces(self):
        with pytest.raises(ValueError):
            ChargedState({0: {(1, 2): 1}})
        zero = ChargedState({0: {(1,): 0}})
        assert not zero and zero.c == {}
        with pytest.raises(TypeError):
            ChargedState({0: ONE}) + ONE

    @given(STATES, STATES, st.sampled_from([0, 2, -1, Fraction(1, 2)]),
           st.integers(-2, 2))
    def test_state_is_sector_by_sector(self, a, b, k, shift):
        def by_sector(op, *states):
            charges = set().union(*(s.c for s in states))
            got = {c: op(*(s.c.get(c, SymFunc.zero())
                           for s in states)) for c in charges}
            return {c: f for c, f in got.items() if f}

        assert (a + b).c == by_sector(lambda f, g: f + g, a, b)
        assert (a - b).c == by_sector(lambda f, g: f - g, a, b)
        assert (-a).c == by_sector(lambda f: -f, a)
        assert a.scale(k).c == by_sector(lambda f: f.scale(k), a)
        assert a.shift_charge(shift).c == \
            {c + shift: f for c, f in a.c.items()}
        for zero in (a - a, a + (-a), a.scale(0)):
            assert not zero and zero.c == {}
            assert zero == ChargedState()

    def test_factor_term_grading(self):
        vs = ("z", "w")
        f = make_factor("multiply", "M", S((2,)), (1, 0), vs)
        for r in range(4):
            val = series_term(f.family, f.shape, r)
            assert {weight(lam) for lam in val.c} == {2 * r}
        g = make_factor("skew", "L", S((1, 1)), (0, 2), vs)
        assert series_term(g.family, g.shape, 3).degree() == 6
