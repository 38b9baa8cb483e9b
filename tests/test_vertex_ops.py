from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symvertex.partitions import partitions_up_to, weight
from symvertex.schurring import SymFunc
from symvertex.vertexops import (ChargedState, FactorChain, LaurentMap,
                                 ZeroModeNormalForm, _embed_chain,
                                 _mode_memo, _stage_memo, _straighten,
                                 _vertex_coefficient,
                                 annihilation_zero_word, anticommutator,
                                 apply_chain, build_dual_vertex,
                                 build_vertex, creation_zero_word,
                                 make_factor, mode,
                                 multiply_one_minus_monomial,
                                 normal_ordered_pair, normal_ordered_string,
                                 normalize_window, string_chain,
                                 vertex_string, zero_mode_normal_form)

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
        got = chain_summary(build_vertex((3,)))
        assert got == [
            ("multiply", "M", {(1,): 1}, (1,)),
            ("skew", "L", {(1,): 1}, (-1,)),
            ("skew", "L", {(2,): 1}, (1,)),
            ("skew", "L", {(1,): 1}, (2,)),
            ("skew", "L", {(): 1}, (3,)),
        ]

    def test_creation_empty_shape_is_classical(self):
        got = chain_summary(build_vertex(()))
        assert got == [("multiply", "M", {(1,): 1}, (1,)),
                       ("skew", "L", {(1,): 1}, (-1,))]

    def test_creation_hook(self):
        got = chain_summary(build_vertex((2, 1)))
        assert got == [
            ("multiply", "M", {(1,): 1}, (1,)),
            ("skew", "L", {(1,): 1}, (-1,)),
            ("skew", "L", {(2,): 1, (1, 1): 1}, (1,)),
            ("skew", "L", {(1,): 1}, (2,)),
        ]

    def test_annihilation_row_three(self):
        got = chain_summary(build_dual_vertex((3,)))
        assert got == [
            ("multiply", "L", {(1,): 1}, (1,)),
            ("skew", "M", {(1,): 1}, (-1,)),
            ("skew", "M", {(2,): 1}, (1,)),
        ]

    def test_annihilation_empty_shape(self):
        got = chain_summary(build_dual_vertex(()))
        assert got == [("multiply", "L", {(1,): 1}, (1,)),
                       ("skew", "M", {(1,): 1}, (-1,))]

    def test_annihilation_column_two(self):
        got = chain_summary(build_dual_vertex((1, 1)))
        assert got == [
            ("multiply", "L", {(1,): 1}, (1,)),
            ("skew", "M", {(1,): 1}, (-1,)),
            ("skew", "M", {(1,): 1}, (1,)),
            ("skew", "L", {(): 1}, (2,)),
        ]


class TestApplyChain:
    def test_row_series_on_vacuum(self):
        got = apply_chain(build_vertex(()), ONE, {"z": (0, 3)})
        for a in range(4):
            assert got.get((a,)) == S((a,) if a else ())

    def test_identity_chain(self):
        chain = FactorChain(("z",), [])
        got = apply_chain(chain, S((2, 1)), {"z": (-2, 2)})
        assert got.get((0,)) == S((2, 1))
        assert all(e == (0,) for e, _ in got.items())

    def test_row_three_cube_coefficient(self):
        got = apply_chain(build_vertex((3,)), ONE, {"z": (3, 3)})
        assert got.get((3,)) == S((3,)) - ONE

    def test_window_enlargement_is_invisible(self):
        for chain in (build_vertex((2,)), build_dual_vertex((2, 1)),
                      string_chain((2,), 2)):
            nv = len(chain.vars)
            small = {v: (-2, 2) for v in chain.vars}
            big = {v: (-4, 4) for v in chain.vars}
            f = S((2, 1))
            a = apply_chain(chain, f, small)
            b = apply_chain(chain, f, big).restrict(
                normalize_window(small, chain.vars))
            assert a == b

    @given(st.sampled_from(partitions_up_to(4)))
    def test_classical_pair_annihilates_positive_modes(self, lam):
        got = apply_chain(build_vertex(()), S(lam), {"z": (-6, -1)})
        # coefficients below degree -|lam| must vanish
        for (a,), v in got.items():
            assert a >= -weight(lam)


class TestModes:
    def test_zero_mode_on_vacuum(self):
        got = mode((), "X", 0, ChargedState.vacuum(0, ONE))
        assert got == ChargedState({1: ONE})

    def test_negative_mode_creates_row(self):
        got = mode((), "X", -2, ChargedState.vacuum(0, ONE))
        assert got == ChargedState({1: S((2,))})

    def test_positive_mode_kills_vacuum(self):
        got = mode((), "X", 1, ChargedState.vacuum(0, ONE))
        assert got == ChargedState()

    def test_kind_spellings(self):
        st0 = ChargedState.vacuum(0, S((1,)))
        assert mode((2,), "Xstar", 0, st0) == mode((2,), "X*", 0, st0)

    def test_linearity_over_sectors(self):
        st0 = ChargedState({0: ONE, 1: S((1,))})
        got = mode((), "X", 0, st0)
        a = mode((), "X", 0, ChargedState.vacuum(0, ONE))
        b = mode((), "X", 0, ChargedState.vacuum(1, S((1,))))
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
            for c, f in state.sectors.items():
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
                        st0 = ChargedState.vacuum(c, S(lam))
                        assert post_shift_mode(kind, m, st0) == \
                            mode(pi, kind, m + 1, st0)


def chain_coefficient(pi, dual, j, lam):
    """The z^j coefficient of the vertex operator on s_lam by running the
    whole chain: the production route before Bernstein straightening,
    kept as the reference."""
    res = apply_chain(build_vertex(pi, dual=dual), S(lam), {"z": (j, j)})
    val = res.get((j,))
    return val if val is not None else SymFunc.zero()


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
                    val = mode(pi, "Xstar", m, ChargedState.vacuum(c, S(lam)))
                    want = chain_coefficient(pi, True, c - 1 - m, lam)
                    assert val == ChargedState({c - 1: want}), (m, c, lam)
                    assert _stage_memo[pi, True, lam][1] == len(pi)


class TestAnticommutator:
    def test_delta_pairing(self):
        st0 = ChargedState.vacuum(0, S((1,)))
        got = anticommutator((3,), "X", 1, "Xstar", -1, st0)
        assert got == st0

    def test_like_kinds_vanish(self):
        st0 = ChargedState.vacuum(0, S((2, 1)))
        assert anticommutator((2,), "X", -1, "X", 2, st0) == ChargedState()

    def test_mixed_kinds_off_diagonal_vanish(self):
        st0 = ChargedState.vacuum(0, S((2,)))
        got = anticommutator((2,), "X", 2, "Xstar", -1, st0)
        assert got == ChargedState()

    def test_mismatched_shapes_rejected(self):
        st0 = ChargedState.vacuum(0, ONE)
        with pytest.raises(ValueError):
            anticommutator((2,), "X", 0, "Xstar", 0, st0, pi_b=(1, 1))
        got = anticommutator((2,), "X", 0, "Xstar", 0, st0, pi_b=(2,))
        assert got == st0


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
        with pytest.raises(ValueError):
            vertex_string((2,), (1, 1, 1, 1, 1))


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


class TestNormalOrdering:
    def test_like_kinds_route_through_string_form(self):
        npd = normal_ordered_pair((2, 1), ("X", "X"), ("z", "w"))
        direct = normal_ordered_string((2, 1), 2, varnames=("z", "w"))
        assert tuple(npd.prefactors) == tuple(direct.prefactors)
        assert chain_summary(npd.chain) == chain_summary(direct.chain)

    def test_like_kind_prefactor(self):
        npd = normal_ordered_string((2,), 2, varnames=("z", "w"))
        assert tuple(npd.prefactors) == (((-1, 1), 1),)

    def test_mixed_pair_has_symbolic_inverse(self):
        npd = normal_ordered_pair((2,), ("X", "Xstar"))
        assert tuple(npd.prefactors) == (((-1, 1), -1),)
        with pytest.raises(ValueError):
            npd.apply(ONE, {"z": (-1, 1), "w": (-1, 1)})

    def test_like_kind_product_matches_direct_chain(self):
        for pi in ((), (2,), (1, 1)):
            for dual in (False, True):
                win = {"z1": (-2, 2), "z2": (-2, 2)}
                lhs = apply_chain(string_chain(pi, 2, dual=dual), S((1,)),
                                  win)
                rhs = normal_ordered_string(pi, 2, dual=dual).apply(
                    S((1,)), win)
                assert lhs == rhs, (pi, dual)

    def test_mixed_pair_cross_multiplied(self):
        for pi, kinds in (((2,), ("X", "Xstar")), ((2,), ("Xstar", "X")),
                          ((2, 1), ("X", "Xstar"))):
            vs = ("z", "w")
            first = build_dual_vertex(pi) if kinds[0] == "Xstar" \
                else build_vertex(pi)
            second = build_dual_vertex(pi) if kinds[1] == "Xstar" \
                else build_vertex(pi)
            lhs_chain = FactorChain(vs, _embed_chain(first, 0, vs)
                                    + _embed_chain(second, 1, vs))
            win = normalize_window({"z": (-2, 2), "w": (-2, 2)}, vs)
            pad = {"z": (-3, 3), "w": (-3, 3)}
            f = S((1,))
            lhs = apply_chain(lhs_chain, f, pad)
            lhs = multiply_one_minus_monomial(lhs, (-1, 1)).restrict(win)
            npd = normal_ordered_pair(pi, kinds, vs)
            rhs = apply_chain(npd.chain, f, win)
            assert lhs == rhs, (pi, kinds)


class TestLaurentAndStates:
    def test_normalize_window_forms(self):
        vs = ("z", "w")
        assert normalize_window(2, vs) == {"z": (-2, 2), "w": (-2, 2)}
        assert normalize_window((0, 3), vs) == {"z": (0, 3), "w": (0, 3)}
        assert normalize_window({"z": (1, 2), "w": (-1, 0)}, vs) == \
            {"z": (1, 2), "w": (-1, 0)}

    def test_one_minus_monomial(self):
        m = LaurentMap(("z",))
        m.data[(0,)] = ONE
        m.data[(1,)] = S((1,))
        got = multiply_one_minus_monomial(m, (1,))
        assert got.get((0,)) == ONE
        assert got.get((1,)) == S((1,)) - ONE
        assert got.get((2,)) == -S((1,))

    def test_charged_state_algebra(self):
        a = ChargedState({0: ONE, 2: S((1,))})
        b = ChargedState({0: -ONE})
        assert (a + b) == ChargedState({2: S((1,))})
        assert a.scale(0) == ChargedState()
        assert a.shift_charge(3) == ChargedState({3: ONE, 5: S((1,))})
        assert not ChargedState()
        assert a.degree() == 1

    def test_state_ring_action(self):
        a = ChargedState({1: S((2, 1))})
        assert a.skew_by(S((1,))) == ChargedState({1: S((2,)) + S((1, 1))})
        assert a * S((1,)) == ChargedState({1: S((2, 1)) * S((1,))})

    def test_state_constructor_checks_and_coerces(self):
        with pytest.raises(ValueError):
            ChargedState({0: {(1, 2): 1}})
        zero = ChargedState({0: {(1,): 0}})
        assert not zero and zero.sectors == {}
        with pytest.raises(TypeError):
            ChargedState.vacuum(0) + ONE

    @given(STATES, STATES, SMALL_SYMFUNCS,
           st.sampled_from([0, 2, -1, Fraction(1, 2)]), st.integers(-2, 2))
    def test_state_is_sector_by_sector(self, a, b, term, k, shift):
        def by_sector(op, *states):
            charges = set().union(*(s.sectors for s in states))
            got = {c: op(*(s.sectors.get(c, SymFunc.zero())
                           for s in states)) for c in charges}
            return {c: f for c, f in got.items() if f}

        assert (a + b).sectors == by_sector(lambda f, g: f + g, a, b)
        assert (a - b).sectors == by_sector(lambda f, g: f - g, a, b)
        assert (-a).sectors == by_sector(lambda f: -f, a)
        assert a.scale(k).sectors == by_sector(lambda f: f.scale(k), a)
        assert (a * term).sectors == by_sector(lambda f: f * term, a)
        assert a.skew_by(term).sectors == \
            by_sector(lambda f: f.skew_by(term), a)
        assert a.shift_charge(shift).sectors == \
            {c + shift: f for c, f in a.sectors.items()}
        for zero in (a - a, a + (-a), a.scale(0)):
            assert not zero and zero.sectors == {}
            assert zero == ChargedState()

    def test_factor_term_grading(self):
        vs = ("z", "w")
        f = make_factor("multiply", "M", S((2,)), (1, 0), vs)
        for r in range(4):
            val = f.term(r)
            assert {weight(lam) for lam in val.c} == {2 * r}
        g = make_factor("skew", "L", S((1, 1)), (0, 2), vs)
        assert g.term(3).degree() == 6
