from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symvertex import schurring
from symvertex.oracle import oracle_product
from symvertex.partitions import (conjugate, contains, partition,
                                  partitions_of, partitions_up_to, weight)
from symvertex.schurring import (PowerExpr, SymFunc, border_strips,
                                 centralizer_order, charvalue,
                                 format_symfunc, from_power, pieri_col,
                                 pieri_row, product_schur_pair,
                                 skew_schur_pair, to_power)

S = SymFunc.schur


def small_partitions(max_weight):
    return st.sampled_from(partitions_up_to(max_weight))


def symfunc_strategy(max_weight=4, max_terms=3):
    coeff = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-2, max_value=2,
                                   max_denominator=3))
    term = st.tuples(small_partitions(max_weight), coeff)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((S(p).scale(c) for p, c in ts), SymFunc.zero()))


class TestProduct:
    def test_square_of_single_box(self):
        assert S((1,)) * S((1,)) == S((2,)) + S((1, 1))

    def test_row_times_box(self):
        assert S((2,)) * S((1,)) == S((3,)) + S((2, 1))

    @given(small_partitions(6))
    def test_unit(self, lam):
        assert S(lam) * SymFunc.one() == S(lam)

    @given(small_partitions(4), small_partitions(4))
    def test_commutative(self, mu, nu):
        assert S(mu) * S(nu) == S(nu) * S(mu)

    @given(small_partitions(3), small_partitions(3), small_partitions(2))
    def test_associative(self, a, b, c):
        assert (S(a) * S(b)) * S(c) == S(a) * (S(b) * S(c))

    def test_structure_constants_nonnegative_integers(self):
        for mu in partitions_up_to(4):
            for nu in partitions_up_to(4):
                for lam, c in (S(mu) * S(nu)).terms():
                    assert isinstance(c, int) and c > 0

    def test_matches_monomial_oracle_combined_weight_eight(self):
        for a in range(1, 8):
            for b in range(1, 9 - a):
                for mu in partitions_of(a):
                    for nu in partitions_of(b):
                        assert S(mu) * S(nu) == oracle_product(mu, nu), \
                            (mu, nu)

    def test_matches_monomial_oracle_twelve_variables(self):
        mu = (1, 1, 1, 1, 1, 1)
        assert S(mu) * S(mu) == oracle_product(mu, mu)


class TestSkew:
    def test_single_box_of_hook(self):
        assert S((2, 1)).skew_by((1,)) == S((2,)) + S((1, 1))

    @given(small_partitions(6))
    def test_unit_acts_as_identity(self, lam):
        assert S(lam).skew_by(()) == S(lam)

    def test_noncontained_gives_zero(self):
        assert S((1,)).skew_by((2,)) == SymFunc.zero()

    @given(small_partitions(4), small_partitions(3), small_partitions(3))
    def test_adjoint_of_multiplication(self, lam, mu, nu):
        lhs = S(lam).skew_by(mu).inner(S(nu))
        rhs = S(lam).inner(S(mu) * S(nu))
        assert lhs == rhs

    @given(symfunc_strategy(), symfunc_strategy(max_weight=2))
    def test_bilinear(self, f, g):
        h = S((2, 1)) + S((3,))
        assert (f + h).skew_by(g) == f.skew_by(g) + h.skew_by(g)


class TestInner:
    def test_orthonormal(self):
        assert S((2, 1)).inner(S((2, 1))) == 1
        assert S((2,)).inner(S((1, 1))) == 0

    def test_power_sum_norm(self):
        p11 = from_power(PowerExpr({(1, 1): 1}))
        assert p11.inner(p11) == 2

    def test_power_sum_orthogonality(self):
        # <p_rho, p_tau> = z_rho if rho == tau else 0, through the Schur
        # expansions of the power sums
        for rho in partitions_of(4):
            for tau in partitions_of(4):
                got = from_power(PowerExpr({rho: 1})).inner(
                    from_power(PowerExpr({tau: 1})))
                assert got == (centralizer_order(rho) if rho == tau else 0)


class TestPowerBasis:
    def test_single_box(self):
        assert to_power(S((1,))) == PowerExpr({(1,): 1})

    def test_weight_two(self):
        half = Fraction(1, 2)
        assert to_power(S((2,))) == PowerExpr({(1, 1): half, (2,): half})
        assert to_power(S((1, 1))) == PowerExpr({(1, 1): half, (2,): -half})

    def test_roundtrip_through_weight_ten(self):
        for lam in partitions_up_to(10):
            assert from_power(to_power(S(lam))) == S(lam)

    @given(symfunc_strategy())
    def test_roundtrip_rational_combinations(self, f):
        assert from_power(to_power(f)) == f


def merge_product(x, y):
    """Reference for PowerExpr.__mul__: one sorted merge of the indexing
    partitions per term pair."""
    d = {}
    for rho, a in x.c.items():
        for tau, b in y.c.items():
            kappa = tuple(sorted(rho + tau, reverse=True))
            d[kappa] = d.get(kappa, 0) + a * b
    return PowerExpr._new(d)


def power_strategy(coeff):
    return st.dictionaries(small_partitions(4), coeff,
                           max_size=4).map(PowerExpr)


INTS = st.integers(-5, 5)
RATIONALS = st.one_of(INTS, st.fractions(min_value=-3, max_value=3,
                                         max_denominator=4))


def typed(expr):
    return {k: (type(v), v) for k, v in expr.c.items()}


class TestPowerMulInto:
    """PowerExpr.__mul__ against merge_product."""

    @given(power_strategy(INTS), power_strategy(INTS), INTS)
    def test_int_inputs_give_ints(self, x, y, c):
        assert all(type(v) is int for v in (x.scale(c) * y).c.values())

    @given(power_strategy(RATIONALS), power_strategy(RATIONALS))
    def test_product_is_the_old_body(self, x, y):
        assert typed(x * y) == typed(merge_product(x, y))

    def test_integral_fractions_come_out_as_before(self):
        x = PowerExpr({(1,): Fraction(3, 4), (2,): Fraction(1, 2)})
        y = PowerExpr({(1,): 4, (): Fraction(2, 3)})
        c = Fraction(2, 3)
        got = x.scale(c) * y
        assert typed(got) == typed(merge_product(x.scale(c), y))
        assert typed(x * y) == typed(merge_product(x, y))
        # (3/4)(2/3)*4 = 2 and (1/2)(2/3)*4 = 4/3 become an int and a Fraction
        assert typed(got)[(1, 1)] == (int, 2)
        assert typed(got)[(2, 1)] == (Fraction, Fraction(4, 3))


def character_row(rho):
    """{lam: chi^lam(rho)} over the nonzero characters of class rho."""
    row = {lam: charvalue(lam, rho) for lam in partitions_of(weight(rho))}
    return {lam: c for lam, c in row.items() if c}


class TestFromPower:
    """The border-strip route from power sums to Schur functions."""

    def test_small_cases_by_hand(self):
        assert from_power(PowerExpr({(1, 1): 1})) == S((2,)) + S((1, 1))
        assert from_power(PowerExpr({(2,): 1})) == S((2,)) - S((1, 1))
        assert from_power(PowerExpr({(3,): 1})) == \
            S((3,)) - S((2, 1)) + S((1, 1, 1))
        assert from_power(PowerExpr({(2, 1): 1})) == S((3,)) - S((1, 1, 1))

    def test_single_power_sums_match_characters_to_weight_ten(self):
        for rho in partitions_up_to(10):
            assert dict(from_power(PowerExpr({rho: 1})).c) == \
                character_row(rho), rho

    def test_mixed_weights_fractions_and_constant(self):
        expr = PowerExpr({(): Fraction(3, 2), (1,): 2,
                          (2, 1): Fraction(1, 3), (1, 1, 1): Fraction(-1, 6),
                          (4,): Fraction(5, 4), (2, 2): Fraction(-7, 12)})
        want = SymFunc.zero()
        for rho, a in expr.c.items():
            want = want + SymFunc(character_row(rho)).scale(a)
        got = from_power(expr)
        assert got == want
        assert got.coeff(()) == Fraction(3, 2)
        assert from_power(PowerExpr({(): 7})) == SymFunc.one().scale(7)

    def test_zero_expression(self):
        assert from_power(PowerExpr()) == SymFunc.zero()

    def test_single_box_strips_are_pieri(self):
        for lam in partitions_up_to(8):
            assert sorted(border_strips(lam, 1)) == \
                sorted((nu, 1) for nu in pieri_row(lam, 1)), lam
            assert sorted(border_strips(lam, -1)) == \
                sorted((nu, 1) for nu in pieri_row(lam, -1)), lam

    @given(symfunc_strategy(max_weight=8, max_terms=4))
    def test_roundtrip_inhomogeneous_to_weight_eight(self, f):
        assert from_power(to_power(f)) == f


class TestOmega:
    def test_row_to_column(self):
        assert S((2,)).omega() == S((1, 1))

    def test_self_conjugate_fixed(self):
        assert S((2, 2)).omega() == S((2, 2))

    def test_linear(self):
        f = S((3,)) + S((2, 1)).scale(2)
        assert f.omega() == S((1, 1, 1)) + S((2, 1)).scale(2)

    def test_ring_homomorphism_degree_six(self):
        for mu in partitions_up_to(3):
            for nu in partitions_up_to(3):
                assert (S(mu) * S(nu)).omega() == \
                    S(mu).omega() * S(nu).omega()


# the two horizontal-strip enumerators as they ran before pieri_row took
# a signed size, kept as references


def ref_pieri_row(lam, k):
    n = len(lam)
    out = []

    def rec(i, rem, prefix):
        low = lam[i] if i < n else 0
        cap = lam[i - 1] if i >= 1 else low + rem
        hi = min(cap, low + rem)
        for v in range(hi, low - 1, -1):
            nxt = prefix + [v]
            left = rem - (v - low)
            if i == n:
                if left == 0:
                    out.append(partition(nxt))
            else:
                rec(i + 1, left, nxt)

    if k == 0:
        return [partition(lam)]
    rec(0, k, [])
    return out


def ref_pieri_row_down(lam, k):
    n = len(lam)
    out = []

    def rec(i, rem, prefix):
        if rem < 0:
            return
        if i == n:
            if rem == 0:
                out.append(partition(prefix))
            return
        low = lam[i + 1] if i + 1 < n else 0
        for v in range(lam[i], low - 1, -1):
            rec(i + 1, rem - (lam[i] - v), prefix + [v])

    if k == 0:
        return [partition(lam)]
    rec(0, k, [])
    return out


def ref_strips(lam, k):
    return (ref_pieri_row(lam, k) if k >= 0
            else ref_pieri_row_down(lam, -k))


class TestSignedPieri:
    def test_matches_both_old_enumerators(self):
        for lam in partitions_up_to(10):
            for k in range(-6, 7):
                assert set(pieri_row(lam, k)) == set(ref_strips(lam, k)), \
                    (lam, k)
                assert set(pieri_col(lam, k)) == {
                    conjugate(nu)
                    for nu in ref_strips(conjugate(lam), k)}, (lam, k)


class TestLittlewoodRichardson:
    def test_coefficient_symmetries_weight_eight(self):
        pairs = [(mu, nu)
                 for a in range(1, 8) for b in range(1, 9 - a)
                 for mu in partitions_of(a) for nu in partitions_of(b)]
        for mu, nu in pairs:
            prod = S(mu) * S(nu)
            assert prod == S(nu) * S(mu)
            for lam, c in prod.terms():
                assert product_schur_pair(conjugate(mu), conjugate(nu)).get(
                    conjugate(lam), 0) == c

    def test_fixed_outer_count_weight_eight(self):
        # the kernel given both content and outer shape counts the one
        # coefficient; lam runs over every weight up to 8, so most lam do
        # not contain mu or nu or have the wrong weight
        def count(mu, nu, lam):
            return schurring._lr_tableaux(mu, nu, lam).get(lam, 0)

        lams = partitions_up_to(8)
        for a in range(1, 8):
            for b in range(1, 9 - a):
                for mu in partitions_of(a):
                    for nu in partitions_of(b):
                        prod = product_schur_pair(mu, nu)
                        for lam in lams:
                            c = count(mu, nu, lam)
                            assert c == prod.get(lam, 0), (mu, nu, lam)
                            assert c == count(conjugate(mu), conjugate(nu),
                                              conjugate(lam)), (mu, nu, lam)


@lru_cache(maxsize=None)
def character_contraction(mu, nu):
    """{lam: c} with c = sum over classes rho of |mu| and tau of |nu| of
    chi^mu(rho) chi^nu(tau) chi^lam(rho + tau) / (z_rho z_tau), kept in
    integers by scaling with |mu|! |nu|!."""
    a, b = weight(mu), weight(nu)
    scaled = {}
    for rho in partitions_of(a):
        wr = charvalue(mu, rho) * (factorial(a) // centralizer_order(rho))
        for tau in partitions_of(b):
            w = wr * charvalue(nu, tau) * (factorial(b)
                                           // centralizer_order(tau))
            if w:
                kappa = tuple(sorted(rho + tau, reverse=True))
                scaled[kappa] = scaled.get(kappa, 0) + w
    out = {}
    for lam in partitions_of(a + b):
        c, r = divmod(sum(w * charvalue(lam, kappa)
                          for kappa, w in scaled.items()),
                      factorial(a) * factorial(b))
        assert r == 0, (mu, nu, lam)
        if c:
            out[lam] = c
    return out


class TestTableauKernel:
    """Products and skews against an independent character contraction,
    the monomial oracle and each other."""

    def test_products_match_characters_to_weight_ten(self):
        for a in range(11):
            for b in range(11 - a):
                for mu in partitions_of(a):
                    for nu in partitions_of(b):
                        assert dict(product_schur_pair(mu, nu)) == \
                            character_contraction(mu, nu), (mu, nu)

    def test_skews_match_characters_to_weight_ten(self):
        for lam in partitions_up_to(10):
            for mu in partitions_up_to(weight(lam)):
                want = {}
                for nu in partitions_of(weight(lam) - weight(mu)):
                    c = character_contraction(mu, nu).get(lam, 0)
                    if c:
                        want[nu] = c
                assert dict(skew_schur_pair(mu, lam)) == want, (mu, lam)

    @pytest.mark.parametrize("mu,nu", [((4, 2, 1), (3, 2, 2)),
                                       ((3, 2, 2, 1), (3, 3, 2))])
    def test_heavy_products_match_monomial_oracle(self, mu, nu):
        assert S(mu) * S(nu) == oracle_product(mu, nu)

    @given(st.data())
    def test_skew_is_adjoint_to_product_to_weight_twelve(self, data):
        lam = data.draw(st.sampled_from(partitions_up_to(12)))
        mu = data.draw(st.sampled_from(
            [m for m in partitions_up_to(weight(lam)) if contains(lam, m)]))
        skew = skew_schur_pair(mu, lam)
        for nu in partitions_of(weight(lam) - weight(mu)):
            assert product_schur_pair(mu, nu).get(lam, 0) == \
                skew.get(nu, 0), (lam, mu, nu)

    @pytest.mark.parametrize("call,args", [
        (product_schur_pair, ((3, 2), (2, 1))),
        (product_schur_pair, ((2, 1), (3,))),
        (product_schur_pair, ((1, 1), (2, 1))),
        (product_schur_pair, ((), (2, 1))),
        (skew_schur_pair, ((2, 1), (4, 3, 1))),
        (skew_schur_pair, ((2,), (3, 1))),
        (skew_schur_pair, ((1, 1), (3, 1))),
        (skew_schur_pair, ((), (2, 1))),
        (skew_schur_pair, ((3,), (2, 1)))])
    def test_results_are_read_only(self, call, args):
        first = call(*args)
        want = dict(first)
        with pytest.raises(TypeError):
            first[(9,)] = 1
        for key in want:
            with pytest.raises(TypeError):
                del first[key]
        assert dict(call(*args)) == want


class TestSymFuncValue:
    def test_no_zero_coefficients_stored(self):
        f = S((2,)) - S((2,))
        assert not f
        assert dict(f.terms()) == {}

    @given(symfunc_strategy(), symfunc_strategy())
    def test_addition_abelian(self, f, g):
        assert f + g == g + f
        assert f - f == SymFunc.zero()

    @given(symfunc_strategy())
    def test_zero_is_a_left_identity(self, f):
        assert 0 + f == f
        assert sum([f, f]) == f.scale(2)

    @pytest.mark.parametrize("cls", [SymFunc, PowerExpr])
    def test_public_constructor_checks_keys(self, cls):
        with pytest.raises(ValueError):
            cls({(1, 2): 1})
        assert cls({(2, 0): 1}) == cls({(2,): 1})

    @pytest.mark.parametrize("cls", [SymFunc, PowerExpr])
    def test_kernel_constructor_normalizes(self, cls):
        for f in (cls._new({(2,): Fraction(4, 2), (1,): 0}),
                  cls({(2,): Fraction(4, 2), (1,): 0})):
            assert f.c == {(2,): 2}
            assert type(f.c[(2,)]) is int
        assert not cls._new({(1,): Fraction(0)})

    def test_bases_do_not_mix(self):
        with pytest.raises(TypeError):
            S((2,)) + PowerExpr({(2,): 1})
        with pytest.raises(TypeError):
            S((2,)) + 1

    def test_integral_fraction_prints_as_int(self):
        half = S((1,)).scale(Fraction(1, 2))
        assert format_symfunc(half.scale(4)) == "2*s[1]"
        assert format_symfunc(half + half + half + half) == "2*s[1]"
