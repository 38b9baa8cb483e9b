import pytest
from hypothesis import given
from hypothesis import strategies as st

from symvertex import schurring
from symvertex.partitions import (conjugate, partitions_of, partitions_up_to,
                                  weight)
from symvertex import plethysm as plethysm_module
from symvertex.plethysm import (cauchy_dual_pi_schur, cauchy_pi_schur,
                                dual_pi_schur, pi_branch, pi_schur,
                                pi_unbranch, plethysm, series_term)
from symvertex.schurring import SymFunc

S = SymFunc.schur

small_partitions = st.sampled_from(partitions_up_to(5))
nonempty_partitions = st.sampled_from(partitions_up_to(4)[1:])


class TestPlethysm:
    @given(small_partitions)
    def test_single_box_outer_is_identity(self, lam):
        g = S(lam) + SymFunc.one().scale(2)
        assert plethysm((1,), g) == g

    def test_row_in_row(self):
        assert plethysm((2,), S((2,))) == S((4,)) + S((2, 2))

    def test_column_in_row(self):
        assert plethysm((1, 1), S((2,))) == S((3, 1))

    @given(small_partitions)
    def test_single_box_inner_is_identity(self, mu):
        assert plethysm(mu, S((1,))) == S(mu)

    def test_constant_inner(self):
        # substituting a scalar: every power sum evaluates to the constant
        two = SymFunc.one().scale(2)
        assert plethysm((1,), two) == two
        assert plethysm((1, 1), two) == SymFunc.one()
        assert plethysm((2,), two) == SymFunc.one().scale(3)


class TestSeriesTerm:
    def test_column_series_of_constant_one(self):
        one = SymFunc.one()
        assert series_term("L", one, 0) == one
        assert series_term("L", one, 1) == -one
        assert series_term("L", one, 2) == SymFunc.zero()
        assert series_term("L", one, 5) == SymFunc.zero()

    def test_row_series_of_constant_one(self):
        one = SymFunc.one()
        for r in range(5):
            assert series_term("M", one, r) == one

    def test_row_series_linear_term(self):
        assert series_term("M", S((2,)), 1) == S((2,))

    @given(st.sampled_from(partitions_up_to(3)), st.integers(0, 0))
    def test_degree_zero_term(self, sigma, r):
        assert series_term("M", S(sigma), r) == SymFunc.one()
        assert series_term("L", S(sigma), r) == SymFunc.one()

    def test_term_grading(self):
        for sigma in ((1,), (2,), (2, 1)):
            for r in (1, 2, 3):
                val = series_term("M", S(sigma), r)
                assert {weight(lam) for lam in val.c} == {r * weight(sigma)}

    def test_skew_shape_expands_first(self):
        shape = S((2, 1)).skew_by((1,))
        assert series_term("M", shape, 1) == S((2,)) + S((1, 1))

    def test_noncontained_skew_collapses(self):
        shape = S((1,)).skew_by((2,))
        assert series_term("M", shape, 0) == SymFunc.one()
        for r in (1, 2, 3):
            assert series_term("M", shape, r) == SymFunc.zero()

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            series_term("Q", SymFunc.one(), 1)


    def test_result_is_read_only(self):
        first = series_term("L", S((2, 1)), 2)
        want = dict(first.c)
        with pytest.raises(TypeError):
            first.c[(9,)] = 1
        for key in want:
            with pytest.raises(TypeError):
                del first.c[key]
        assert first + S((1,)) - S((1,)) == first
        assert dict(series_term("L", S((2, 1)), 2).c) == want


class TestPiSchur:
    def test_row_two(self):
        assert pi_schur((2,), (2,)) == S((2,)) - SymFunc.one()

    @given(nonempty_partitions)
    def test_empty_label(self, pi):
        assert pi_schur(pi, ()) == SymFunc.one()

    def test_row_three_on_row_four(self):
        assert pi_schur((3,), (4,)) == S((4,)) - S((1,))

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            pi_schur((), (2,))
        with pytest.raises(ValueError):
            dual_pi_schur((), (2,))

    @given(nonempty_partitions, small_partitions)
    def test_leading_term(self, pi, lam):
        val = pi_schur(pi, lam)
        assert {mu: c for mu, c in val.c.items()
                if weight(mu) == weight(lam)} == {lam: 1}
        assert all((weight(lam) - weight(mu)) % weight(pi) == 0
                   for mu in val.c if weight(mu) < weight(lam))


class TestBranch:
    def test_row_two(self):
        assert pi_branch((2,), S((2,))) == S((2,)) + SymFunc.one()

    @given(nonempty_partitions)
    def test_degree_zero(self, pi):
        assert pi_branch(pi, SymFunc.one()) == SymFunc.one()

    def test_roundtrip_weight_eight(self):
        pis = [p for w in (1, 2, 3) for p in partitions_of(w)]
        for pi in pis:
            for lam in partitions_up_to(8):
                f = S(lam)
                assert pi_branch(pi, pi_unbranch(pi, f)) == f, (pi, lam)
                assert pi_unbranch(pi, pi_branch(pi, f)) == f, (pi, lam)


class TestDualPiSchur:
    def test_column_label(self):
        assert dual_pi_schur((2,), (1, 1)) == S((2,)) - SymFunc.one()

    @given(nonempty_partitions)
    def test_empty_label(self, pi):
        assert dual_pi_schur(pi, ()) == SymFunc.one()

    def test_odd_weight_sign(self):
        assert dual_pi_schur((3,), (1,)) == -S((1,))

    @given(nonempty_partitions, small_partitions)
    def test_conjugate_identification(self, pi, lam):
        lhs = dual_pi_schur(pi, lam)
        rhs = pi_schur(pi, conjugate(lam)).scale((-1) ** weight(lam))
        assert lhs == rhs


class TestCauchyRoutes:
    def test_row_two(self):
        assert cauchy_pi_schur((2,), (2,)) == S((2,)) - SymFunc.one()

    @given(nonempty_partitions)
    def test_empty_label(self, pi):
        assert cauchy_pi_schur(pi, ()) == SymFunc.one()
        assert cauchy_dual_pi_schur(pi, ()) == SymFunc.one()

    def test_dual_odd_sign(self):
        assert cauchy_dual_pi_schur((3,), (1,)) == -S((1,))

    @given(nonempty_partitions, small_partitions)
    def test_agrees_with_adjoint_route(self, pi, lam):
        assert cauchy_pi_schur(pi, lam) == pi_schur(pi, lam)
        assert cauchy_dual_pi_schur(pi, lam) == dual_pi_schur(pi, lam)

    # labels past weight 8, where most (mu, nu) pairs miss lam and the rest
    # count c^lam_{mu,nu} with the outer shape fixed
    @pytest.mark.parametrize("pi, lam", [((2, 1), (4, 3, 3, 2)),
                                         ((2,), (5, 4, 3)),
                                         ((1, 1), (4, 3, 2, 1)),
                                         ((2,), (4, 4, 2))])
    def test_large_labels_agree_with_adjoint_route(self, pi, lam):
        assert cauchy_pi_schur(pi, lam) == pi_schur(pi, lam)
        assert cauchy_dual_pi_schur(pi, lam) == dual_pi_schur(pi, lam)

    def test_runs_no_skew(self, monkeypatch):
        # the route stays independent of the perp and vertex routes: from
        # cold memos it answers with every skew refused
        labels = [((2, 1), (3, 3, 2)), ((2,), (3, 2, 1)), ((1, 1), (4, 2))]
        want = [(pi_schur(pi, lam), dual_pi_schur(pi, lam))
                for pi, lam in labels]
        for mod in (schurring, plethysm_module):
            for attr in list(vars(mod)):
                if attr.endswith("_memo"):
                    monkeypatch.setattr(mod, attr, {})

        def refused(*args):
            raise AssertionError("the Cauchy route skewed")

        def product_only(mu, nu=None, lam=None):
            assert nu is not None
            return kernel(mu, nu, lam)

        kernel = schurring._lr_tableaux
        monkeypatch.setattr(schurring, "skew_schur_pair", refused)
        monkeypatch.setattr(SymFunc, "skew_by", refused)
        monkeypatch.setattr(schurring, "_lr_tableaux", product_only)
        assert [(cauchy_pi_schur(pi, lam), cauchy_dual_pi_schur(pi, lam))
                for pi, lam in labels] == want


class TestPlethysmShapeFacts:
    def test_single_row_containment(self):
        # coefficient of the full single row in a plethysm of rows/columns
        for a in range(1, 11):
            for b in range(1, 11):
                if a * b > 10:
                    continue
                for rho in partitions_of(a):
                    for xi in partitions_of(b):
                        val = plethysm(rho, S(xi))
                        row = tuple([a * b])
                        expect = 1 if (len(rho) <= 1 and len(xi) <= 1) else 0
                        assert val.coeff(row) == expect, (rho, xi)

    def test_single_column_containment(self):
        for a in range(1, 11):
            for b in range(1, 11):
                if a * b > 10:
                    continue
                for rho in partitions_of(a):
                    for xi in partitions_of(b):
                        val = plethysm(rho, S(xi))
                        col = (1,) * (a * b)
                        is_row = len(rho) <= 1
                        is_col_rho = all(x == 1 for x in rho)
                        is_col_xi = all(x == 1 for x in xi)
                        if b % 2 == 0:
                            expect = 1 if (is_row and is_col_xi) else 0
                        else:
                            expect = 1 if (is_col_rho and is_col_xi) else 0
                        assert val.coeff(col) == expect, (rho, xi)

    def test_skew_of_row_by_plethysm(self):
        for m in range(1, 9):
            for a in range(1, m + 1):
                for b in range(1, m + 1):
                    if a * b > m:
                        continue
                    for rho in partitions_of(a):
                        for xi in partitions_of(b):
                            got = S((m,)).skew_by(plethysm(rho, S(xi)))
                            if len(rho) <= 1 and len(xi) <= 1:
                                expect = S((m - a * b,)) if m > a * b \
                                    else SymFunc.one()
                            else:
                                expect = SymFunc.zero()
                            assert got == expect, (m, rho, xi)

    def test_series_coefficient_conjugation_laws(self):
        def coefficient(family, pi, nu):
            if weight(nu) % weight(pi) != 0:
                return 0
            r = weight(nu) // weight(pi)
            return series_term(family, S(pi), r).coeff(nu)

        pis = [p for w in (1, 2, 3) for p in partitions_of(w)]
        for pi in pis:
            for nw in range(0, 10):
                for nu in partitions_of(nw):
                    l_val = coefficient("L", pi, nu)
                    if weight(pi) % 2 == 0:
                        assert coefficient("L", conjugate(pi),
                                           conjugate(nu)) == l_val
                    else:
                        assert coefficient("M", conjugate(pi),
                                           conjugate(nu)) == \
                            (-1) ** weight(nu) * l_val


class TestLittlewoodConjugation:
    def test_even_inner_weight(self):
        lhs = plethysm((2,), S((2,))).omega()
        assert lhs == plethysm((2,), S((1, 1)))

    def test_odd_inner_weight(self):
        lhs = plethysm((2,), S((3,))).omega()
        assert lhs == plethysm((1, 1), S((1, 1, 1)))

    @given(st.sampled_from([(m, n) for m in partitions_up_to(3)[1:]
                            for n in partitions_up_to(3)[1:]]))
    def test_small_pairs(self, pair):
        mu, nu = pair
        lhs = plethysm(mu, S(nu)).omega()
        if weight(nu) % 2 == 0:
            rhs = plethysm(mu, S(conjugate(nu)))
        else:
            rhs = plethysm(conjugate(mu), S(conjugate(nu)))
        assert lhs == rhs
