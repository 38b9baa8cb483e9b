import pytest
from hypothesis import given
from hypothesis import strategies as st

from symvertex import oracle
from symvertex.oracle import (decompose, kostka, oracle_dual_pi_schur,
                              oracle_pi_schur, oracle_plethysm,
                              oracle_product, poly_add_scaled, poly_mul,
                              schur_poly)
from symvertex.partitions import (partition, partitions_of, partitions_up_to,
                                  weight)
from symvertex.plethysm import dual_pi_schur, pi_schur, plethysm
from symvertex.schurring import SymFunc
from test_kernel_faults import _in_source

S = SymFunc.schur


def unpack(key, nvars):
    return tuple((key >> (4 * (nvars - 1 - i))) & 15 for i in range(nvars))


def pack(exps, nvars):
    return sum(e << 4 * (nvars - 1 - i) for i, e in enumerate(exps))


def as_exponents(poly, nvars):
    return {unpack(k, nvars): v for k, v in poly.items()}


def reference_decompose(poly, nvars):
    """The peel that decompose used before the Kostka peel: subtract the
    whole Schur polynomial of the lexicographically greatest monomial until
    nothing is left."""
    poly = dict(poly)
    out = {}
    while poly:
        top = max(poly)
        lead = partition(unpack(top, nvars))
        out[lead] = poly[top]
        poly_add_scaled(poly, schur_poly(lead, nvars), -poly[top])
        assert top not in poly
    return SymFunc(out)



class TestSchurPoly:
    def test_single_box_two_variables(self):
        got = as_exponents(schur_poly((1,), 2), 2)
        assert got == {(1, 0): 1, (0, 1): 1}

    def test_hook_two_variables(self):
        got = as_exponents(schur_poly((2, 1), 2), 2)
        assert got == {(2, 1): 1, (1, 2): 1}

    def test_column_taller_than_alphabet(self):
        assert schur_poly((1, 1, 1), 2) == {}

    def test_symmetry(self):
        for lam in ((2,), (2, 1), (3, 1), (2, 2)):
            assert oracle._is_symmetric(schur_poly(lam, 4), 4)

    def test_term_count_is_tableau_count(self):
        # SSYT of shape (2) in 3 letters: multisets of size 2 -> 6
        assert sum(schur_poly((2,), 3).values()) == 6
        # SSYT of shape (1,1) in 3 letters: 2-subsets -> 3
        assert sum(schur_poly((1, 1), 3).values()) == 3


class TestDecompose:
    @given(st.sampled_from(partitions_up_to(6)))
    def test_roundtrip(self, lam):
        n = max(weight(lam), 1)
        assert decompose(schur_poly(lam, n), n) == S(lam)

    def test_product_of_boxes(self):
        sq = poly_mul(schur_poly((1,), 2), schur_poly((1,), 2))
        assert decompose(sq, 2) == S((2,)) + S((1, 1))

    def test_zero(self):
        assert decompose({}, 3) == SymFunc.zero()

    def test_rejects_non_symmetric(self):
        lopsided = {2 << 4: 1}  # x0^2 in two variables
        with pytest.raises(ValueError):
            decompose(lopsided, 2)

    @pytest.mark.parametrize("exps", [
        # invariant under the swap of x0 and x1 but not under the cycle
        [(2, 0, 0), (0, 2, 0)],
        # invariant under the cycle but not under the swap
        [(2, 1, 0), (0, 2, 1), (1, 0, 2)],
        # symmetric but for one non-dominant monomial
        [(1, 1, 0), (1, 0, 1)],
    ])
    def test_near_symmetric_input_is_refused(self, exps):
        # the peel reads dominant monomials only, so the exact symmetry
        # check is what refuses these; a sampled check of a few
        # transpositions would let a longer cycle-invariant input through
        with pytest.raises(ValueError, match="not symmetric"):
            decompose({pack(e, 3): 1 for e in exps}, 3)

    def test_symmetry_check_is_exact_in_five_variables(self):
        full = schur_poly((2, 1), 5)
        assert oracle._is_symmetric(full, 5)
        for key in full:
            assert not oracle._is_symmetric(
                {k: v for k, v in full.items() if k != key}, 5)

    @pytest.mark.parametrize("w", range(9))
    def test_matches_the_reference_on_products(self, w):
        pairs = [(m, n) for m in partitions_up_to(w) for n in partitions_of(
            w - weight(m)) if m >= n]
        for mu, nu in pairs:
            n = len(mu) + len(nu)
            poly = poly_mul(schur_poly(mu, n), schur_poly(nu, n))
            assert decompose(poly, n) == reference_decompose(poly, n)

    def test_matches_the_reference_on_kernel_x_sides(self, monkeypatch):
        # these polynomials mix several degrees
        seen = []
        real = oracle.decompose

        def spy(poly, nvars):
            seen.append((poly, nvars))
            return real(poly, nvars)

        monkeypatch.setattr(oracle, "decompose", spy)
        for pi in partitions_up_to(3)[1:]:
            for lam in partitions_up_to(4):
                oracle_pi_schur(pi, lam)
                oracle_dual_pi_schur(pi, lam)
        assert any(len({oracle._degree(k, n) for k in poly}) > 1
                   for poly, n in seen)
        for poly, n in seen:
            assert real(poly, n) == reference_decompose(poly, n)


class TestKostka:
    def test_small_values(self):
        assert kostka((2, 1), (1, 1, 1)) == 2
        assert kostka((3, 2), (2, 2, 1)) == 2
        assert kostka((2, 2), (3, 1)) == 0
        assert kostka((), ()) == 1

    def test_matches_schur_poly_coefficients(self):
        pairs = 0
        for lam in partitions_up_to(8):
            n = len(lam) + 1
            poly = schur_poly(lam, n)
            for alpha in partitions_of(weight(lam), max_length=n):
                assert kostka(lam, alpha) == poly.get(pack(alpha, n), 0)
                pairs += 1
        assert pairs == 693


class TestOracleProduct:
    def test_empty_factors(self):
        assert oracle_product((), ()) == SymFunc.one()
        assert oracle_product((2, 1), ()) == S((2, 1))

    @given(st.sampled_from([(m, n) for m in partitions_up_to(4)
                            for n in partitions_up_to(4)]))
    def test_agrees_with_ring(self, pair):
        mu, nu = pair
        assert oracle_product(mu, nu) == S(mu) * S(nu)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            oracle_product((9, 9), (8, 8))

    def test_two_rows_each(self):
        # 4 variables; one per box would be 14 and take minutes
        assert oracle_product((5, 4), (3, 2)) == S((5, 4)) * S((3, 2))


class TestOraclePlethysm:
    def test_row_in_row(self):
        assert oracle_plethysm((2,), (2,)) == S((4,)) + S((2, 2))

    @given(st.sampled_from(partitions_up_to(4)[1:]))
    def test_single_box_outer(self, nu):
        assert oracle_plethysm((1,), nu) == S(nu)

    def test_column_in_row(self):
        assert oracle_plethysm((1, 1), (2,)) == S((3, 1))

    def test_exponent_guard(self):
        # 4 variables suffice, but one variable reaches exponent 16
        with pytest.raises(OverflowError, match="exponent 16"):
            oracle_plethysm((4,), (4,))

    @given(st.sampled_from([(m, n)
                            for m in partitions_up_to(3)[1:]
                            for n in partitions_up_to(3)[1:]
                            if weight(m) * weight(n) <= 6]))
    def test_agrees_with_main_path(self, pair):
        mu, nu = pair
        assert oracle_plethysm(mu, nu) == plethysm(mu, S(nu))

    def test_constant_inner_shape(self):
        assert oracle_plethysm((3,), ()) == SymFunc.one()
        assert oracle_plethysm((2, 1), ()) == SymFunc.zero()

    def test_pruned_sum_matches_the_full_sum(self, monkeypatch):
        # every plethysm up to weight 8: the Schur terms of the whole
        # (symmetric) tableau sum are those read from the pruned one
        real = oracle._tableau_sum
        full = []

        def unpruned(shape, groups, pruned):
            full.append((real(shape, groups, False), len(groups)))
            return full[-1][0]

        small = [p for w in range(1, 9) for p in partitions_of(w)]
        for mu in small:
            for nu in small:
                if weight(mu) * weight(nu) > 8:
                    continue
                pruned = oracle_plethysm(mu, nu)
                monkeypatch.setattr(oracle, "_tableau_sum", unpruned)
                oracle_plethysm(mu, nu)
                monkeypatch.setattr(oracle, "_tableau_sum", real)
                assert decompose(*full[-1]) == pruned, (mu, nu)

    def test_pruning_fault_fails_the_dimension_check(self, monkeypatch):
        # a pruning that also drops equal neighbouring exponents: no suite
        # runs oracle_plethysm, so the dimension check must catch it here
        plant = _in_source(oracle, ">= key >> s & 15", "> key >> s & 15")
        monkeypatch.setattr(oracle, "_tableau_sum",
                            plant(oracle._tableau_sum))
        for mu, nu in (((2,), (2,)), ((2, 1), (2,)), ((1, 1), (2, 1))):
            with pytest.raises(ValueError, match="dimension check"):
                oracle_plethysm(mu, nu)

    def test_dimension_check_off_by_one_is_loud(self, monkeypatch):
        real = oracle._dim
        monkeypatch.setattr(oracle, "_dim", lambda lam, n: real(lam, n + 1))
        with pytest.raises(ValueError, match="dimension check"):
            oracle_plethysm((2,), (2,))

    def test_hook_content_dimensions(self):
        # s_lam(1^n) counts the monomials of s_lam in n variables
        for lam in partitions_up_to(6):
            assert oracle._dim(lam, 0) == int(not lam)
            for n in range(1, 5):
                assert oracle._dim(lam, n) == sum(schur_poly(lam, n).values())


class TestOraclePiSchur:
    def test_row_two(self):
        assert oracle_pi_schur((2,), (2,)) == S((2,)) - SymFunc.one()

    @given(st.sampled_from(partitions_up_to(3)[1:]))
    def test_empty_label(self, pi):
        assert oracle_pi_schur(pi, ()) == SymFunc.one()

    def test_column_two(self):
        assert oracle_pi_schur((1, 1), (1, 1)) == S((1, 1)) - SymFunc.one()

    def test_rejects_empty_shape(self):
        with pytest.raises(ValueError):
            oracle_pi_schur((), (1,))

    @given(st.sampled_from([(p, l)
                            for p in partitions_up_to(2)[1:]
                            for l in partitions_up_to(4)]))
    def test_agrees_with_main_path(self, pair):
        pi, lam = pair
        assert oracle_pi_schur(pi, lam) == pi_schur(pi, lam)
        assert oracle_dual_pi_schur(pi, lam) == dual_pi_schur(pi, lam)

    def test_three_rows_of_weight_eight(self):
        # 3 + 3 packed variables; |lam| per alphabet would be 16
        assert oracle_pi_schur((1,), (3, 3, 2)) == pi_schur((1,), (3, 3, 2))

    def test_dual_weight_eight(self):
        assert oracle_dual_pi_schur((2, 1), (4, 3, 1)) == \
            dual_pi_schur((2, 1), (4, 3, 1))

    def test_heavy_shape_is_constant_series(self):
        # pi_1 = 16 does not fit a nibble, but |pi| > |lam| never needs it
        assert oracle_pi_schur((16,), (2, 1)) == pi_schur((16,), (2, 1))


class TestWidths:
    """Each entry point asks schur_poly and decompose for no more variables
    than the result can have rows."""

    @pytest.mark.parametrize("call, widths", [
        (lambda: oracle_product((3, 1), (2, 2)), {4}),
        (lambda: oracle_product((2,), ()), {1}),
        (lambda: oracle_plethysm((2,), (2, 1)), {4}),
        (lambda: oracle_plethysm((3, 2, 1), (1,)), {3}),
        (lambda: oracle_pi_schur((2,), (3, 1)), {2}),
        (lambda: oracle_dual_pi_schur((2,), (3, 1)), {2, 3}),
        (lambda: oracle_dual_pi_schur((1, 1), (1, 1, 1)), {1, 3}),
    ])
    def test_variables_requested(self, monkeypatch, call, widths):
        seen = set()

        def spy(real):
            def wrapper(arg, nvars):
                seen.add(nvars)
                return real(arg, nvars)
            return wrapper

        for name in ("schur_poly", "decompose"):
            monkeypatch.setattr(oracle, name, spy(getattr(oracle, name)))
        call()
        assert seen == widths

