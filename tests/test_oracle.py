import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symvertex import oracle
from symvertex.oracle import (decompose, is_symmetric_sampled,
                              oracle_dual_pi_schur, oracle_pi_schur,
                              oracle_plethysm, oracle_product, poly_mul,
                              schur_poly)
from symvertex.partitions import partitions_up_to, weight
from symvertex.plethysm import dual_pi_schur, pi_schur, plethysm
from symvertex.schurring import SymFunc

S = SymFunc.schur


def as_exponents(poly, nvars):
    return {oracle._unpack(k, nvars): v for k, v in poly.items()}


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
            assert is_symmetric_sampled(schur_poly(lam, 4), 4)

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

    def test_peel_that_keeps_its_lead_raises(self, monkeypatch):
        # a Schur polynomial missing its leading monomial cannot peel it;
        # decompose must refuse instead of looping forever
        poly = schur_poly((2, 1), 3)
        real = oracle.schur_poly

        def planted(lam, nvars):
            p = dict(real(lam, nvars))
            p.pop(max(p), None)
            return p

        monkeypatch.setattr(oracle, "schur_poly", planted)
        with pytest.raises(ValueError, match=r"peeling s_\[2,1\] left"):
            decompose(poly, 3)


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
    """Each entry point asks schur_poly for no more variables than the
    result can have rows."""

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
        real = oracle.schur_poly

        def spy(lam, nvars):
            seen.add(nvars)
            return real(lam, nvars)

        monkeypatch.setattr(oracle, "schur_poly", spy)
        call()
        assert seen == widths


def test_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, symvertex; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"
