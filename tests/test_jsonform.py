import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symvertex.jsonform import (dumps, laurent_to_obj, parse_symfunc,
                                parse_symfunc_text, state_from_obj,
                                state_to_obj, symfunc_from_obj,
                                symfunc_to_obj)
from symvertex.partitions import partitions_up_to
from symvertex.schurring import SymFunc
from symvertex.vertexops import ChargedState

S = SymFunc.schur


def symfunc_strategy():
    coeff = st.one_of(st.integers(-5, 5),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4))
    term = st.tuples(st.sampled_from(partitions_up_to(5)), coeff)
    return st.lists(term, max_size=4).map(
        lambda ts: sum((S(p).scale(c) for p, c in ts), SymFunc.zero()))


class TestSymFuncJson:
    @given(symfunc_strategy())
    def test_roundtrip(self, f):
        assert symfunc_from_obj(symfunc_to_obj(f)) == f

    def test_reverse_lex_order(self):
        f = S((1,)) + S((3,)) + S((2, 1)) + SymFunc.one()
        parts = [tuple(rec["partition"]) for rec in symfunc_to_obj(f)]
        assert parts == [(3,), (2, 1), (1,), ()]

    def test_normalized_fractions(self):
        f = S((1,)).scale(Fraction(2, 4)) + S((2,)).scale(Fraction(-3, 6))
        obj = symfunc_to_obj(f)
        by_part = {tuple(r["partition"]): (r["num"], r["den"]) for r in obj}
        assert by_part[(1,)] == ("1", "2")
        assert by_part[(2,)] == ("-1", "2")

    def test_big_integers_as_strings(self):
        big = 10 ** 30
        obj = symfunc_to_obj(S((1,)).scale(big))
        assert obj[0]["num"] == str(big)
        assert symfunc_from_obj(obj) == S((1,)).scale(big)

    def test_rejects_duplicate_partitions(self):
        obj = [{"partition": [1], "num": "1", "den": "1"},
               {"partition": [1], "num": "2", "den": "1"}]
        with pytest.raises(ValueError):
            symfunc_from_obj(obj)

    def test_malformed_term_names_the_field(self):
        with pytest.raises(ValueError, match="'den' field"):
            symfunc_from_obj([{"partition": [1], "num": "1"}])
        with pytest.raises(ValueError, match="'partition' field, got 1"):
            symfunc_from_obj([1])

    @pytest.mark.parametrize("field, term", [
        ("num", {"partition": [1], "num": 0.5, "den": 1}),
        ("num", {"partition": [1], "num": True, "den": 1}),
        ("num", {"partition": [1], "num": None, "den": 1}),
        ("den", {"partition": [1], "num": 1, "den": 2.0}),
        ("den", {"partition": [1], "num": 1, "den": False}),
        ("partition", {"partition": [1.5], "num": 1, "den": 1}),
        ("partition", {"partition": [2, True], "num": 1, "den": 1}),
    ])
    def test_non_integer_fields_rejected(self, field, term):
        with pytest.raises(ValueError, match="field %r: expected an integer"
                           % field):
            symfunc_from_obj([term])

    @pytest.mark.parametrize("den", [0, "0"])
    def test_zero_denominator_named(self, den):
        with pytest.raises(ValueError, match="^field 'den': expected a "
                           "nonzero integer, got 0$"):
            symfunc_from_obj([{"partition": [1], "num": 1, "den": den}])

    def test_ints_and_decimal_strings_accepted(self):
        got = symfunc_from_obj([{"partition": ["2", 1], "num": "-3",
                                 "den": 4},
                                {"partition": [], "num": 5, "den": "1"}])
        assert got == S((2, 1)).scale(Fraction(-3, 4)) + \
            SymFunc.one().scale(5)

    def test_dumps_is_json(self):
        text = dumps(symfunc_to_obj(S((2,)) - SymFunc.one()))
        assert json.loads(text) == symfunc_to_obj(S((2,)) - SymFunc.one())


class TestChargedStateJson:
    @given(symfunc_strategy(), symfunc_strategy(), st.integers(-3, 3))
    def test_roundtrip(self, f, g, c):
        state = ChargedState({c: f, c + 2: g})
        assert state_from_obj(state_to_obj(state)) == state

    def test_malformed_sector_names_the_field(self):
        with pytest.raises(ValueError, match="'value' field"):
            state_from_obj({"sectors": [{"charge": 1}]})
        with pytest.raises(ValueError, match="'sectors' field"):
            state_from_obj({})

    @pytest.mark.parametrize("charge", [1.7, 1.0, True])
    def test_float_and_bool_charge_rejected(self, charge):
        value = [{"partition": [1], "num": "1", "den": "1"}]
        with pytest.raises(ValueError,
                           match="field 'charge': expected an integer"):
            state_from_obj({"sectors": [{"charge": charge, "value": value}]})

    def test_sectors_sorted_by_charge(self):
        state = ChargedState({2: SymFunc.one(), -1: S((1,))})
        charges = [rec["charge"] for rec in state_to_obj(state)["sectors"]]
        assert charges == [-1, 2]


class TestLaurentJson:
    def test_exponents_sorted(self):
        m = {(2,): SymFunc.one(), (-1,): SymFunc.one()}
        exps = [tuple(rec["exp"])
                for rec in laurent_to_obj(("z",), m)["coeffs"]]
        assert exps == [(-1,), (2,)]


class TestShorthand:
    def test_basic_combination(self):
        got = parse_symfunc_text("s[2,1] - 2*s[1] + 1/2")
        assert got == S((2, 1)) - S((1,)).scale(2) + \
            SymFunc.one().scale(Fraction(1, 2))

    def test_zero(self):
        assert parse_symfunc_text("0") == SymFunc.zero()

    def test_leading_sign(self):
        assert parse_symfunc_text("-s[1]") == -S((1,))

    def test_fraction_coefficient(self):
        assert parse_symfunc_text("3/2*s[2]") == \
            S((2,)).scale(Fraction(3, 2))

    def test_rejects_garbage(self):
        for bad in ("s[2,", "s[1] s[2]", "q[1]", "1 +", "1/0*s[1]"):
            with pytest.raises(ValueError):
                parse_symfunc_text(bad)

    @given(symfunc_strategy())
    def test_parse_symfunc_accepts_json_form(self, f):
        assert parse_symfunc(dumps(symfunc_to_obj(f))) == f

    def test_parse_symfunc_accepts_shorthand(self):
        assert parse_symfunc("s[3] + s[1,1]") == S((3,)) + S((1, 1))
