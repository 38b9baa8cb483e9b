"""Tests of the benchmark's independent output checker.

Run with:  python3 -m pytest perfbench/test_checker.py
"""

import math

import pytest

from checker import (CheckError, alphabet_h_e, check_plethysm, check_product,
                     check_series_term, check_skew, complete, expansion_at,
                     expansion_from_json, hook_content, partitions,
                     schur_from_h, skew_from_h)

S21_SQUARED = {(4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2,
               (3, 1, 1, 1): 1, (2, 2, 2): 1, (2, 2, 1, 1): 1}

# (check, arguments, a correct expansion) -- textbook values.
KNOWN = [
    (check_product, ((1,), (1,)), {(2,): 1, (1, 1): 1}),
    (check_product, ((2, 1), (1,)), {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}),
    (check_product, ((2, 1), (2, 1)), S21_SQUARED),
    (check_skew, ((2, 1), (1,)), {(2,): 1, (1, 1): 1}),
    (check_skew, ((3, 2, 1), (2, 1)),
     {(3,): 1, (2, 1): 2, (1, 1, 1): 1}),
    (check_skew, ((2,), (1, 1)), {}),
    (check_plethysm, ((2,), (2,)), {(4,): 1, (2, 2): 1}),
    (check_plethysm, ((1, 1), (2,)), {(3, 1): 1}),
    (check_plethysm, ((2,), (1, 1)), {(2, 2): 1, (1, 1, 1, 1): 1}),
    (check_plethysm, ((3,), (2,)), {(6,): 1, (4, 2): 1, (2, 2, 2): 1}),
    (check_series_term, ("M", (1,), 2), {(2,): 1}),
    (check_series_term, ("L", (1,), 3), {(1, 1, 1): -1}),
    (check_series_term, ("M", (2,), 2), {(4,): 1, (2, 2): 1}),
    (check_series_term, ("L", (2,), 2), {(3, 1): 1}),
]


def test_hook_content_matches_jacobi_trudi_at_ones():
    for w in range(7):
        for lam in partitions(w):
            for n in range(1, 6):
                h = complete([1] * n, w)
                assert hook_content(lam, n) == schur_from_h(lam, h)


def test_schur_at_a_point_matches_tableau_count():
    # s_{2,1}(x, y, z) has 8 tableaux: x^2y + x^2z + xy^2 + y^2z + xz^2
    # + yz^2 + 2xyz.
    x, y, z = 2, 3, 5
    want = (x * x * y + x * x * z + x * y * y + y * y * z + x * z * z
            + y * z * z + 2 * x * y * z)
    assert schur_from_h((2, 1), complete([x, y, z], 3)) == want


def test_skew_by_empty_is_plain_schur():
    h = complete([2, 7, 11], 6)
    assert skew_from_h((3, 2, 1), (), h) == schur_from_h((3, 2, 1), h)


def test_newton_identities_at_ones():
    n = 5
    h, e = alphabet_h_e([None] + [n] * 4, 4)
    assert h == [math.comb(n + k - 1, k) for k in range(5)]
    assert e == [math.comb(n, k) for k in range(5)]


@pytest.mark.parametrize("check, args, expansion", KNOWN)
def test_correct_expansions_pass(check, args, expansion):
    check(*args, expansion)


def _plants(expansion, weight):
    """Wrong versions of a correct expansion: each coefficient bumped by
    one, each term dropped, each term moved to another partition of the
    same weight, and one term added."""
    for lam, c in expansion.items():
        step = 1 if c > 0 else -1
        yield dict(expansion) | {lam: c + step}
        yield {k: v for k, v in expansion.items() if k != lam}
        for other in partitions(weight):
            if other not in expansion:
                moved = {k: v for k, v in expansion.items() if k != lam}
                moved[other] = c
                yield moved
    sign = 1 if all(c > 0 for c in expansion.values()) else -1
    for other in partitions(weight):
        if other not in expansion:
            yield dict(expansion) | {other: sign}


def _weight(check, args):
    if check is check_product:
        return sum(args[0]) + sum(args[1])
    if check is check_skew:
        return sum(args[0]) - sum(args[1])
    if check is check_plethysm:
        return sum(args[0]) * sum(args[1])
    return args[2] * sum(args[1])


@pytest.mark.parametrize("check, args, expansion", KNOWN)
def test_planted_wrong_coefficients_are_rejected(check, args, expansion):
    plants = list(_plants(expansion, _weight(check, args)))
    assert plants
    for wrong in plants:
        if wrong == expansion:
            continue
        with pytest.raises(CheckError):
            check(*args, wrong)


def test_plant_invisible_at_all_ones_points_is_rejected():
    # s_511 - s_421 + s_4111 vanishes at every all-ones point, so only the
    # random points can see this plant.
    right = {(5, 2): 1, (5, 1, 1): 1, (4, 3): 1, (4, 2, 1): 2,
             (4, 1, 1, 1): 1, (3, 3, 1): 1, (3, 2, 2): 1, (3, 2, 1, 1): 1}
    check_product((3, 1), (2, 1), right)
    wrong = dict(right)
    wrong[(5, 1, 1)] += 1
    wrong[(4, 2, 1)] -= 1
    wrong[(4, 1, 1, 1)] += 1
    for n in range(1, 12):
        assert expansion_at(wrong, [1] * n) == expansion_at(right, [1] * n)
    with pytest.raises(CheckError):
        check_product((3, 1), (2, 1), wrong)


def test_json_form_round_trip_and_rejections():
    terms = [{"partition": [2], "num": "1", "den": "1"},
             {"partition": [], "num": "-3", "den": "1"}]
    assert expansion_from_json(terms) == {(2,): 1, (): -3}
    with pytest.raises(CheckError):
        expansion_from_json(terms + [terms[0]])
    with pytest.raises(CheckError):
        expansion_from_json([{"partition": [1], "num": "0", "den": "1"}])
