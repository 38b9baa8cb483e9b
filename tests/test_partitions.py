from hypothesis import given
from hypothesis import strategies as st

from symvertex.partitions import (conjugate, contains, format_partition,
                                  hooks_inside, parse_partition, partition,
                                  partitions_of, partitions_up_to,
                                  subpartitions, weight)


def parts_strategy(max_weight=12, max_part=8):
    return st.lists(st.integers(1, max_part), max_size=6).map(
        lambda xs: partition(sorted(xs, reverse=True))
    ).filter(lambda p: weight(p) <= max_weight)


class TestPartitionValue:
    def test_canonical_storage(self):
        assert partition([3, 1, 0, 0]) == (3, 1)
        assert partition(()) == ()
        assert partition((5,)) == (5,)

    def test_rejects_increasing(self):
        try:
            partition((1, 2))
        except ValueError:
            pass
        else:
            raise AssertionError("increasing parts accepted")

    def test_weight(self):
        assert weight(()) == 0
        assert weight((4, 2, 1)) == 7

    def test_text_roundtrip(self):
        for text in ("[]", "[3,1,1]", "[10,2]"):
            assert format_partition(parse_partition(text)) == text


class TestConjugate:
    def test_empty(self):
        assert conjugate(()) == ()

    def test_self_conjugate(self):
        assert conjugate((2, 2)) == (2, 2)

    def test_transposition(self):
        assert conjugate((3, 1)) == (2, 1, 1)

    @given(parts_strategy())
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == p

    @given(parts_strategy())
    def test_weight_and_length(self, p):
        q = conjugate(p)
        assert weight(q) == weight(p)
        assert len(q) == (p[0] if p else 0)


class TestContains:
    def test_componentwise(self):
        assert contains((3, 1), (2, 1))
        assert not contains((2, 2), (3,))

    @given(parts_strategy())
    def test_empty_inside_everything(self, p):
        assert contains(p, ())

    @given(parts_strategy(max_weight=10), parts_strategy(max_weight=10))
    def test_conjugation_preserves_containment(self, p, q):
        assert contains(p, q) == contains(conjugate(p), conjugate(q))


class TestEnumeration:
    def test_zero(self):
        assert list(partitions_of(0)) == [()]

    def test_three(self):
        assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]

    def test_bounded_length(self):
        assert list(partitions_of(4, max_length=2)) == [(4,), (3, 1), (2, 2)]

    def test_counts_match_brute_force(self):
        # independent enumeration: weakly decreasing positive sequences
        def brute(n, cap=None):
            if n == 0:
                return 1
            cap = n if cap is None else min(cap, n)
            return sum(brute(n - k, k) for k in range(1, cap + 1))

        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, count in enumerate(expected):
            got = list(partitions_of(n))
            assert len(got) == count == brute(n)
            assert len(set(got)) == len(got)

    def test_reverse_lex_order(self):
        for n in range(9):
            got = list(partitions_of(n))
            assert got == sorted(got, reverse=True)

    def test_max_part(self):
        got = list(partitions_of(4, max_part=2))
        assert got == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_up_to_groups_by_weight(self):
        got = list(partitions_up_to(3))
        assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]

    def test_up_to_respects_length(self):
        assert all(len(p) <= 2 for p in partitions_up_to(6, max_length=2))

    def test_negative_length_admits_nothing(self):
        assert partitions_of(0, max_length=-1) == []
        assert partitions_of(4, max_length=-1) == []
        assert partitions_up_to(6, max_length=-1) == []

    # the edges below are what the oracle's Kostka peel relies on when it
    # walks the dominant monomials of each degree

    def test_negative_weight_admits_nothing(self):
        assert partitions_of(-1) == []
        assert partitions_of(-2, max_length=3) == []

    def test_length_cap_holds(self):
        for n in range(9):
            every = partitions_of(n)
            for cap in range(n + 2):
                assert partitions_of(n, max_length=cap) == [
                    p for p in every if len(p) <= cap]

    def test_up_to_reaches_its_weight(self):
        for w in range(7):
            got = partitions_up_to(w)
            assert got[-1] == (1,) * w
            assert max(weight(p) for p in got) == w
            assert len(got) == sum(len(partitions_of(n))
                                   for n in range(w + 1))

    def test_strictly_decreasing_lex(self):
        for n in range(10):
            for cap in (None, 2, 3):
                got = partitions_of(n, max_length=cap)
                assert all(a > b for a, b in zip(got, got[1:]))


class TestShapeScans:
    def test_subpartitions(self):
        got = set(subpartitions((2, 1)))
        assert got == {(), (1,), (2,), (1, 1), (2, 1)}

    @given(parts_strategy(max_weight=8))
    def test_subpartitions_all_contained(self, p):
        subs = list(subpartitions(p))
        assert len(set(subs)) == len(subs)
        assert all(contains(p, q) for q in subs)

    def test_hooks_inside(self):
        assert hooks_inside((2, 2)) == [(2, 1), (2,), (1, 1), (1,)]

    @given(parts_strategy(max_weight=8))
    def test_hooks_are_hooks(self, p):
        for h in hooks_inside(p):
            assert contains(p, h)
            assert len(h) == 1 or h[1] == 1
