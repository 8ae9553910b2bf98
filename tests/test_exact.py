"""Exact integer kernels: spec'd examples, identities, and fast-path parity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import log2lab.exact as exact_mod
from log2lab.exact import (
    DomainError,
    all_floor_sum,
    binary_digit_sum,
    ceil_log2,
    even_count_oracle,
    floor_log2_fraction,
    floor_log2_ratio,
    odd_floor_sum,
    pair_enumeration_oracle,
    power_of_two_ratio,
)

from conftest import floor_log2_doubling


class TestFloorLog2Ratio:
    @pytest.mark.parametrize(
        "a,j,expected",
        [(7, 1, 2), (7, 3, 1), (1024, 1, 10), (1, 1, 0), (9, 9, 0), (6, 3, 1)],
    )
    def test_examples(self, a, j, expected):
        assert floor_log2_ratio(a, j) == expected

    def test_equal_arguments_always_zero(self):
        for a in (1, 2, 3, 17, 2**40, 10**12 + 7):
            assert floor_log2_ratio(a, a) == 0

    def test_matches_doubling_oracle(self):
        rng = random.Random(20240811)
        for _ in range(2000):
            a = rng.randrange(1, 1 << 48)
            j = rng.randrange(1, a + 1)
            assert floor_log2_ratio(a, j) == floor_log2_doubling(a, j)

    def test_bracket_property(self):
        rng = random.Random(7)
        for _ in range(2000):
            a = rng.randrange(1, 10**7)
            j = rng.randrange(1, a + 1)
            k = floor_log2_ratio(a, j)
            assert j << k <= a < j << (k + 1)

    def test_monotone_in_j_and_a(self):
        a = 1000
        ks = [floor_log2_ratio(a, j) for j in range(1, a + 1)]
        assert ks == sorted(ks, reverse=True)
        j = 37
        ks = [floor_log2_ratio(a, j) for a in range(j, j + 4000)]
        assert ks == sorted(ks)

    @pytest.mark.parametrize("a,j", [(0, 1), (5, 0), (3, 4), (1, 2)])
    def test_domain_errors(self, a, j):
        with pytest.raises(DomainError):
            floor_log2_ratio(a, j)

    @given(st.integers(1, 1 << 80), st.integers(1, 1 << 80))
    def test_fraction_kernel_brackets_any_ratio(self, num, den):
        # the kernel behind floor_log2_ratio, also for ratios below 1
        k = floor_log2_fraction(num, den)
        assert Fraction(2) ** k <= Fraction(num, den) < Fraction(2) ** (k + 1)


class TestSmallHelpers:
    @pytest.mark.parametrize("a,expected", [(0, 0), (8, 1), (7, 3), (255, 8), (256, 1)])
    def test_binary_digit_sum(self, a, expected):
        assert binary_digit_sum(a) == expected

    def test_binary_digit_sum_rejects_negative(self):
        with pytest.raises(DomainError):
            binary_digit_sum(-1)

    @pytest.mark.parametrize("m,expected", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (1024, 10)])
    def test_ceil_log2(self, m, expected):
        assert ceil_log2(m) == expected

    @pytest.mark.parametrize(
        "a,j,expected", [(8, 1, 3), (6, 3, 1), (7, 3, None), (5, 5, 0), (48, 3, 4)]
    )
    def test_power_of_two_ratio(self, a, j, expected):
        assert power_of_two_ratio(a, j) == expected

    def test_power_of_two_ratio_agrees_with_exact_reconstruction(self):
        rng = random.Random(99)
        for _ in range(2000):
            a = rng.randrange(1, 10**6)
            j = rng.randrange(1, a + 1)
            k = power_of_two_ratio(a, j)
            if k is not None:
                assert j << k == a
            else:
                assert all(j << t != a for t in range(0, 21))


class TestOddFloorSum:
    @pytest.mark.parametrize("a,expected", [(1, 0), (7, 3), (9, 4)])
    def test_examples(self, a, expected):
        assert odd_floor_sum(a) == expected

    def test_rejects_even(self):
        with pytest.raises(DomainError):
            odd_floor_sum(8)

    def test_matches_scalar_definition(self):
        rng = random.Random(3)
        for _ in range(50):
            a = rng.randrange(1, 4000) | 1
            direct = sum(floor_log2_doubling(a, j) for j in range(1, a + 1, 2))
            assert odd_floor_sum(a) == direct == (a - 1) // 2


class TestEnumerationOracles:
    @pytest.mark.parametrize("a,expected", [(1, 0), (7, 3), (15, 7)])
    def test_even_count_examples(self, a, expected):
        assert even_count_oracle(a) == expected

    def test_even_count_rejects_even(self):
        with pytest.raises(DomainError):
            even_count_oracle(4)

    @pytest.mark.parametrize("a,expected", [(1, 0), (7, 3), (8, 4)])
    def test_pair_enumeration_examples(self, a, expected):
        assert pair_enumeration_oracle(a) == expected

    def test_pair_count_equals_even_count_up_to_a(self):
        for a in range(1, 300):
            assert pair_enumeration_oracle(a) == a // 2

    def test_three_way_agreement_small_range(self):
        for a in range(1, 1000, 2):
            expected = (a - 1) // 2
            assert odd_floor_sum(a) == expected
            assert even_count_oracle(a) == expected
            assert pair_enumeration_oracle(a) == expected


def _even_from_zero(a: int) -> int:
    return sum(1 for m in range(1, a) if m % 2 == 0)


def _pairs_from_zero(a: int) -> int:
    return sum(
        1 for alpha in range(1, a.bit_length()) for m in range(1, (a >> alpha) + 1) if m % 2 == 1
    )


_RESUMABLE = [
    (even_count_oracle, _even_from_zero, st.integers(0, 1000).map(lambda k: 2 * k + 1)),
    (pair_enumeration_oracle, _pairs_from_zero, st.integers(1, 2001)),
]


@st.composite
def _oracle_run(draw):
    """An oracle, its from-zero reference, and a sequence of a that contains
    a = 1, in drawn, ascending, descending or repeated order."""
    oracle, from_zero, values = draw(st.sampled_from(_RESUMABLE))
    seq = draw(st.lists(values, min_size=1, max_size=20))
    seq.insert(draw(st.integers(0, len(seq))), 1)
    order = draw(st.sampled_from(["drawn", "ascending", "descending", "repeated"]))
    if order == "ascending":
        seq.sort()
    elif order == "descending":
        seq.sort(reverse=True)
    elif order == "repeated":
        seq = [a for a in seq for _ in range(2)]
    return oracle, from_zero, seq


class _Interrupted(Exception):
    pass


class TestResumableOracles:
    """The oracles resume from the last a they counted; any order of a must
    still give the from-zero enumeration."""

    @settings(deadline=None)
    @given(_oracle_run())
    def test_any_order_equals_from_zero(self, run):
        oracle, from_zero, seq = run
        for a in seq:
            assert oracle(a) == from_zero(a), (seq, a)

    @settings(deadline=None)
    @given(_oracle_run(), st.integers(0, 40), st.integers(0, 12))
    def test_count_interrupted_midway_leaves_later_counts_correct(self, run, split, calls_ok):
        oracle, from_zero, seq = run
        split %= len(seq)
        for a in seq[:split]:
            oracle(a)
        real = exact_mod._count_parity
        calls = []

        def failing(lo: int, hi: int, parity: int) -> int:
            # enumerate half of this piece, then fail: a count cut off mid-walk
            calls.append(lo)
            real(lo, (lo + hi) // 2, parity)
            if len(calls) > calls_ok:
                raise _Interrupted
            return real(lo, hi, parity)

        exact_mod._count_parity = failing
        try:
            oracle(seq[split])
        except _Interrupted:
            pass
        finally:
            exact_mod._count_parity = real
        for a in seq[split:]:
            assert oracle(a) == from_zero(a), (seq, split, calls_ok, a)


class TestAllFloorSum:
    @pytest.mark.parametrize("a,expected", [(1, 0), (7, 4), (8, 7)])
    def test_examples(self, a, expected):
        assert all_floor_sum(a) == expected

    def test_closed_form_small_range(self):
        for a in range(1, 2000):
            direct = sum(floor_log2_doubling(a, j) for j in range(1, a + 1)) if a <= 300 else None
            got = all_floor_sum(a)
            assert got == a - binary_digit_sum(a)
            if direct is not None:
                assert got == direct

    def test_large_values(self):
        for a in (10**6 + 3, 2**30, 2**31 - 1):
            assert all_floor_sum(a) == a - binary_digit_sum(a)

    def test_beyond_int64(self):
        a = 2**70 + 1
        assert all_floor_sum(a) == a - 2
        assert odd_floor_sum(a) == (a - 1) // 2


def test_module_source_has_no_floating_point():
    """Audit: the exact kernels never touch floats, even through numpy."""
    import inspect

    import log2lab.exact as exact_mod

    src = inspect.getsource(exact_mod)
    for token in ("float(", "np.log", "math.log", "astype(float", "np.float", "1.0", "0.5"):
        assert token not in src, token
