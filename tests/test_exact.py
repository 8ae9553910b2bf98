"""Exact integer kernels: spec'd examples, identities, and fast-path parity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from log2lab.exact import (
    DomainError,
    binary_digit_sum,
    ceil_log2,
    even_count_oracle,
    floor_log2_fraction,
    odd_floor_sum,
    pair_enumeration_oracle,
)

from conftest import floor_log2_doubling, floor_sum_by_blocks, power_of_two_ratio


class TestFloorLog2Ratio:
    """floor(log2(a/j)) for 1 <= j <= a, the ratios the floor sums take."""

    @pytest.mark.parametrize(
        "a,j,expected",
        [(7, 1, 2), (7, 3, 1), (1024, 1, 10), (1, 1, 0), (9, 9, 0), (6, 3, 1)],
    )
    def test_examples(self, a, j, expected):
        assert floor_log2_fraction(a, j) == expected

    def test_equal_arguments_always_zero(self):
        for a in (1, 2, 3, 17, 2**40, 10**12 + 7):
            assert floor_log2_fraction(a, a) == 0

    def test_matches_doubling_oracle(self):
        rng = random.Random(20240811)
        for _ in range(2000):
            a = rng.randrange(1, 1 << 48)
            j = rng.randrange(1, a + 1)
            assert floor_log2_fraction(a, j) == floor_log2_doubling(a, j)

    def test_bracket_property(self):
        rng = random.Random(7)
        for _ in range(2000):
            a = rng.randrange(1, 10**7)
            j = rng.randrange(1, a + 1)
            k = floor_log2_fraction(a, j)
            assert j << k <= a < j << (k + 1)

    def test_monotone_in_j_and_a(self):
        a = 1000
        ks = [floor_log2_fraction(a, j) for j in range(1, a + 1)]
        assert ks == sorted(ks, reverse=True)
        j = 37
        ks = [floor_log2_fraction(a, j) for a in range(j, j + 4000)]
        assert ks == sorted(ks)

    @pytest.mark.parametrize("a,j", [(0, 1), (5, 0)])
    def test_domain_errors(self, a, j):
        with pytest.raises(DomainError):
            floor_log2_fraction(a, j)

    @given(st.integers(1, 1 << 80), st.integers(1, 1 << 80))
    def test_fraction_kernel_brackets_any_ratio(self, num, den):
        # also for ratios below 1
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
        # the test suite's exact-point oracle, from conftest
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


_ORACLES = [
    (even_count_oracle, _even_from_zero, 1),
    (pair_enumeration_oracle, _pairs_from_zero, 0),
]
_ODD = st.integers(0, 1500).map(lambda k: 2 * k + 1)


class TestIntervalOracles:
    """Each oracle counts over an interval of a; counts over adjacent
    intervals add up, and a alone counts from zero."""

    @settings(deadline=None)
    @given(st.lists(_ODD, min_size=3, max_size=3))
    def test_interval_counts_add_up(self, odd):
        a0, a1, a2 = sorted(odd)
        for oracle, _, _ in _ORACLES:
            assert oracle(a2, a0) == oracle(a1, a0) + oracle(a2, a1), (oracle, a0, a1, a2)

    @settings(deadline=None)
    @given(_ODD)
    def test_from_zero_equals_enumeration(self, a):
        for oracle, from_zero, start in _ORACLES:
            assert oracle(a) == oracle(a, start) == from_zero(a), (oracle, a)

    @pytest.mark.parametrize("oracle", [o for o, _, _ in _ORACLES])
    @pytest.mark.parametrize("a_prev", [-1, 9])
    def test_rejects_interval_outside_zero_to_a(self, oracle, a_prev):
        with pytest.raises(DomainError):
            oracle(7, a_prev)


class TestAllFloorSum:
    """The floor sum over all j <= a, counted in blocks by the conftest oracle,
    against Legendre's identity a - s2(a), which compared rows use instead."""

    @pytest.mark.parametrize("a,expected", [(1, 0), (7, 4), (8, 7)])
    def test_examples(self, a, expected):
        assert floor_sum_by_blocks(a) == expected == a - binary_digit_sum(a)

    def test_closed_form_small_range(self):
        for a in range(1, 2000):
            got = floor_sum_by_blocks(a)
            assert got == a - binary_digit_sum(a)
            if a <= 300:
                assert got == sum(floor_log2_doubling(a, j) for j in range(1, a + 1))

    def test_large_values(self):
        for a in (10**6 + 3, 2**30, 2**31 - 1):
            assert floor_sum_by_blocks(a) == a - binary_digit_sum(a)

    def test_beyond_int64(self):
        a = 2**70 + 1
        assert floor_sum_by_blocks(a) == a - 2
        assert odd_floor_sum(a) == (a - 1) // 2


def test_module_source_has_no_floating_point():
    """Audit: the exact kernels never touch floats, even through numpy."""
    import inspect

    import log2lab.exact as exact_mod

    src = inspect.getsource(exact_mod)
    for token in ("float(", "np.log", "math.log", "astype(float", "np.float", "1.0", "0.5"):
        assert token not in src, token
