"""Dyadic rationals and intervals: exactness, rounding direction, containment."""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from log2lab.dyadic import (
    DyadicInterval,
    DyadicRational,
    dyadic_from_fraction,
    integer_nth_root,
)


def rand_dyadic(rng: random.Random) -> DyadicRational:
    return DyadicRational(rng.randrange(-(1 << 40), 1 << 40), rng.randrange(-60, 20))


class TestDyadicRational:
    def test_canonical_form(self):
        d = DyadicRational(24, 3)  # 24*8 = 192 = 3*2^6
        assert d.mantissa == 3 and d.exponent == 6
        z = DyadicRational(0, 17)
        assert z.mantissa == 0 and z.exponent == 0

    def test_arithmetic_matches_fractions(self):
        rng = random.Random(11)
        for _ in range(500):
            a, b = rand_dyadic(rng), rand_dyadic(rng)
            fa, fb = a.to_fraction(), b.to_fraction()
            assert (a + b).to_fraction() == fa + fb
            assert (a - b).to_fraction() == fa - fb
            assert (a * b).to_fraction() == fa * fb
            assert (-a).to_fraction() == -fa
            assert (a < b) == (fa < fb)
            assert (a <= b) == (fa <= fb)

    def test_pow_and_scale(self):
        d = DyadicRational(3, -1)  # 1.5
        assert d.pow_int(4).to_fraction() == Fraction(81, 16)
        assert d.mul_int(-6).to_fraction() == Fraction(-9)
        assert d.half().to_fraction() == Fraction(3, 4)

    def test_directed_rounding(self):
        rng = random.Random(13)
        for _ in range(500):
            d = rand_dyadic(rng)
            f = rng.randrange(0, 50)
            down, up = d.round_down_bits(f), d.round_up_bits(f)
            grid = Fraction(1, 1 << f)
            assert down.to_fraction() <= d.to_fraction() <= up.to_fraction()
            assert d.to_fraction() - down.to_fraction() < grid
            assert up.to_fraction() - d.to_fraction() < grid

    @pytest.mark.parametrize(
        "m,e,text",
        [
            (5, 0, "5"),
            (3, 2, "12"),
            (1, -1, "0.5"),
            (-3, -2, "-0.75"),
            (1, -10, "0.0009765625"),
            (0, 0, "0"),
        ],
    )
    def test_decimal_str(self, m, e, text):
        assert DyadicRational(m, e).decimal_str() == text

    def test_decimal_str_round_trips_exactly(self):
        rng = random.Random(17)
        for _ in range(300):
            d = rand_dyadic(rng)
            assert Fraction(d.decimal_str()) == d.to_fraction()

    @pytest.mark.parametrize(
        "m,e",
        [(1, -20000), (-((3 << 20000) + 1), -20000), (7, 20000)],
        ids=["fraction", "integer-and-fraction", "integer"],
    )
    def test_decimal_str_past_int_str_digit_limit(self, m, e):
        # Decimal parses strings of any length; int() and Fraction() stop at
        # the interpreter's 4300-digit limit
        d = DyadicRational(m, e)
        assert Fraction(Decimal(d.decimal_str())) == d.to_fraction()


class TestIntegerNthRoot:
    def test_exact_and_floor(self):
        rng = random.Random(19)
        for _ in range(400):
            k = rng.choice([2, 3, 4, 6])
            r = rng.randrange(0, 1 << 20)
            n = r**k + rng.randrange(0, max(1, r))
            got = integer_nth_root(n, k)
            assert got**k <= n < (got + 1) ** k


class TestDyadicFromFraction:
    def test_directed(self):
        rng = random.Random(23)
        for _ in range(500):
            fr = Fraction(rng.randrange(-(10**9), 10**9), rng.randrange(1, 10**6))
            f = rng.randrange(0, 60)
            lo = dyadic_from_fraction(fr, f, up=False)
            hi = dyadic_from_fraction(fr, f, up=True)
            assert lo.to_fraction() <= fr <= hi.to_fraction()
            assert hi.to_fraction() - lo.to_fraction() <= Fraction(1, 1 << f)


class TestDyadicInterval:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            DyadicInterval(DyadicRational(1), DyadicRational(0))

    def test_arithmetic_containment(self):
        rng = random.Random(29)
        for _ in range(300):
            vals = sorted(rand_dyadic(rng) for _ in range(2))
            a = DyadicInterval(vals[0], vals[1])
            vals = sorted(rand_dyadic(rng) for _ in range(2))
            b = DyadicInterval(vals[0], vals[1])
            xa = a.lo.to_fraction() + (a.hi.to_fraction() - a.lo.to_fraction()) / 3
            xb = b.lo.to_fraction() + (b.hi.to_fraction() - b.lo.to_fraction()) / 2
            assert (a + b).contains_fraction(xa + xb)
            assert (a - b).contains_fraction(xa - xb)
            assert (a * b).contains_fraction(xa * xb)
            assert (-a).contains_fraction(-xa)
            k = rng.randrange(-50, 50)
            assert a.scale_int(k).contains_fraction(xa * k)

    def test_rounded_ops_containment(self):
        rng = random.Random(31)
        for _ in range(300):
            lo = DyadicRational(rng.randrange(1, 1 << 30), rng.randrange(-20, 4))
            hi = lo + DyadicRational(rng.randrange(0, 1 << 10), -22)
            iv = DyadicInterval(lo, hi)
            x = lo.to_fraction() + (hi.to_fraction() - lo.to_fraction()) / 7
            f = rng.randrange(8, 70)
            assert iv.reciprocal(f).contains_fraction(1 / x)
            k = rng.randrange(1, 100)
            assert iv.div_by_posint(k, f).contains_fraction(x / k)
            fr = Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
            assert iv.mul_fraction(fr, f).contains_fraction(x * fr)

    def test_nth_root_containment_and_width(self):
        rng = random.Random(37)
        for _ in range(200):
            k = rng.choice([2, 3, 4, 6])
            lo = DyadicRational(rng.randrange(1, 1 << 24), rng.randrange(-10, 4))
            hi = lo + DyadicRational(1, -20)
            iv = DyadicInterval(lo, hi)
            f = rng.randrange(10, 60)
            rt = iv.nth_root(k, f)
            assert rt.lo.to_fraction() ** k <= lo.to_fraction()
            assert rt.hi.to_fraction() ** k >= hi.to_fraction()

    def test_exact_power_roots_are_tight(self):
        iv = DyadicInterval.from_int(16)
        rt = iv.nth_root(4, 30)
        assert rt.lo == rt.hi == DyadicRational(2)

    def test_queries(self):
        iv = DyadicInterval(DyadicRational(1, -1), DyadicRational(3, -1))  # [0.5, 1.5]
        assert iv.contains_int(1)
        assert not iv.contains_int(2)
        assert iv.width() == DyadicRational(1)
        assert iv.width_within(0)
        assert not iv.width_within(1)
        assert iv.intersects(DyadicInterval.from_int(1))
        assert DyadicInterval.from_int(0).strictly_below(iv)
        outer = iv.round_outward(0)
        assert outer.lo == DyadicRational(0) and outer.hi == DyadicRational(2)
        assert outer.contains_interval(iv)


# endpoints with zero, negative and +-2000-exponent values
_EXPONENTS = st.sampled_from([-2000, 2000]) | st.integers(-2000, 2000)


def _dyadics(min_mantissa: int = -(1 << 64)):
    return st.just(DyadicRational(0)) | st.builds(
        DyadicRational, st.integers(min_mantissa, 1 << 64), _EXPONENTS
    )


@st.composite
def _intervals(draw, min_mantissa: int = -(1 << 64)):
    a, b = draw(_dyadics(min_mantissa)), draw(_dyadics(min_mantissa))
    return DyadicInterval(min(a, b), max(a, b))


def _points(iv: DyadicInterval, t: Fraction) -> list[Fraction]:
    """Both endpoints and the interior point lo + t (hi - lo) of iv."""
    lo, hi = iv.lo.to_fraction(), iv.hi.to_fraction()
    return [lo, hi, lo + t * (hi - lo)]


_FRACTIONS = st.fractions(0, 1, max_denominator=1 << 20)


class TestIntervalProperties:
    """Containment of the exact and outward-rounded operations, checked at
    both endpoints and an interior point of the input."""

    @settings(deadline=None)
    @given(_intervals(), _FRACTIONS, _dyadics())
    def test_scale_dyadic(self, iv, t, d):
        out = iv.scale_dyadic(d)
        for x in _points(iv, t):
            assert out.contains_fraction(x * d.to_fraction())

    @settings(deadline=None)
    @given(_intervals(min_mantissa=0), _FRACTIONS, st.integers(0, 5))
    def test_pow_int(self, iv, t, k):
        out = iv.pow_int(k)
        for x in _points(iv, t):
            assert out.contains_fraction(x**k)

    @settings(deadline=None)
    @given(_intervals(), _FRACTIONS, st.integers(-(1 << 70), 1 << 70))
    def test_add_int(self, iv, t, v):
        out = iv.add_int(v)
        for x in _points(iv, t):
            assert out.contains_fraction(x + v)

    @settings(deadline=None)
    @given(_intervals(), _FRACTIONS, st.integers(-64, 2100))
    def test_round_outward(self, iv, t, frac_bits):
        out = iv.round_outward(frac_bits)
        assert out.contains_interval(iv)
        for x in _points(iv, t):
            assert out.contains_fraction(x)
        grid = Fraction(2) ** -frac_bits
        assert out.width().to_fraction() < iv.width().to_fraction() + 2 * grid

    @settings(deadline=None)
    @given(_intervals(), _dyadics(), _dyadics())
    def test_intersect(self, iv, w1, w2):
        # other holds the midpoint of iv, so the two always overlap
        mid = (iv.lo + iv.hi).half()
        other = DyadicInterval(min(mid, w1), max(mid, w2))
        out = iv.intersect(other)
        assert iv.contains_interval(out) and other.contains_interval(out)
        for x in (d.to_fraction() for d in (iv.lo, iv.hi, mid, other.lo, other.hi)):
            if iv.contains_fraction(x) and other.contains_fraction(x):
                assert out.contains_fraction(x)
