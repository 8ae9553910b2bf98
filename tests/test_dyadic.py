"""Dyadic rationals and intervals: exactness, rounding direction, containment."""

from __future__ import annotations

import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from log2lab.dyadic import (
    DyadicInterval,
    DyadicRational,
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
            assert (a < b) == (fa < fb)
            assert (a <= b) == (fa <= fb)
            assert (a > b) == (fa > fb)
            assert (a >= b) == (fa >= fb)

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

    def test_numerator_denominator_are_the_fractions(self):
        rng = random.Random(19)
        for d in [DyadicRational(0), DyadicRational(-12, 3)] + [rand_dyadic(rng) for _ in range(300)]:
            fr = d.to_fraction()
            assert (d.numerator, d.denominator) == (fr.numerator, fr.denominator), d

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
            lo = rng.randrange(1, 1 << 30) << (22 + rng.randrange(-20, 4))
            iv = DyadicInterval.from_mantissas(lo, lo + rng.randrange(0, 1 << 10), -22)
            x = iv.lo.to_fraction() + _width(iv) / 7
            f = rng.randrange(8, 70)
            assert iv.reciprocal(f).contains_fraction(1 / x)
            k = rng.randrange(1, 100)
            assert iv.div_by_posint(k, f).contains_fraction(x / k)

    def test_nth_root_containment_and_width(self):
        rng = random.Random(37)
        for _ in range(200):
            k = rng.choice([2, 3, 4, 6])
            lo = rng.randrange(1, 1 << 24) << (20 + rng.randrange(-10, 4))
            iv = DyadicInterval.from_mantissas(lo, lo + 1, -20)
            f = rng.randrange(10, 60)
            rt = iv.nth_root(k, f)
            assert rt.lo.to_fraction() ** k <= iv.lo.to_fraction()
            assert rt.hi.to_fraction() ** k >= iv.hi.to_fraction()

    def test_exact_power_roots_are_tight(self):
        iv = DyadicInterval.from_mantissas(16, 16, 0)
        rt = iv.nth_root(4, 30)
        assert rt.lo == rt.hi == DyadicRational(2)

    def test_queries(self):
        iv = DyadicInterval(DyadicRational(1, -1), DyadicRational(3, -1))  # [0.5, 1.5]
        assert iv.contains_int(1)
        assert not iv.contains_int(2)
        assert iv.width_within(0)
        assert not iv.width_within(1)
        assert iv.intersects(DyadicInterval.from_mantissas(1, 1, 0))
        assert DyadicInterval.from_mantissas(0, 0, 0).strictly_below(iv)
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


def _positive_intervals():
    positive = st.builds(DyadicRational, st.integers(1, 1 << 64), _EXPONENTS)
    return st.tuples(positive, positive).map(lambda ab: DyadicInterval(min(ab), max(ab)))


def _width(iv: DyadicInterval) -> Fraction:
    return iv.hi.to_fraction() - iv.lo.to_fraction()


def _points(iv: DyadicInterval, t: Fraction) -> list[Fraction]:
    """Both endpoints and the interior point lo + t (hi - lo) of iv."""
    lo, hi = iv.lo.to_fraction(), iv.hi.to_fraction()
    return [lo, hi, lo + t * (hi - lo)]


_FRACTIONS = st.fractions(0, 1, max_denominator=1 << 20)
# result grids of the rounded operations, coarser than the integers included
_FRAC_BITS = st.integers(-64, -1) | st.integers(0, 2100)


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
        assert _width(out) < _width(iv) + 2 * grid

    @settings(deadline=None)
    @given(_positive_intervals(), _FRACTIONS, _FRAC_BITS)
    def test_reciprocal(self, iv, t, frac_bits):
        out = iv.reciprocal(frac_bits)
        for x in _points(iv, t):
            assert out.contains_fraction(1 / x)
        grid = Fraction(2) ** -frac_bits
        exact = 1 / iv.lo.to_fraction() - 1 / iv.hi.to_fraction()
        assert _width(out) < exact + 2 * grid

    @settings(deadline=None)
    @given(_intervals(), _FRACTIONS, st.integers(1, 1 << 70), _FRAC_BITS)
    def test_div_by_posint(self, iv, t, k, frac_bits):
        out = iv.div_by_posint(k, frac_bits)
        for x in _points(iv, t):
            assert out.contains_fraction(x / k)
        grid = Fraction(2) ** -frac_bits
        assert _width(out) < _width(iv) / k + 2 * grid

    @settings(deadline=None)
    @given(_intervals(min_mantissa=0), _FRACTIONS, st.integers(2, 6), st.integers(0, 200))
    def test_nth_root(self, iv, t, k, frac_bits):
        # each endpoint is the nearest grid point outward of the exact root
        out = iv.nth_root(k, frac_bits)
        grid = Fraction(2) ** -frac_bits
        lo, hi = out.lo.to_fraction(), out.hi.to_fraction()
        for x in _points(iv, t):
            assert lo**k <= x <= hi**k
        assert (lo + grid) ** k > iv.lo.to_fraction()
        assert hi == 0 or (hi - grid) ** k < iv.hi.to_fraction()


class TestDecimalStrProperty:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(-(1 << 64), 1 << 64), st.integers(-20000, 20000))
    def test_round_trip(self, m, e):
        d = DyadicRational(m, e)
        text = d.decimal_str()
        assert Fraction(Decimal(text)) == d.to_fraction()
        # canonical: no trailing fractional zeros, no bare point
        assert not text.endswith(".") and ("." not in text or not text.endswith("0"))


# -- the one-grid representation -------------------------------------------------

_MANTISSAS = st.integers(-(1 << 70), 1 << 70)


@st.composite
def _grid_intervals(draw):
    """[l, h] * 2^e with mixed exponents, some stored with spare trailing zero
    bits in both mantissas (a finer grid than the value needs)."""
    a, b = draw(_MANTISSAS), draw(_MANTISSAS)
    e = draw(st.integers(-300, 300))
    z = draw(st.integers(0, 8))
    return DyadicInterval.from_mantissas(min(a, b) << z, max(a, b) << z, e - z)


def _ends(iv: DyadicInterval) -> tuple[Fraction, Fraction]:
    return iv.lo.to_fraction(), iv.hi.to_fraction()


def _floor_on_grid(x: Fraction, frac_bits: int) -> Fraction:
    g = Fraction(2) ** -frac_bits
    return (x / g).__floor__() * g


def _ceil_on_grid(x: Fraction, frac_bits: int) -> Fraction:
    g = Fraction(2) ** -frac_bits
    return (x / g).__ceil__() * g


class TestOneGridIntervals:
    """Every interval operation against exact Fraction arithmetic: equal to the
    exact interval where the operation is exact, the outward grid rounding of
    it where the operation rounds."""

    @settings(deadline=None)
    @given(_grid_intervals(), _grid_intervals())
    def test_exact_binary_operations(self, a, b):
        (al, ah), (bl, bh) = _ends(a), _ends(b)
        assert _ends(a + b) == (al + bl, ah + bh)
        assert _ends(a - b) == (al - bh, ah - bl)
        products = [al * bl, al * bh, ah * bl, ah * bh]
        assert _ends(a * b) == (min(products), max(products))
        assert _ends(-a) == (-ah, -al)

    @settings(deadline=None)
    @given(_grid_intervals(), st.integers(-(1 << 80), 1 << 80), st.integers(0, 4))
    def test_exact_scalar_operations(self, iv, v, k):
        lo, hi = _ends(iv)
        assert _ends(iv.add_int(v)) == (lo + v, hi + v)
        assert _ends(iv.scale_int(v)) == (min(lo * v, hi * v), max(lo * v, hi * v))
        d = DyadicRational(v, k - 2)
        dv = d.to_fraction()
        assert _ends(iv.scale_dyadic(d)) == (min(lo * dv, hi * dv), max(lo * dv, hi * dv))
        if lo >= 0:
            assert _ends(iv.pow_int(k)) == (lo**k, hi**k)

    @settings(deadline=None)
    @given(_grid_intervals(), _FRAC_BITS)
    def test_round_outward_and_outward_mantissas(self, iv, frac_bits):
        lo, hi = _ends(iv)
        want = (_floor_on_grid(lo, frac_bits), _ceil_on_grid(hi, frac_bits))
        assert _ends(iv.round_outward(frac_bits)) == want
        m_lo, m_hi = iv.outward_mantissas(frac_bits)
        grid = Fraction(2) ** -frac_bits
        assert (m_lo * grid, m_hi * grid) == want

    @settings(deadline=None)
    @given(_grid_intervals(), st.integers(1, 1 << 70), _FRAC_BITS)
    def test_div_by_posint(self, iv, k, frac_bits):
        lo, hi = _ends(iv)
        assert _ends(iv.div_by_posint(k, frac_bits)) == (
            _floor_on_grid(lo / k, frac_bits), _ceil_on_grid(hi / k, frac_bits)
        )

    @settings(deadline=None)
    @given(_grid_intervals(), _FRAC_BITS)
    def test_mul_fraction_and_reciprocal(self, iv, frac_bits):
        lo, hi = _ends(iv)
        if lo > 0:
            assert _ends(iv.reciprocal(frac_bits)) == (
                _floor_on_grid(1 / hi, frac_bits), _ceil_on_grid(1 / lo, frac_bits)
            )

    @settings(deadline=None)
    @given(_grid_intervals(), _grid_intervals())
    def test_comparisons(self, a, b):
        (al, ah), (bl, bh) = _ends(a), _ends(b)
        assert a.strictly_below(b) == (ah < bl)
        assert a.contains_interval(b) == (al <= bl and bh <= ah)
        assert a.intersects(b) == (al <= bh and bl <= ah)
        for x in (bl, bh, (bl + bh) / 2):
            assert a.contains_fraction(x) == (al <= x <= ah)
        for v in (bl.__floor__(), bh.__ceil__(), al.__ceil__()):
            assert a.contains_int(v) == (al <= v <= ah)
        assert a.is_point() == (al == ah)

    @settings(deadline=None)
    @given(_grid_intervals(), st.integers(-400, 400))
    def test_width_within(self, iv, p):
        lo, hi = _ends(iv)
        assert iv.width_within(p) == (hi - lo <= Fraction(2) ** -p)

    @settings(deadline=None)
    @given(_grid_intervals(), st.integers(0, 40))
    def test_equal_values_on_different_grids(self, iv, k):
        lo, hi = iv.lo, iv.hi
        e = min(lo.exponent, hi.exponent) - k
        finer = DyadicInterval.from_mantissas(
            lo.mantissa << (lo.exponent - e), hi.mantissa << (hi.exponent - e), e
        )
        for other in (finer, DyadicInterval(lo, hi)):
            assert other == iv and hash(other) == hash(iv)
            assert other.lo == lo and other.hi == hi
        wider = iv + DyadicInterval(DyadicRational(0), DyadicRational(1, -k))
        assert wider != iv

    @settings(deadline=None)
    @given(_grid_intervals())
    def test_pickle_round_trip(self, iv):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(iv, protocol))
            assert type(back) is DyadicInterval and back == iv
            assert (back.lo, back.hi) == (iv.lo, iv.hi)
            assert hash(back) == hash(iv)
            lo = pickle.loads(pickle.dumps(iv.lo, protocol))
            assert type(lo) is DyadicRational and lo == iv.lo and hash(lo) == hash(iv.lo)

    def test_inverted_intervals_raise(self):
        with pytest.raises(ValueError, match="inverted"):
            DyadicInterval(DyadicRational(1, -3), DyadicRational(1, -4))
        with pytest.raises(ValueError, match="inverted"):
            DyadicInterval.from_mantissas(2, 1, -5)
