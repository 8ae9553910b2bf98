"""Dyadic rationals m * 2^e and certified intervals over them.

Dyadic endpoints make every add, subtract, multiply, and comparison exact, so
an interval only ever widens at the few places that genuinely need rounding
(division, reciprocals, integer roots, conversion from non-dyadic rationals).
Those places round outward, never to nearest.  The master contract is
containment: every operation on DyadicInterval returns an interval that
contains the true real value whenever the inputs did.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "DyadicRational",
    "DyadicInterval",
    "integer_nth_root",
    "dyadic_from_fraction",
]


def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by integer Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)  # x^k >= n
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


# str() of a smaller int stays under any int-to-str digit limit the
# interpreter accepts (the lowest settable limit is 640 digits)
_STR_CHUNK = 10 ** 500


def _digits(v: int) -> str:
    """str(v) for v >= 0 of any size, split divide-and-conquer into pieces that
    str() converts without touching the process-wide int-to-str digit limit."""
    if v < _STR_CHUNK:
        return str(v)
    half = v.bit_length() * 3 // 20  # about half of the v.bit_length() * log10(2) digits
    hi, lo = divmod(v, 10 ** half)
    return _digits(hi) + _digits(lo).zfill(half)


@dataclass(frozen=True)
class DyadicRational:
    """Exact number mantissa * 2^exponent, canonical (mantissa odd or zero)."""

    mantissa: int
    exponent: int = 0

    def __post_init__(self) -> None:
        m, e = self.mantissa, self.exponent
        if m == 0:
            e = 0
        else:
            tz = (m & -m).bit_length() - 1
            if tz:
                m >>= tz
                e += tz
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "exponent", e)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(v: int) -> "DyadicRational":
        return DyadicRational(v, 0)

    # -- exact arithmetic ----------------------------------------------------

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.mantissa, self.exponent)

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        e = min(self.exponent, other.exponent)
        m = (self.mantissa << (self.exponent - e)) + (other.mantissa << (other.exponent - e))
        return DyadicRational(m, e)

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        return self + (-other)

    def __mul__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational(self.mantissa * other.mantissa, self.exponent + other.exponent)

    def mul_int(self, k: int) -> "DyadicRational":
        return DyadicRational(self.mantissa * k, self.exponent)

    def pow_int(self, k: int) -> "DyadicRational":
        if k < 0:
            raise ValueError("only non-negative integer powers are exact")
        return DyadicRational(self.mantissa ** k, self.exponent * k)

    def half(self) -> "DyadicRational":
        return DyadicRational(self.mantissa, self.exponent - 1)

    # -- exact comparison ----------------------------------------------------

    def _cmp(self, other: "DyadicRational") -> int:
        d = self.exponent - other.exponent
        if d >= 0:
            a, b = self.mantissa << d, other.mantissa
        else:
            a, b = self.mantissa, other.mantissa << (-d)
        return (a > b) - (a < b)

    def __lt__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) >= 0

    @property
    def sign(self) -> int:
        return (self.mantissa > 0) - (self.mantissa < 0)

    # -- directed rounding to a fixed grid ------------------------------------

    def round_down_bits(self, frac_bits: int) -> "DyadicRational":
        """Largest multiple of 2^-frac_bits that is <= self."""
        shift = -frac_bits - self.exponent
        if shift <= 0:
            return self
        return DyadicRational(self.mantissa >> shift, -frac_bits)

    def round_up_bits(self, frac_bits: int) -> "DyadicRational":
        """Smallest multiple of 2^-frac_bits that is >= self."""
        shift = -frac_bits - self.exponent
        if shift <= 0:
            return self
        return DyadicRational(-((-self.mantissa) >> shift), -frac_bits)

    # -- conversions -----------------------------------------------------------

    def to_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent, 1)
        return Fraction(self.mantissa, 1 << (-self.exponent))

    def decimal_str(self) -> str:
        """Exact decimal rendering (dyadics always terminate in base 10)."""
        m, e = self.mantissa, self.exponent
        sign = "-" if m < 0 else ""
        am = -m if m < 0 else m
        if e >= 0:
            return sign + _digits(am << e)
        f = -e
        int_part = am >> f
        rem = am - (int_part << f)
        digits = _digits(rem * 5 ** f).zfill(f).rstrip("0")
        return f"{sign}{_digits(int_part)}.{digits}"

    def __repr__(self) -> str:
        return f"DyadicRational({self.decimal_str()})"


ZERO = DyadicRational(0)


def dyadic_from_fraction(fr: Fraction, frac_bits: int, up: bool) -> DyadicRational:
    """Round an exact rational onto the 2^-frac_bits grid in one direction."""
    num = fr.numerator << frac_bits
    den = fr.denominator
    q = -((-num) // den) if up else num // den
    return DyadicRational(q, -frac_bits)


def _outward(lo: Fraction, hi: Fraction, frac_bits: int) -> "DyadicInterval":
    """[lo rounded down, hi rounded up] on the 2^-frac_bits grid."""
    return DyadicInterval(
        dyadic_from_fraction(lo, frac_bits, up=False), dyadic_from_fraction(hi, frac_bits, up=True)
    )


@dataclass(frozen=True)
class DyadicInterval:
    """Certified enclosure [lo, hi]; the true value is always inside."""

    lo: DyadicRational
    hi: DyadicRational

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted interval: lo={self.lo!r} hi={self.hi!r}")

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def from_int(v: int) -> "DyadicInterval":
        d = DyadicRational.from_int(v)
        return DyadicInterval(d, d)

    @staticmethod
    def zero() -> "DyadicInterval":
        return DyadicInterval(ZERO, ZERO)

    # -- exact interval arithmetic ----------------------------------------------

    def __neg__(self) -> "DyadicInterval":
        return DyadicInterval(-self.hi, -self.lo)

    def __add__(self, other: "DyadicInterval") -> "DyadicInterval":
        return DyadicInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "DyadicInterval") -> "DyadicInterval":
        return DyadicInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "DyadicInterval") -> "DyadicInterval":
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return DyadicInterval(min(products), max(products))

    def add_int(self, v: int) -> "DyadicInterval":
        d = DyadicRational.from_int(v)
        return DyadicInterval(self.lo + d, self.hi + d)

    def scale_int(self, k: int) -> "DyadicInterval":
        if k >= 0:
            return DyadicInterval(self.lo.mul_int(k), self.hi.mul_int(k))
        return DyadicInterval(self.hi.mul_int(k), self.lo.mul_int(k))

    def scale_dyadic(self, d: DyadicRational) -> "DyadicInterval":
        if d.sign >= 0:
            return DyadicInterval(self.lo * d, self.hi * d)
        return DyadicInterval(self.hi * d, self.lo * d)

    def pow_int(self, k: int) -> "DyadicInterval":
        """Exact k-th power for intervals with lo >= 0 (the only case needed)."""
        if self.lo.sign < 0:
            raise ValueError("pow_int requires a non-negative interval")
        return DyadicInterval(self.lo.pow_int(k), self.hi.pow_int(k))

    # -- rounded operations (outward only) ----------------------------------------

    def div_by_posint(self, k: int, frac_bits: int) -> "DyadicInterval":
        if k <= 0:
            raise ValueError(f"divisor must be positive, got {k}")
        return _outward(self.lo.to_fraction() / k, self.hi.to_fraction() / k, frac_bits)

    def mul_fraction(self, fr: Fraction, frac_bits: int) -> "DyadicInterval":
        """Outward product with an exact positive rational scalar."""
        if fr <= 0:
            raise ValueError("mul_fraction requires a positive scalar")
        return _outward(self.lo.to_fraction() * fr, self.hi.to_fraction() * fr, frac_bits)

    def reciprocal(self, frac_bits: int) -> "DyadicInterval":
        if self.lo.sign <= 0:
            raise ValueError("reciprocal requires a strictly positive interval")
        return _outward(1 / self.hi.to_fraction(), 1 / self.lo.to_fraction(), frac_bits)

    def nth_root(self, k: int, frac_bits: int) -> "DyadicInterval":
        """Outward k-th root of a non-negative interval on the 2^-frac_bits grid."""
        if self.lo.sign < 0:
            raise ValueError("nth_root requires a non-negative interval")

        def root(d: DyadicRational, up: bool) -> DyadicRational:
            # k-th root of d * 2^(k * frac_bits) = m * 2^s, rounded down or up
            m, s = d.mantissa, d.exponent + k * frac_bits
            r = integer_nth_root(m << s if s >= 0 else m >> (-s), k)
            if up:
                # step up until r^k >= m * 2^s, compared exactly
                while r ** k < (m << s) if s >= 0 else (r ** k) << (-s) < m:
                    r += 1
            return DyadicRational(r, -frac_bits)

        return DyadicInterval(root(self.lo, False), root(self.hi, True))

    def round_outward(self, frac_bits: int) -> "DyadicInterval":
        return DyadicInterval(
            self.lo.round_down_bits(frac_bits), self.hi.round_up_bits(frac_bits)
        )

    def intersect(self, other: "DyadicInterval") -> "DyadicInterval":
        lo = self.lo if self.lo >= other.lo else other.lo
        hi = self.hi if self.hi <= other.hi else other.hi
        return DyadicInterval(lo, hi)

    # -- queries -------------------------------------------------------------------

    def width(self) -> DyadicRational:
        return self.hi - self.lo

    def width_within(self, p: int) -> bool:
        """True iff width <= 2^-p (exact comparison)."""
        return self.width() <= DyadicRational(1, -p)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains_int(self, v: int) -> bool:
        d = DyadicRational.from_int(v)
        return self.lo <= d <= self.hi

    def contains_fraction(self, fr: Fraction) -> bool:
        return self.lo.to_fraction() <= fr <= self.hi.to_fraction()

    def contains_interval(self, other: "DyadicInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "DyadicInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def strictly_below(self, other: "DyadicInterval") -> bool:
        return self.hi < other.lo

    def __repr__(self) -> str:
        return f"[{self.lo.decimal_str()}, {self.hi.decimal_str()}]"
