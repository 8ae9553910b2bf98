"""Dyadic rationals m * 2^e and certified intervals over them.

A ``DyadicInterval`` is two integer mantissas on one shared exponent,
[l * 2^e, h * 2^e].  The grid 2^e is the finest one either endpoint needs, and
the mantissas are not reduced: two intervals equal in value compare and hash
equal whatever grids they are stored on.  ``.lo`` and ``.hi`` hand out the
endpoints as canonical ``DyadicRational`` values (mantissa odd or zero).

On one grid, add, subtract, negate, multiply, ``add_int``, ``scale_int``,
``scale_dyadic`` and ``pow_int`` are exact: each aligns its operands with one
shift, does integer arithmetic on the mantissas, and builds one object.  So
are the comparisons (``contains_*``, ``intersects``, ``strictly_below``,
``width_within``), which work on aligned mantissas.  An interval only ever
widens at the few places that genuinely need rounding: ``round_outward`` and
``outward_mantissas`` onto a coarser grid, and ``div_by_posint``,
``reciprocal`` and ``nth_root`` onto a 2^-frac_bits grid.  Those round outward
by floor and ceiling integer division, never to nearest.  The master contract
is containment: every operation on DyadicInterval returns an interval that
contains the true real value whenever the inputs did.

A ``DyadicRational`` is only an endpoint value: it compares exactly, and it
reads out as a sign, a numerator and denominator, or an exact decimal.

Both classes are immutable by convention; they use ``__slots__`` rather than a
frozen dataclass so that building one costs a few attribute stores.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DyadicRational",
    "DyadicInterval",
    "integer_nth_root",
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


@lru_cache(maxsize=64)
def _pow5(f: int) -> int:
    """5^f, kept for the few grids a run renders on."""
    return 5**f


class DyadicRational:
    """Exact number mantissa * 2^exponent, canonical (mantissa odd or zero)."""

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0) -> None:
        if mantissa:
            tz = (mantissa & -mantissa).bit_length() - 1
            if tz:
                mantissa >>= tz
                exponent += tz
        else:
            exponent = 0
        self.mantissa = mantissa
        self.exponent = exponent

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DyadicRational:
            return NotImplemented
        return self.mantissa == other.mantissa and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.mantissa, self.exponent))

    def __reduce__(self):
        return DyadicRational, (self.mantissa, self.exponent)

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

    # -- as a ratio of integers, in lowest terms, like a Fraction --------------

    @property
    def numerator(self) -> int:
        return self.mantissa << self.exponent if self.exponent > 0 else self.mantissa

    @property
    def denominator(self) -> int:
        return 1 << -self.exponent if self.exponent < 0 else 1

    # -- conversions -----------------------------------------------------------

    def to_fraction(self) -> Fraction:
        from fractions import Fraction  # here, so that only a caller loads it

        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent, 1)
        return Fraction(self.mantissa, 1 << (-self.exponent))

    def decimal_str(self) -> str:
        """Exact decimal rendering (dyadics always terminate in base 10).

        m 2^-f is m 5^f / 10^f, so the digits are those of |m| 5^f with the
        point f places from the right; m is odd, so the last one is not 0.
        """
        m, e = self.mantissa, self.exponent
        sign = "-" if m < 0 else ""
        if e >= 0:
            return sign + _digits(abs(m) << e)
        v = abs(m) * _pow5(-e)
        digits = (str(v) if v < _STR_CHUNK else _digits(v)).zfill(1 - e)
        return f"{sign}{digits[:e]}.{digits[e:]}"

    def __repr__(self) -> str:
        return f"DyadicRational({self.decimal_str()})"


def _scaled_floor(num: int, den: int, shift: int) -> int:
    """floor(num * 2^shift / den) for den > 0."""
    if shift >= 0:
        return (num << shift) // den
    return num // (den << -shift)


def _interval(l: int, h: int, e: int) -> "DyadicInterval":
    """[l * 2^e, h * 2^e] for l <= h, unchecked: the one way every operation
    builds its result (and the pickled form)."""
    iv = object.__new__(DyadicInterval)
    iv._l = l
    iv._h = h
    iv._e = e
    return iv


class DyadicInterval:
    """Certified enclosure [lo, hi]; the true value is always inside.

    Stored as integer mantissas l <= h on one exponent e, meaning
    [l * 2^e, h * 2^e]; see the module docstring.
    """

    __slots__ = ("_l", "_h", "_e")

    def __init__(self, lo: DyadicRational, hi: DyadicRational) -> None:
        e = lo.exponent if lo.exponent < hi.exponent else hi.exponent
        l = lo.mantissa << (lo.exponent - e)
        h = hi.mantissa << (hi.exponent - e)
        if l > h:
            raise ValueError(f"inverted interval: lo={lo!r} hi={hi!r}")
        self._l = l
        self._h = h
        self._e = e

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def from_mantissas(lo: int, hi: int, exponent: int) -> "DyadicInterval":
        """[lo * 2^exponent, hi * 2^exponent]; ValueError if lo > hi."""
        if lo > hi:
            raise ValueError(f"inverted interval: lo={lo} hi={hi} at 2^{exponent}")
        return _interval(lo, hi, exponent)

    @staticmethod
    def zero() -> "DyadicInterval":
        return _interval(0, 0, 0)

    # -- endpoints, equality, pickling ----------------------------------------------

    @property
    def lo(self) -> DyadicRational:
        return DyadicRational(self._l, self._e)

    @property
    def hi(self) -> DyadicRational:
        return DyadicRational(self._h, self._e)

    def _aligned(self, other: "DyadicInterval") -> tuple[int, int, int, int, int]:
        """(l, h, other's l, other's h, e): both intervals on the finer grid."""
        d = self._e - other._e
        if d >= 0:
            return self._l << d, self._h << d, other._l, other._h, other._e
        return self._l, self._h, other._l << -d, other._h << -d, self._e

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DyadicInterval:
            return NotImplemented
        l, h, ol, oh, _ = self._aligned(other)
        return l == ol and h == oh

    def __hash__(self) -> int:
        # by value: strip the trailing zero bits the two mantissas share
        l, h, e = self._l, self._h, self._e
        common = l | h
        if not common:
            return hash((0, 0, 0))
        tz = (common & -common).bit_length() - 1
        return hash((l >> tz, h >> tz, e + tz))

    def __reduce__(self):
        return _interval, (self._l, self._h, self._e)

    # -- exact interval arithmetic ----------------------------------------------

    def __neg__(self) -> "DyadicInterval":
        return _interval(-self._h, -self._l, self._e)

    def __add__(self, other: "DyadicInterval") -> "DyadicInterval":
        d = self._e - other._e
        if d >= 0:
            return _interval((self._l << d) + other._l, (self._h << d) + other._h, other._e)
        return _interval(self._l + (other._l << -d), self._h + (other._h << -d), self._e)

    def __sub__(self, other: "DyadicInterval") -> "DyadicInterval":
        d = self._e - other._e
        if d >= 0:
            return _interval((self._l << d) - other._h, (self._h << d) - other._l, other._e)
        return _interval(self._l - (other._h << -d), self._h - (other._l << -d), self._e)

    def __mul__(self, other: "DyadicInterval") -> "DyadicInterval":
        l1, h1, l2, h2 = self._l, self._h, other._l, other._h
        e = self._e + other._e
        if l1 >= 0 and l2 >= 0:
            return _interval(l1 * l2, h1 * h2, e)
        products = (l1 * l2, l1 * h2, h1 * l2, h1 * h2)
        return _interval(min(products), max(products), e)

    def add_int(self, v: int) -> "DyadicInterval":
        e = self._e
        if e <= 0:
            v <<= -e
            return _interval(self._l + v, self._h + v, e)
        return _interval((self._l << e) + v, (self._h << e) + v, 0)

    def scale_int(self, k: int) -> "DyadicInterval":
        if k >= 0:
            return _interval(self._l * k, self._h * k, self._e)
        return _interval(self._h * k, self._l * k, self._e)

    def scale_dyadic(self, d: DyadicRational) -> "DyadicInterval":
        m = d.mantissa
        if m >= 0:
            return _interval(self._l * m, self._h * m, self._e + d.exponent)
        return _interval(self._h * m, self._l * m, self._e + d.exponent)

    def pow_int(self, k: int) -> "DyadicInterval":
        """Exact k-th power for intervals with lo >= 0 (the only case needed)."""
        if self._l < 0:
            raise ValueError("pow_int requires a non-negative interval")
        if k < 0:
            raise ValueError("only non-negative integer powers are exact")
        return _interval(self._l ** k, self._h ** k, self._e * k)

    # -- rounded operations (outward only) ----------------------------------------

    def div_by_posint(self, k: int, frac_bits: int) -> "DyadicInterval":
        if k <= 0:
            raise ValueError(f"divisor must be positive, got {k}")
        # l 2^e / k rounded down and h 2^e / k rounded up, on the 2^-frac_bits grid
        s = self._e + frac_bits
        return _interval(_scaled_floor(self._l, k, s), -_scaled_floor(-self._h, k, s), -frac_bits)

    def reciprocal(self, frac_bits: int) -> "DyadicInterval":
        if self._l <= 0:
            raise ValueError("reciprocal requires a strictly positive interval")
        # 1 / (h 2^e) = 2^-e / h, rounded down; 2^-e / l rounded up
        s = frac_bits - self._e
        return _interval(
            _scaled_floor(1, self._h, s), -_scaled_floor(-1, self._l, s), -frac_bits
        )

    def nth_root(self, k: int, frac_bits: int) -> "DyadicInterval":
        """Outward k-th root of a non-negative interval on the 2^-frac_bits grid."""
        if self._l < 0:
            raise ValueError("nth_root requires a non-negative interval")
        # the k-th root of m * 2^(e + k * frac_bits) = m * 2^s, rounded down or up
        s = self._e + k * frac_bits

        def root(m: int, up: bool) -> int:
            r = integer_nth_root(m << s if s >= 0 else m >> (-s), k)
            if up:
                # step up until r^k >= m * 2^s, compared exactly
                while r ** k < (m << s) if s >= 0 else (r ** k) << (-s) < m:
                    r += 1
            return r

        return _interval(root(self._l, False), root(self._h, True), -frac_bits)

    def outward_mantissas(self, frac_bits: int) -> tuple[int, int]:
        """(lo, hi) with [lo, hi] * 2^-frac_bits the outward rounding of self
        onto the 2^-frac_bits grid (exact when self is on it already)."""
        shift = -frac_bits - self._e
        if shift <= 0:
            return self._l << -shift, self._h << -shift
        return self._l >> shift, -((-self._h) >> shift)

    def round_outward(self, frac_bits: int) -> "DyadicInterval":
        """``outward_mantissas`` as an interval on the 2^-frac_bits grid."""
        shift = -frac_bits - self._e
        if shift <= 0:
            return _interval(self._l << -shift, self._h << -shift, -frac_bits)
        return _interval(self._l >> shift, -((-self._h) >> shift), -frac_bits)

    # -- queries -------------------------------------------------------------------

    def width_within(self, p: int) -> bool:
        """True iff width <= 2^-p (exact comparison)."""
        w, s = self._h - self._l, self._e + p
        return (w << s) <= 1 if s >= 0 else w <= (1 << -s)

    def is_point(self) -> bool:
        return self._l == self._h

    def contains_int(self, v: int) -> bool:
        e = self._e
        if e >= 0:
            return (self._l << e) <= v <= (self._h << e)
        v <<= -e
        return self._l <= v <= self._h

    def contains_fraction(self, fr: Fraction) -> bool:
        num, den, e = fr.numerator, fr.denominator, self._e
        if e >= 0:
            return (self._l * den) << e <= num <= (self._h * den) << e
        num <<= -e
        return self._l * den <= num <= self._h * den

    def contains_interval(self, other: "DyadicInterval") -> bool:
        l, h, ol, oh, _ = self._aligned(other)
        return l <= ol and oh <= h

    def intersects(self, other: "DyadicInterval") -> bool:
        l, h, ol, oh, _ = self._aligned(other)
        return l <= oh and ol <= h

    def strictly_below(self, other: "DyadicInterval") -> bool:
        d = self._e - other._e
        if d >= 0:
            return (self._h << d) < other._l
        return self._h < (other._l << -d)

    def __repr__(self) -> str:
        return f"[{self.lo.decimal_str()}, {self.hi.decimal_str()}]"

