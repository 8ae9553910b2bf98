"""Certified dyadic-interval enclosures of log2 quantities.

Every logarithm here comes from one series: ln(1 + y) = 2 atanh(y / (2 + y))
for a rational y in [-1/2, 1], summed in scaled integers with every product
and quotient rounded in its own direction and the tail after the last term
bounded by a geometric series (Brent & Zimmermann, *Modern Computer
Arithmetic*, section 4.4).  On that range |y / (2 + y)| <= 1/3, so each term
gains at least log2 9 bits, and for |y| ~ 2^-k about p / (2k) terms reach
2^-p.  All state is integer, so results are bit-identical across runs and
platforms.

* log2 of a positive rational is reduced exactly to 2^k r with r in [1, 2),
  and log2 r is log2 e times the series at y = r - 1;
* ``log2_1p``, log2(1 + y) for y near 0, is the same without the reduction;
* ln 2 is the series at y = 1, that is 2 atanh(1/3).

Integer parts of logarithms are never taken from intervals; they come from the
exact kernels in :mod:`log2lab.exact`, which is what keeps fractional parts
from being mis-assigned near powers of two.

log2 n! comes from the exact factorial for n below a switch n0 = 2p, and from
the Stirling series above it (DLMF 5.11.1, with z = n, plus ln n):

    ln n! = (n + 1/2) ln n - n + ln(2 pi) / 2
            + sum_{k <= K} B_2k / (2k (2k - 1) n^(2k - 1)) + R_K(n).

For real n > 0 the remainder R_K(n) has the sign of the first omitted term and
is smaller in magnitude (DLMF 5.11(ii); Whittaker & Watson, section 12.33), so
the series stops at the first term below one ulp of its scale and covers the
remainder with one ulp on that term's side.  ``_alternating_sum`` does that
for any such series of exact terms; Machin's arctangents for pi are the other
one it sums.  The Bernoulli numbers are exact,
from the tangent numbers (Brent & Harvey, "Fast computation of Bernoulli,
Tangent and Secant numbers", 2011), and are computed on first use.  In log2
the only logs are log2 n, log2 e and log2 pi, so an enclosure costs one log core
call (none when log2 n is cached) for every n.  ``log2_int_enclosure`` keeps a
few recent results, so the n-scaled parts of a compared row, which all take
log2 n at one precision, share one call per attempt; ``_stirling_base`` keeps
the last base, so a compared row's sides add to the one its log2 n! took.

G(n), the sum of the fractional parts {log2(n/m)} that only ``error-term``
and ``g-value`` run, is log2(n^n / n!) - v_2(n!), with n! and n^n held as
certified integer brackets [lo, hi] 2^ex of w-bit mantissas, each product
truncated outward.  n! is a cached bracket of A! for A = n - (n mod 256), by
Legendre's prime powers, times the exact (A + 1)...n.  The primes are
streamed by a segmented sieve (Bays & Hudson, BIT 17, 1977) in pieces of at
most 2^20 numbers, so a G(n) keeps no prime and costs one log core call and
O(pi(n)) w-bit products.

Every non-exact primitive enclosure at precision p is a bracket at most two
ulps wide on the 2^-(p+4) grid, padded outward by two ulps.  The pad costs a
fraction of the width budget and buys a structural guarantee: the true value
sits at least 2^-(p+3) away from both endpoints, so a recomputation at any
materially higher precision lands strictly inside the original interval (the
nesting property the test suite quantifies over a randomized corpus).  The
Stirling log2 n! is rounded onto the same grid and padded the same way.

Named constants are evaluated once per precision: ln 2 from the log series,
and two classical series with explicit tail bounds:

* pi    = 16 atan(1/5) - 4 atan(1/239) (Machin), alternating series whose
  truncation error is bounded by the first omitted term, summed by
  ``_alternating_sum`` like the Stirling series;
* e     = sum 1/i!, positive terms, tail after K bounded by 2/(K+1)!, so it
  keeps its own loop.

The log series keeps its own loop too: its powers of t are rounded onto a grid
as they go, so its terms are not the exact ratios ``_alternating_sum`` takes.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import TYPE_CHECKING

from . import exact
from .dyadic import DyadicInterval, DyadicRational
from .exact import (
    DomainError,
    ResourceLimitError,
    _check_precision,
    floor_log2_fraction,
    g_cost,
    require_positive,
    stirling_plan,
)

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator
    from fractions import Fraction

__all__ = [
    "log2_fraction",
    "log2_int_enclosure",
    "log2_1p",
    "G_enclosure",
    "log2_factorial_enclosure",
    "log2_factorial_by_factorial",
    "ln2_interval",
    "pi_interval",
    "e_interval",
    "log2_e_interval",
    "log2_pi_interval",
]


# A padded bracket at precision p: a bracket at most 2 ulps wide on the
# 2^-(p + _BRACKET_BITS) grid, widened by _PAD_ULPS on each side.  It is at most
# 6/16 * 2^-p wide, and the true value lies 2^-(p+3) or more inside it.
_BRACKET_BITS = 4
_PAD_ULPS = 2


def _log2_raw(num: int, den: int, p: int) -> tuple[int, int, int]:
    """Padded bracket (lo, hi, s) of log2(num/den) for num, den >= 1, on the
    2^-s grid with s = p + _BRACKET_BITS: width <= 6 ulps and the true value
    at least 2 ulps from each endpoint.  Exact powers of two return a point
    with s = 0.
    """
    g = math.gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        k = num.bit_length() - den.bit_length()
        return k, k, 0

    k = floor_log2_fraction(num, den)
    # num/den = 2^k r with r = rn/rd in [1, 2), and log2 r = log2(1 + (rn - rd)/rd)
    if k >= 0:
        rn, rd = num, den << k
    else:
        rn, rd = num << (-k), den
    lo, hi, s = _log2_1p_raw(rn - rd, rd, p)
    return lo + (k << s), hi + (k << s), s


def _raw_to_interval(lo: int, hi: int, s: int) -> DyadicInterval:
    return DyadicInterval.from_mantissas(lo, hi, -s)


def log2_fraction(fr: Fraction | DyadicRational, p: int) -> DyadicInterval:
    """Enclosure of log2 of a positive rational, width <= 2^-p: a Fraction,
    an int or a DyadicRational, read through its numerator and denominator."""
    if fr.numerator <= 0:
        raise DomainError(f"log2 argument must be positive, got {fr}")
    _check_precision(p)
    return _raw_to_interval(*_log2_raw(fr.numerator, fr.denominator, p))


# a compared row's n-scaled parts take log2 n at one precision per attempt
@lru_cache(maxsize=8)
def log2_int_enclosure(m: int, p: int) -> DyadicInterval:
    """Enclosure of log2(m) for integer m >= 1, width <= 2^-p; the last few
    results are kept."""
    require_positive("m", m)
    _check_precision(p)
    return _raw_to_interval(*_log2_raw(m, 1, p))


def _ln1p_core(num: int, den: int, s: int) -> tuple[int, int]:
    """Scaled bracket of ln(1 + y), y = num/den with -1/2 <= y <= 1, y != 0.

    Returns (lo, hi) meaning ln(1 + y) is inside [lo * 2^-s, hi * 2^-s], with
    hi - lo <= 2.  The series is 2 atanh(t) = 2 sum_i t^(2i+1) / (2i+1) with
    t = y / (2 + y), so |t| <= 1/3.  It is summed for |t| on a 2^-w grid, with
    every product and quotient rounded down in lo and up in hi.  The tail
    after a term is below (9/8) |t|^(2i+3) / (2i+3); once that is one ulp, one
    ulp covers it.
    """
    # at most w/3 + 2 terms (each gains log2 9 bits), each adding under 6
    # ulps, stay within 2^(g-1) ulps of the 2^-w grid
    g = s.bit_length() + 5
    w = s + g
    tn, td = abs(num), 2 * den + num
    pow_lo = (tn << w) // td
    pow_hi = -((-tn << w) // td)
    sq_lo = (pow_lo * pow_lo) >> w
    sq_hi = -((-pow_hi * pow_hi) >> w)
    lo = hi = 0
    k = 1  # 2i + 1
    while True:
        lo += pow_lo // k
        hi += -((-pow_hi) // k)
        pow_lo = (pow_lo * sq_lo) >> w
        pow_hi = -((-pow_hi * sq_hi) >> w)
        k += 2
        if 9 * pow_hi <= 8 * k:
            hi += 1
            break
    # twice atanh, rounded outward onto the 2^-s grid
    lo, hi = (2 * lo) >> g, -((-2 * hi) >> g)
    if num < 0:  # atanh is odd
        return -hi, -lo
    return lo, hi


def _log2_1p_raw(num: int, den: int, p: int) -> tuple[int, int, int]:
    """Padded bracket (lo, hi, s) of log2(1 + num/den) at precision p, for
    -1/2 <= num/den <= 1 and num != 0, with s = p + _BRACKET_BITS.

    log2 e times the series bracket of ln(1 + y), which is at most 2 ulps of
    2^-(s+4) wide and at most ln 2 in size, with log2 e < 1.45 held to
    2^-(s+2): the product is under 0.36 ulps of 2^-s wide, so rounded outward
    it is at most 2 ulps wide before the pad.
    """
    s = p + _BRACKET_BITS
    lo, hi = _ln1p_core(num, den, s + 4)
    e_lo, e_hi = _log2_e_mantissas(s)
    # log2 e > 0, so the least product takes e_hi only for lo < 0 and the
    # greatest takes e_lo only for hi < 0
    least = (e_lo if lo >= 0 else e_hi) * lo
    greatest = (e_hi if hi >= 0 else e_lo) * hi
    # from the 2^-(2s+10) grid onto 2^-s: floor the least, ceil the greatest
    shift = s + 10
    return (least >> shift) - _PAD_ULPS, -(-greatest >> shift) + _PAD_ULPS, s


@lru_cache(maxsize=None)
def _log2_e_mantissas(s: int) -> tuple[int, int]:
    """log2 e held to 2^-(s+2), as mantissas on the 2^-(s+6) grid: its
    enclosure lies on that grid, so the read is exact."""
    return log2_e_interval(s + 2).outward_mantissas(s + 6)


def log2_1p(y: Fraction, p: int) -> DyadicInterval:
    """Enclosure of log2(1 + y) for rational -1/2 <= y <= 1, width <= 2^-p.

    The padded bracket of ``log2_fraction(1 + y)`` without its reduction to
    [1, 2), so an argument near 1 costs a few series terms.
    """
    num, den = y.numerator, y.denominator
    if not -den <= 2 * num <= 2 * den:
        raise DomainError(f"log2_1p argument must lie in [-1/2, 1], got {y}")
    _check_precision(p)
    if num == 0:
        return DyadicInterval.zero()
    return _raw_to_interval(*_log2_1p_raw(num, den, p))


# ---------------------------------------------------------------------------
# the fractional-part sum G and log2 of factorials
# ---------------------------------------------------------------------------


# the most numbers one piece of a sieve covers: its flags take that many bytes
_SIEVE_PIECE = 1 << 20
_CHUNK = 64  # primes multiplied exactly before a product is truncated


def _prime_stream(limit: int, end: int, primes: list[int]) -> Iterator[int]:
    """The primes in (limit, end], limit >= 1, ascending, sieved by ``primes``
    (which must reach sqrt(end)) in pieces of at most _SIEVE_PIECE numbers."""
    for start in range(limit, end, _SIEVE_PIECE):
        stop = min(end, start + _SIEVE_PIECE)
        flags = bytearray([1]) * (stop - start)  # flags[i] is m = start + 1 + i
        for f in itertools.takewhile(lambda f: f * f <= stop, primes):
            first = max(f * f, (start // f + 1) * f) - start - 1
            flags[first::f] = bytes(len(range(first, stop - start, f)))
        yield from itertools.compress(range(start + 1, stop + 1), flags)


def _primes_to(m: int) -> list[int]:
    """Every prime up to m, ascending."""
    return list(_prime_stream(1, m, _primes_to(math.isqrt(m)) if m > 3 else []))


def _legendre(n: int, prime: int) -> int:
    """v_P(n!) = n // P + v_P((n // P)!) (Legendre's formula)."""
    return n // prime + _legendre(n // prime, prime) if n else 0


def _product(x: tuple[int, int, int], y: tuple[int, int, int], w: int) -> tuple[int, int, int]:
    """x y for brackets (lo, hi, ex) = [lo, hi] 2^ex, cut to w bits: lo down, hi up."""
    lo, hi = x[0] * y[0], x[1] * y[1]
    cut = max(lo.bit_length() - w, 0)
    return lo >> cut, -(-hi >> cut), x[2] + y[2] + cut


def _power(x: tuple[int, int, int], v: int, w: int) -> tuple[int, int, int]:
    """x^v for v >= 1, by squaring from the top bit of v."""
    r = x
    for bit in bin(v)[3:]:
        r = _product(r, r, w)
        if bit == "1":
            r = _product(r, x, w)
    return r


@lru_cache(maxsize=4)
def _anchor_bracket(a: int, w: int) -> tuple[int, int, int]:
    """The bracket of a!, by Legendre's formula in a fixed order: v_2(a!)
    into the exponent, each odd prime P up to sqrt(a) raised to v_P(a!),
    then the primes above it, where v_P(a!) = a // P, grouped by that
    quotient, multiplied _CHUNK at a time and raised to it."""
    root = math.isqrt(a)
    small = _primes_to(root)
    acc = (1, 1, _legendre(a, 2))
    for prime in small[1:]:
        acc = _product(acc, _power((prime, prime, 0), _legendre(a, prime), w), w)
    for v, group in itertools.groupby(_prime_stream(root, a, small), lambda P: a // P):
        product = (1, 1, 0)
        for chunk in iter(lambda: math.prod(itertools.islice(group, _CHUNK)), 1):
            product = _product(product, (chunk, chunk, 0), w)
        acc = _product(acc, _power(product, v, w), w)
    return acc


def _factorial_bracket(n: int, q: int) -> tuple[int, int, int, int]:
    """(lo, hi, ex, w) with n! in [lo, hi] * 2^ex and log2(hi / lo) <=
    2^-(q+2): the bracket of the anchor a = n - (n mod 256), a!, times the
    exact (a + 1)...n, at w = q + bit_length(n) + 8 bits.

    A truncation moves log2 of an end by under 2^-(w-2), and a power v
    multiplies what its base carries by v and adds under 2v truncations: in
    all, under 8n + 1 (the small primes' v_P(a!) add up to under 2.25n for
    every n the work ceiling admits, the groups' v to under n/2), so
    log2(hi / lo) < 2 (8n + 1) 2^-(w-2) <= 2^-(q+2).
    """
    w = q + n.bit_length() + 8
    a = n - n % 256
    tail = math.prod(range(a + 1, n + 1))
    return (*_product(_anchor_bracket(a, w), (tail, tail, 0), w), w)


def G_enclosure(n: int, p: int) -> DyadicInterval:
    """Enclosure of G(n) = sum over m <= n of {log2(n/m)}, width <= 2^-p.

    The floors of log2(n/m) add up to F = v_2(n!) (see :mod:`log2lab.exact`),
    so G(n) = log2(n^n / n!) - F.  n! is in [lo, hi] 2^ex by
    ``_factorial_bracket`` at the q of ``g_cost(n, p)``, which also holds n
    and p to the work ceiling, and n^n in [t_lo, t_hi] 2^t_ex at the same w
    (a power n: under 2n truncations an end).  log2(t_lo / hi) is a padded
    bracket at q, and log2(t_hi / lo) exceeds it by log2(1 + x) < 3x/2, x =
    t_hi hi / (t_lo lo) - 1 < 2^-(q+2), so G is under 2^-q <= 2^-(p+3)
    wide.  F is Legendre's count, not n - s2(n), so ``error-term`` still
    checks that identity.
    """
    require_positive("n", n)
    _check_precision(p)
    q, work = g_cost(n, p)
    if q > exact.MAX_PRECISION_BITS:
        raise ResourceLimitError(
            f"G({n}) at precision {p} needs {q}-bit prime brackets, "
            f"above the ceiling of {exact.MAX_PRECISION_BITS} bits"
        )
    if work > exact.WORK_CEILING:
        raise ResourceLimitError(
            f"G({n}) at precision {p} needs work of {work}, "
            f"above the work ceiling of {exact.WORK_CEILING}"
        )
    lo, hi, ex, w = _factorial_bracket(n, q)
    t_lo, t_hi, t_ex = _power((n, n, 0), n, w)
    s = q + _BRACKET_BITS
    low = _raw_to_interval(*_log2_raw(t_lo, hi, q))
    above = -((-3 * (t_hi * hi - t_lo * lo) << s) // (2 * t_lo * lo))  # 3x/2 2^s, ceiled
    return (low + DyadicInterval.from_mantissas(0, above, -s)).add_int(t_ex - ex - _legendre(n, 2))


def log2_factorial_by_factorial(n: int, p: int) -> DyadicInterval:
    """Enclosure of log2(n!) from the exact big-integer factorial."""
    require_positive("n", n)
    _check_precision(p)
    return _raw_to_interval(*_log2_raw(math.factorial(n), 1, p))


def _stirling_switch(p: int) -> int:
    """n0: log2 n! at precision p comes from the Stirling series for n >= n0.

    The smallest term of the series is about e^(-2 pi n), far below 2^-p
    there, and the terms fall by a factor 4 or more up to it."""
    return 2 * p


def _tangent_numbers(m: int) -> list[int]:
    """T_1..T_m (t[0] unused), by Brent and Harvey's in-place integer
    recurrence."""
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


# the Stirling coefficients B_2k / (2k (2k - 1)), k = 1, 2, ..., as exact
# (numerator, denominator) pairs; grown on demand, published in one assignment
_STIRLING_COEFFS: tuple[tuple[int, int], ...] = ()


def _stirling_coefficients(count: int) -> tuple[tuple[int, int], ...]:
    """At least the first ``count`` Stirling coefficients."""
    global _STIRLING_COEFFS
    if len(_STIRLING_COEFFS) < count:
        m = max(count, 2 * len(_STIRLING_COEFFS), 8)
        t = _tangent_numbers(m)
        coeffs = []
        for k in range(1, m + 1):
            # B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
            four_k = 1 << (2 * k)
            num, den = (-1) ** (k - 1) * t[k], four_k * (four_k - 1) * (2 * k - 1)
            g = math.gcd(num, den)
            coeffs.append((num // g, den // g))
        _STIRLING_COEFFS = tuple(coeffs)
    return _STIRLING_COEFFS


def _alternating_sum(terms: Iterable[tuple[int, int]], w: int) -> tuple[int, int]:
    """(lo, hi) with the sum of a series in [lo, hi] * 2^-w, for exact terms
    (num, den), den > 0, whose remainder after each term has the sign of the
    next term and is smaller than it: an alternating series of shrinking
    terms, or the Stirling series.

    Each term num/den is floored into lo and ceiled into hi.  The first term
    below one ulp is the first omitted one, and one ulp on its side covers the
    remainder, so the width is at most one ulp per kept term, plus one.  A
    finite ``terms`` that runs out first raises DomainError.

    ``e_interval`` keeps its own loop: its terms are all positive, and the tail
    after K of them is bounded by 2/(K+1)!, not by the next term.
    ``_ln1p_core`` keeps its own loop: its powers of t are rounded onto the
    2^-w grid as they go, so its terms are not exact ratios.
    """
    lo = hi = 0
    for num, den in terms:
        if abs(num) << w < den:
            if num > 0:
                hi += 1
            else:
                lo -= 1
            return lo, hi
        lo += (num << w) // den
        hi -= (-num << w) // den
    raise DomainError(f"the series does not reach 2^-{w}")


def _stirling_series(n: int, w: int) -> tuple[int, int]:
    """(lo, hi) with ln n! - ((n + 1/2) ln n - n + ln(2 pi) / 2), the sum of
    B_2k / (2k (2k - 1) n^(2k - 1)) over every k >= 1, in [lo, hi] * 2^-w,
    by ``_alternating_sum``: the remainder has the sign of the first omitted
    term and is smaller.

    The terms shrink only up to k near pi n, where they are about e^(-2 pi n),
    so the series needs w < 9n.  For the w that log2 n! at n >= 2p asks
    (about n / 2), each of the first (w + 1) / 2 terms is at least 4 times
    smaller than the one before, so at most that many are kept; a series
    past w + 1 terms is refused.
    """

    def terms():
        coeffs = _STIRLING_COEFFS
        n_pow = n  # n^(2k - 1)
        for k in range(w + 1):
            if k == len(coeffs):
                coeffs = _stirling_coefficients(k + 1)  # grown on demand
            num, den = coeffs[k]
            yield num, den * n_pow
            n_pow *= n * n
        raise DomainError(f"the Stirling series at n={n} does not reach 2^-{w}")

    return _alternating_sum(terms(), w)


_HALF = DyadicRational(1, -1)


@lru_cache(maxsize=1)
def _stirling_base(n: int, p: int) -> DyadicInterval:
    """(n + 1/2) log2 n - n log2 e + log2(2 pi) / 2 at the precisions of
    ``stirling_plan(p, bits)``: the base of the Stirling log2 n! at p, and
    of the Robbins and Ramanujan sides of an attempt whose log2 n! is at p.
    The last base is kept, so an attempt forms one."""
    half, log_n, _ = stirling_plan(p, n.bit_length())
    return (
        log2_int_enclosure(n, log_n).scale_dyadic(DyadicRational(2 * n + 1, -1))
        + log2_pi_interval(half).add_int(1).scale_dyadic(_HALF)
        - log2_e_interval(log_n).scale_int(n)
    )


def log2_factorial_enclosure(n: int, p: int) -> DyadicInterval:
    """Enclosure of log2(n!), width <= 2^-p.

    From the exact factorial for n below ``_stirling_switch(p)``, and from the
    Stirling series above it, ``_stirling_base`` plus log2 e times a series:

        (n + 1/2) log2 n - n log2 e + log2(2 pi) / 2 + log2 e * (series),

    four parts held to 2^-(p+3) each, with log2 n and log2 e at the
    ``log_n`` of ``stirling_plan``.  The sum is rounded outward onto the
    2^-(p+4) grid and padded by two ulps there, so it nests like a core
    bracket.  The series keeps one ulp per term of 2^-(p + 5 + bit_length(p)
    + 2): it keeps at most about w/2 terms, which stay within 2^-(p+5).
    """
    require_positive("n", n)
    _check_precision(p)
    if n < _stirling_switch(p):
        return log2_factorial_by_factorial(n, p)
    _, log_n, w = stirling_plan(p, n.bit_length())
    series = _raw_to_interval(*_stirling_series(n, w), w)
    s = p + _BRACKET_BITS
    lo, hi = (_stirling_base(n, p) + log2_e_interval(log_n) * series).outward_mantissas(s)
    return _raw_to_interval(lo - _PAD_ULPS, hi + _PAD_ULPS, s)


# ---------------------------------------------------------------------------
# named constants
# ---------------------------------------------------------------------------

_CONST_GUARD = 16
_CONST_PAD = 1 << (_CONST_GUARD - 3)


@lru_cache(maxsize=None)
def ln2_interval(p: int) -> DyadicInterval:
    """Enclosure of ln 2 = ln(1 + 1), width <= 2^-p: the log series at y = 1,
    padded like every bracket."""
    s = p + _BRACKET_BITS
    lo, hi = _ln1p_core(1, 1, s)
    return _raw_to_interval(lo - _PAD_ULPS, hi + _PAD_ULPS, s)


def _atan_inv_scaled(x: int, w: int) -> tuple[int, int]:
    """Directed scaled bracket of atan(1/x) at scale 2^-w, x >= 2: the
    alternating series sum_i (-1)^i / ((2i + 1) x^(2i + 1)), by
    ``_alternating_sum``, whose truncation error the first omitted term covers.

    ``pi_interval`` sums at w >= 20, and 2^20 > 239, so the first term 1/x is
    always kept.
    """

    def terms():
        power = x  # x^(2i + 1)
        for i in itertools.count():
            yield (-1) ** i, (2 * i + 1) * power
            power *= x * x

    return _alternating_sum(terms(), w)


@lru_cache(maxsize=None)
def pi_interval(p: int) -> DyadicInterval:
    """Enclosure of pi by Machin's formula 16 atan(1/5) - 4 atan(1/239)."""
    w = p + _CONST_GUARD
    a_lo, a_hi = _atan_inv_scaled(5, w)
    b_lo, b_hi = _atan_inv_scaled(239, w)
    return _raw_to_interval(
        16 * a_lo - 4 * b_hi - _CONST_PAD, 16 * a_hi - 4 * b_lo + _CONST_PAD, w
    )


@lru_cache(maxsize=None)
def e_interval(p: int) -> DyadicInterval:
    """Enclosure of e = sum 1/i!; the tail after K is below 2/(K+1)!."""
    w = p + _CONST_GUARD
    lo = 0
    hi = 0
    fact = 1
    i = 0
    while True:
        num = 1 << w
        lo += num // fact
        hi += -((-num) // fact)
        nxt = fact * (i + 1)
        if (2 * num) // nxt == 0:
            hi += 1  # outward cover for the tail
            break
        fact = nxt
        i += 1
    return _raw_to_interval(lo - _CONST_PAD, hi + _CONST_PAD, w)


@lru_cache(maxsize=None)
def log2_e_interval(p: int) -> DyadicInterval:
    """Enclosure of log2 e = 1 / ln 2, width <= 2^-p."""
    return ln2_interval(p + 3).reciprocal(p + 4)


@lru_cache(maxsize=None)
def log2_pi_interval(p: int) -> DyadicInterval:
    """Enclosure of log2 pi, width <= 2^-p: log2 of pi's enclosure at p + 3,
    each end at p + 3."""
    pi = pi_interval(p + 3)
    lo = log2_fraction(pi.lo, p + 3)
    hi = log2_fraction(pi.hi, p + 3)
    return DyadicInterval(lo.lo, hi.hi)
