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
remainder with one ulp on that term's side.  The Bernoulli numbers are exact,
from the tangent numbers (Brent & Harvey, "Fast computation of Bernoulli,
Tangent and Secant numbers", 2011), and are computed on first use.  In log2
the only logs are log2 n, log2 e and log2 pi, so an enclosure costs one log core
call (none when log2 n is cached) for every n.  ``log2_int_enclosure`` keeps a
few recent results, so the n-scaled parts of a compared row, which all take
log2 n at one precision, share one call per attempt.

The term sum G(n) reads log2 m from one table per table precision, kept for
the process and extended in place when a larger n is asked for; only
``error-term`` and ``g-value`` run it.  Only primes call the log core.  2 is a
point, and a composite m is the exact integer sum of the brackets of its least
prime factor (from a sieve) and of its cofactor, on one common scale, since
log2 m = sum of e_i log2 p_i holds exactly.  An n-term sum therefore costs
pi(n) core calls instead of n, once per process.  A composite's width adds up
Omega(m) < bit_length(n) prime widths, so the table runs
ceil(log2 bit_length(n)) + 1 guard bits finer than the term precision, and
every entry stays within the width of one direct core bracket at that
precision.

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
  truncation error is bounded by the first omitted term;
* e     = sum 1/i!, positive terms, tail after K bounded by 2/(K+1)!.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from .dyadic import DyadicInterval, DyadicRational
from .exact import (
    WORK_CEILING,
    DomainError,
    ResourceLimitError,
    _STIRLING_PARTS,
    _check_precision,
    _part_precision,
    _stirling_log2_n_precision,
    _sum_work,
    _table_precision,
    floor_log2_fraction,
    require_positive,
)

if TYPE_CHECKING:
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
    # log2_e_interval(s + 2) lies on the 2^-(s+6) grid, so this read is exact
    e_lo, e_hi = log2_e_interval(s + 2).outward_mantissas(s + 6)
    products = (e_lo * lo, e_lo * hi, e_hi * lo, e_hi * hi)
    # from the 2^-(2s+10) grid onto 2^-s: floor the least, ceil the greatest
    shift = s + 10
    return (min(products) >> shift) - _PAD_ULPS, -(-max(products) >> shift) + _PAD_ULPS, s


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


def _frac_upper_clamp(a: int) -> DyadicRational:
    # {log2(a/j)} <= 1 - 1/(2a ln 2) < 1 - 2^-(bitlen(a)+2) whenever nonzero
    t = a.bit_length() + 2
    return DyadicRational((1 << t) - 1, -t)


def _check_sum_work(n: int, p: int) -> None:
    if _sum_work(n, p) > WORK_CEILING:
        raise ResourceLimitError(
            f"term sum of size n={n} at p={p} exceeds work ceiling {WORK_CEILING}"
        )


def _least_prime_factors(n: int) -> list[int]:
    """spf with spf[m] the least prime factor of m for 2 <= m <= n (and
    spf[m] = m for m < 2), by a sieve over the primes up to sqrt(n)."""
    spf = list(range(n + 1))
    r = math.isqrt(n)
    if r >= 2:
        small = _least_prime_factors(r)
        # descending, so that the least prime factor is written last
        for f in range(r, 1, -1):
            if small[f] == f:
                spf[f * f :: f] = [f] * ((n - f * f) // f + 1)
    return spf


# log2 m tables, one per table precision q_tab: log2 m lies in
# [lo[m] * 2^-s, hi[m] * 2^-s] with s = q_tab + _BRACKET_BITS.
# An extension builds longer lists and stores the pair in one assignment, so
# an interrupted extension leaves the previous pair whole.
_LOG2_TABLES: dict[int, tuple[list[int], list[int]]] = {}


def _log2_table(n: int, q: int) -> tuple[list[int], list[int], int]:
    """Scaled brackets (lo, hi, s) of log2 m for m = 1..n (the lists may run
    past n) on one scale s, each no wider than one _log2_raw bracket at
    precision q.

    Only primes call the log core; 2 is a point, and a composite is the exact
    sum of the brackets of its least prime factor and its cofactor.
    """
    q_tab = _table_precision(n, q)
    _check_precision(q_tab)
    s = q_tab + _BRACKET_BITS
    lo, hi = _LOG2_TABLES.get(q_tab, ([0, 0], [0, 0]))
    start = len(lo)
    if start <= n:
        spf = _least_prime_factors(n)
        lo = lo + [0] * (n + 1 - start)
        hi = hi + [0] * (n + 1 - start)
        for m in range(start, n + 1):
            f = spf[m]
            if f < m:
                c = m // f
                lo[m] = lo[f] + lo[c]
                hi[m] = hi[f] + hi[c]
            elif m == 2:
                lo[m] = hi[m] = 1 << s
            else:
                lo[m], hi[m], _ = _log2_raw(m, 1, q_tab)
        _LOG2_TABLES[q_tab] = lo, hi
    return lo, hi, s


def _sum_table(n: int, p: int) -> tuple[list[int], list[int], int]:
    """The log2 m table under an n-term sum held to 2^-p: terms below
    2^-(p + ceil(log2 n) + 1) each, read one guard bit finer."""
    _check_precision(p)
    q_term = _part_precision(p, n)
    _check_precision(q_term)
    _check_sum_work(n, q_term)
    return _log2_table(n, q_term + 1)


def G_enclosure(n: int, p: int) -> DyadicInterval:
    """Enclosure of G(n) = sum over m <= n of {log2(n/m)}, width <= 2^-p.

    Each term is held to width below 2^-(p + ceil(log2 n) + 1), which caps the
    summed width at 2^-p.  Terms are differences of entries of the log2 m
    table (one guard bit finer), with integer parts from the exact kernels
    and dyadic-power terms contributing exactly zero.
    """
    require_positive("n", n)
    lo, hi, s = _sum_table(n, p)
    ln_lo, ln_hi = lo[n], hi[n]

    clamp = _frac_upper_clamp(n)
    clamp_hi = clamp.mantissa << (s + clamp.exponent)

    acc_lo = 0
    acc_hi = 0
    for m in range(1, n + 1):
        q, r = divmod(n, m)
        if r == 0 and q & (q - 1) == 0:
            continue  # exact dyadic-power ratio: the term is exactly zero
        k_shift = (q.bit_length() - 1) << s
        t_lo = ln_lo - hi[m] - k_shift
        t_hi = ln_hi - lo[m] - k_shift
        if t_lo < 0:
            t_lo = 0
        if t_hi > clamp_hi:
            t_hi = clamp_hi
        acc_lo += t_lo
        acc_hi += t_hi
    return _raw_to_interval(acc_lo, acc_hi, s)


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


def _stirling_series(n: int, w: int) -> tuple[int, int]:
    """(lo, hi) with ln n! - ((n + 1/2) ln n - n + ln(2 pi) / 2), the sum of
    B_2k / (2k (2k - 1) n^(2k - 1)) over every k >= 1, in [lo, hi] * 2^-w.

    Each term is rounded down into lo and up into hi.  The first term below
    one ulp is the first omitted one: the remainder has its sign and is
    smaller, so one ulp on that side covers it.  The width is at most one ulp
    per kept term, plus one.

    The terms shrink only up to k near pi n, where they are about e^(-2 pi n),
    so the series needs w < 9n.  For the w that log2 n! at n >= 2p asks
    (about n / 2), each of the first (w + 1) / 2 terms is at least 4 times
    smaller than the one before, so at most that many are kept; a series
    past w terms is refused.
    """
    coeffs = _STIRLING_COEFFS
    lo = hi = 0
    n_sq = n * n
    n_pow = n  # n^(2k - 1)
    k = 0
    while True:
        if k > w:
            raise DomainError(f"the Stirling series at n={n} does not reach 2^-{w}")
        if k == len(coeffs):
            coeffs = _stirling_coefficients(k + 1)
        num, den = coeffs[k]
        d = den * n_pow
        if abs(num) << w < d:
            if num > 0:
                hi += 1
            else:
                lo -= 1
            return lo, hi
        lo += (num << w) // d
        hi += -((-num << w) // d)
        n_pow *= n_sq
        k += 1


_HALF = DyadicRational(1, -1)


def _half_log2_2pi(p: int) -> DyadicInterval:
    """log2(2 pi) / 2, width <= 2^-(p+1)."""
    return log2_pi_interval(p).add_int(1).scale_dyadic(_HALF)


def log2_factorial_enclosure(n: int, p: int) -> DyadicInterval:
    """Enclosure of log2(n!), width <= 2^-p.

    From the exact factorial for n below ``_stirling_switch(p)``, and from the
    Stirling series above it:

        (n + 1/2) log2 n - n log2 e + log2(2 pi) / 2 + log2 e * (series),

    four parts held to 2^-(p+3) each.  The sum is rounded outward onto the
    2^-(p+4) grid and padded by two ulps there, so it nests like a core
    bracket.  The series keeps one ulp per term of 2^-(p + 5 + bit_length(p)
    + 2): it keeps at most about w/2 terms, which stay within 2^-(p+5).
    """
    require_positive("n", n)
    _check_precision(p)
    if n < _stirling_switch(p):
        return log2_factorial_by_factorial(n, p)
    log_n = log2_int_enclosure(n, _stirling_log2_n_precision(n, p))
    log_e = log2_e_interval(_part_precision(p, _STIRLING_PARTS, n))
    w = p + 5 + p.bit_length() + 2
    series = _raw_to_interval(*_stirling_series(n, w), w)
    s = p + _BRACKET_BITS
    lo, hi = (
        log_n.scale_dyadic(DyadicRational(2 * n + 1, -1))
        + _half_log2_2pi(_part_precision(p, _STIRLING_PARTS))
        + log_e * series.add_int(-n)
    ).outward_mantissas(s)
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
    """Directed scaled bracket of atan(1/x) at scale 2^-w, x >= 2.

    Alternating series; the truncation error is covered by the first omitted
    term, added on the matching side.
    """
    lo = 0
    hi = 0
    i = 0
    powx = x  # x^(2i+1)
    while True:
        den = (2 * i + 1) * powx
        num = 1 << w
        if num // den == 0 and i > 0:
            # remaining tail < 1 ulp; cover it on the side of its sign
            if i % 2 == 0:
                hi += 1
            else:
                lo -= 1
            return lo, hi
        if i % 2 == 0:
            lo += num // den
            hi += -((-num) // den)
        else:
            lo -= -((-num) // den)
            hi -= num // den
        powx *= x * x
        i += 1


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
