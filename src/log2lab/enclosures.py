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
log2 n at one precision, share one call per attempt.

G(n), the sum of the fractional parts {log2(n/m)} that only ``error-term``
and ``g-value`` run, is taken in closed form: log2 m = sum of v_P(m) log2 P
holds exactly, and by Legendre's formula the brackets of all m <= n add up to
the sum over primes P <= n of v_P(n!) times P's bracket.  Only primes call
the log core, once per process: their brackets are kept in one cache per
table precision, which a larger n extends in place by a segmented sieve (Bays
& Hudson, BIT 17, 1977): the table first reaches sqrt(n), then sieves the rest
with its own primes in pieces of at most 2^20 numbers.  So a G(n) holds pi(n)
brackets and one piece, and costs O(pi(n)) steps.  An m's width adds up
Omega(m) < bit_length(n) prime widths, so the brackets run
ceil(log2 bit_length(n)) + 1 guard bits finer than the term precision.

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

from .dyadic import DyadicInterval, DyadicRational
from .exact import (
    MAX_PRECISION_BITS,
    WORK_CEILING,
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


# log2 prime brackets, one cache per table precision q_tab: (limit, primes,
# lo, hi), with primes every prime up to limit in ascending order and log2 of
# primes[i] in [lo[i] * 2^-s, hi[i] * 2^-s], s = q_tab + _BRACKET_BITS.
# Each piece of an extension appends to the lists in place, then stores its
# end as limit; an interrupted one truncates them back, so the cache stays whole.
_PRIME_LOG2: dict[int, tuple[int, list[int], list[int], list[int]]] = {}

# the most numbers one piece of a sieve covers: its flags take that many bytes
_SIEVE_PIECE = 1 << 20


def _sieve_segment(limit: int, end: int, primes: list[int]) -> Iterator[int]:
    """The primes in (limit, end], sieved by ``primes``, which must reach sqrt(end)."""
    flags = bytearray([1]) * (end - limit)  # flags[i] is m = limit + 1 + i
    for f in itertools.takewhile(lambda f: f * f <= end, primes):
        first = max(f * f, (limit // f + 1) * f) - limit - 1
        flags[first::f] = bytes(len(range(first, end - limit, f)))
    return itertools.compress(range(limit + 1, end + 1), flags)


def _prime_log2(n: int, q_tab: int) -> tuple[list[int], list[int], list[int]]:
    """(primes, lo, hi) for every prime up to n (the lists may run past n):
    the _log2_raw bracket at precision q_tab, on the 2^-s grid, and for 2 the
    exact point 2^s.  Only primes not yet cached call the log core.

    A table shorter than sqrt(n) first extends itself to sqrt(n) by this same
    call, about log log n deep, then sieves the rest with its own primes in
    pieces of at most _SIEVE_PIECE numbers, so consecutive n cost O(n - limit)."""
    limit, primes, lo, hi = _PRIME_LOG2.setdefault(q_tab, (1, [], [], []))
    root = math.isqrt(n)
    if limit < root:
        _prime_log2(root, q_tab)  # the sieving primes first
    s = q_tab + _BRACKET_BITS
    for start in range(max(limit, root), n, _SIEVE_PIECE):
        end = min(n, start + _SIEVE_PIECE)
        size = len(primes)
        try:
            for m in _sieve_segment(start, end, primes):
                m_lo, m_hi, m_s = _log2_raw(m, 1, q_tab)  # 2: the point 1, m_s = 0
                lo.append(m_lo << (s - m_s))
                hi.append(m_hi << (s - m_s))
                primes.append(m)
            _PRIME_LOG2[q_tab] = end, primes, lo, hi
        except BaseException:  # an interrupt too: back to the table before this piece
            del primes[size:], lo[size:], hi[size:]
            _PRIME_LOG2[q_tab] = start, primes, lo, hi
            raise
    return primes, lo, hi


def G_enclosure(n: int, p: int) -> DyadicInterval:
    """Enclosure of G(n) = sum over m <= n of {log2(n/m)}, width <= 2^-p.

    Each term is held to width below 2^-(q + 1), q = p + 1 + ceil(log2 n),
    which caps the summed width at 2^-p.  On the 2^-s grid of the prime
    brackets [l_P, h_P] at the precision q_tab of ``g_cost(n, p)``, which
    also holds n and p to the work ceiling, this is exactly
    the term-by-term sum over m's bracket [l(m), h(m)] = sum of v_P(m) [l_P,
    h_P]: term m is [l(n) - h(m) - k, h(n) - l(m) - k], k = floor(log2(n/m)),
    and is skipped (exactly 0) for the v + 1 m = n / 2^j, v = v_2(n).  Over
    every m the k add up to F = v_2(n!), the h(m) to H = sum over P <= n of
    v_P(n!) h_P (Legendre: v_P(n!) = sum_i floor(n / P^i)) and the l(m) to L
    likewise, and a skipped m's term would be [l(n) - h(n), h(n) - l(n)], so

        lo = (n - v - 1) l(n) + (v + 1) h(n) - H - F 2^s,
        hi = (n - v - 1) h(n) + (v + 1) l(n) - L - F 2^s.

    F comes from the Legendre loop, not from n - s2(n), so ``error-term``
    still checks that identity.  No term needs clamping into [0, 1): for an
    m not skipped, n/m = 2^k r with 1 + 1/n <= r <= 2 - 1/n, so
    1/n <= {log2(n/m)} <= 1 - 1/(2n), and a term's bracket, narrower than
    2^-(q + 1) <= 1/(64n) (p >= 4), stays inside (0, 1 - 1/(4n)).
    """
    require_positive("n", n)
    _check_precision(p)
    q_tab, work = g_cost(n, p)
    if q_tab > MAX_PRECISION_BITS:
        raise ResourceLimitError(
            f"G({n}) at precision {p} needs {q_tab}-bit prime brackets, "
            f"above the ceiling of {MAX_PRECISION_BITS} bits"
        )
    if work > WORK_CEILING:
        raise ResourceLimitError(
            f"G({n}) at precision {p} needs work of {work}, "
            f"above the work ceiling of {WORK_CEILING}"
        )
    s = q_tab + _BRACKET_BITS
    sum_lo = sum_hi = ln_lo = ln_hi = twos = 0
    for prime, lo, hi in zip(*_prime_log2(n, q_tab)):
        if prime > n:
            break
        e = 0  # v_P(n!)
        power = prime
        while power <= n:
            e += n // power
            power *= prime
        if prime == 2:
            twos = e
        sum_lo += e * lo
        sum_hi += e * hi
        rest = n
        while rest % prime == 0:
            rest //= prime
            ln_lo += lo
            ln_hi += hi
    v = (n & -n).bit_length() - 1
    return _raw_to_interval(
        (n - v - 1) * ln_lo + (v + 1) * ln_hi - sum_hi - (twos << s),
        (n - v - 1) * ln_hi + (v + 1) * ln_lo - sum_lo - (twos << s),
        s,
    )


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


@lru_cache(maxsize=None)
def _half_log2_2pi(p: int) -> DyadicInterval:
    """log2(2 pi) / 2, width <= 2^-(p+1)."""
    return log2_pi_interval(p).add_int(1).scale_dyadic(_HALF)


def _stirling_head(n: int, log_n: DyadicInterval, half: int) -> DyadicInterval:
    """(n + 1/2) log2 n + log2(2 pi) / 2, from an enclosure ``log_n`` of
    log2 n, with log2(2 pi) / 2 at precision ``half``: the head that log2 n!
    and the Robbins and Ramanujan sides share."""
    return log_n.scale_dyadic(DyadicRational(2 * n + 1, -1)) + _half_log2_2pi(half)


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
    part, log_n, log2_e, w = stirling_plan(p, (n - 1).bit_length(), n.bit_length())
    series = _raw_to_interval(*_stirling_series(n, w), w)
    s = p + _BRACKET_BITS
    lo, hi = (
        _stirling_head(n, log2_int_enclosure(n, log_n), part)
        + log2_e_interval(log2_e) * series.add_int(-n)
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
