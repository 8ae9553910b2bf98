"""Certified dyadic-interval enclosures of log2 quantities.

The one genuinely transcendental primitive here is log2 of a positive rational.
It is computed by interval bit extraction: reduce the argument exactly to
r in [1, 2), then repeatedly square a scaled-integer bracket of r, shifting a
binary digit out whenever the bracket clears 2.  All rounding is outward and
all state is integer, so results are bit-identical across runs and platforms.

Integer parts of logarithms are never taken from intervals; they come from the
exact kernels in :mod:`log2lab.exact`, which is what keeps fractional parts
from being mis-assigned near powers of two.

Every non-exact primitive enclosure is computed two bits finer than requested
and then padded outward by two ulps.  The pad costs a fraction of the width
budget and buys a structural guarantee: the true value sits at least
2^-(p+3) away from both endpoints, so a recomputation at any materially higher
precision lands strictly inside the original interval (the nesting property
the test suite quantifies over a randomized corpus).

Named constants (ln 2, pi, e) are evaluated once per precision from classical
series with explicit tail bounds:

* ln 2  = 2 atanh(1/3), positive terms, geometric tail ratio 1/9;
* pi    = 16 atan(1/5) - 4 atan(1/239) (Machin), alternating series whose
  truncation error is bounded by the first omitted term;
* e     = sum 1/i!, positive terms, tail after K bounded by 2/(K+1)!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .dyadic import DyadicInterval, DyadicRational
from .exact import (
    DomainError, ceil_log2, floor_log2_fraction, floor_log2_ratio, require_positive
)

__all__ = [
    "ResourceLimitError",
    "MIN_PRECISION",
    "MAX_PRECISION_BITS",
    "WORK_CEILING",
    "FracTerm",
    "log2_fraction",
    "log2_int_enclosure",
    "log2_interval",
    "frac_log2_enclosure",
    "G_enclosure",
    "log2_factorial_enclosure",
    "log2_factorial_by_factorial",
    "log2_factorial_by_sum",
    "log2_factorial_running",
    "ln2_interval",
    "pi_interval",
    "e_interval",
    "log2_e_interval",
    "log2_pi_interval",
]


class ResourceLimitError(RuntimeError):
    """The requested computation exceeds the precision or work ceiling."""


MIN_PRECISION = 4
MAX_PRECISION_BITS = 1 << 14
WORK_CEILING = 1 << 32
# log2 n! from the exact factorial up to here, from summed logs beyond
_FACTORIAL_METHOD_THRESHOLD = 100_000

# Extraction head-room: working precision w = p_core + _GUARD_BITS absorbs the
# doubling of relative bracket width across the p_core + 2 squaring steps.
_GUARD_BITS = 8
_EXTRA_STEPS = 2
# Finer core + outward pad (in ulps of the core grid) for structural nesting.
_CORE_EXTRA = 2
_PAD_ULPS = 2


def _check_precision(p: int) -> None:
    if p < MIN_PRECISION:
        raise DomainError(f"precision must be >= {MIN_PRECISION} bits, got {p}")
    if p > MAX_PRECISION_BITS:
        raise ResourceLimitError(
            f"precision {p} exceeds the configured ceiling {MAX_PRECISION_BITS}"
        )


def _part_precision(p: int, parts: int, scale: int = 1) -> int:
    """Per-part precision so that `parts` terms, each scaled by at most
    `scale`, sum to well under 2^-p."""
    q = p + 1 + ceil_log2(parts)
    if scale > 1:
        q += ceil_log2(scale)
    return q


def _log2_core(num: int, den: int, p_core: int) -> tuple[int, int, int]:
    """Scaled bracket of log2(num/den) for num, den >= 1.

    Returns (lo, hi, s) meaning log2(num/den) is inside
    [lo * 2^-s, hi * 2^-s], with hi - lo <= 2 and s = p_core + 2.
    Exact powers of two return a point with s = 0.
    """
    g = math.gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        k = num.bit_length() - den.bit_length()
        return k, k, 0

    k = floor_log2_fraction(num, den)
    # residual r = (num/den) / 2^k lies in [1, 2)
    if k >= 0:
        rn, rd = num, den << k
    else:
        rn, rd = num << (-k), den

    w = p_core + _GUARD_BITS
    steps = p_core + _EXTRA_STEPS
    scale_two = 2 << w

    u = (rn << w) // rd
    v = u if (rn << w) % rd == 0 else u + 1
    t = 0
    ceil_mask = (1 << w) - 1
    for _ in range(steps):
        u = (u * u) >> w
        v = (v * v + ceil_mask) >> w
        t <<= 1
        while u >= scale_two:
            u >>= 1
            v = (v + 1) >> 1
            t += 1
    # residual bracket sits in [1, 4), so its log2 is in [0, 2]
    lo = (k << steps) + t
    return lo, lo + 2, steps


def _log2_raw(num: int, den: int, p: int) -> tuple[int, int, int]:
    """Padded scaled enclosure of log2(num/den): width <= 6 * 2^-(p+4) and the
    true value at least 2 * 2^-(p+4) from each endpoint (exact powers exempt)."""
    lo, hi, s = _log2_core(num, den, p + _CORE_EXTRA)
    if s == 0:
        return lo, hi, s
    return lo - _PAD_ULPS, hi + _PAD_ULPS, s


def _raw_to_interval(lo: int, hi: int, s: int) -> DyadicInterval:
    return DyadicInterval(DyadicRational(lo, -s), DyadicRational(hi, -s))


def log2_fraction(fr: Fraction, p: int) -> DyadicInterval:
    """Enclosure of log2 of a positive rational, width <= 2^-p."""
    if fr <= 0:
        raise DomainError(f"log2 argument must be positive, got {fr}")
    _check_precision(p)
    return _raw_to_interval(*_log2_raw(fr.numerator, fr.denominator, p))


# Per-integer raw enclosures, keyed by (m, p); hits are bit-identical to
# recomputation, so sharing the cache never affects results.
_LOG2_INT_RAW: dict[tuple[int, int], tuple[int, int, int]] = {}


def _log2_int_raw(m: int, p: int) -> tuple[int, int, int]:
    """_log2_raw(m, 1, p), with exact powers of two moved to the common scale
    s = p + _CORE_EXTRA + _EXTRA_STEPS so that summed terms share one grid."""
    key = (m, p)
    hit = _LOG2_INT_RAW.get(key)
    if hit is None:
        lo, hi, s = _log2_raw(m, 1, p)
        if s == 0:
            s = p + _CORE_EXTRA + _EXTRA_STEPS
            lo <<= s
            hi <<= s
        hit = _LOG2_INT_RAW[key] = (lo, hi, s)
    return hit


def log2_int_enclosure(m: int, p: int) -> DyadicInterval:
    """Enclosure of log2(m) for integer m >= 1, width <= 2^-p."""
    require_positive("m", m)
    _check_precision(p)
    return _raw_to_interval(*_log2_int_raw(m, p))


def log2_interval(iv: DyadicInterval, p: int) -> DyadicInterval:
    """Hull of log2 over a strictly positive interval.

    Output width is the log-width of the input plus at most 2^-p; the caller
    owns making the input tight enough for its own budget.
    """
    if iv.lo.sign <= 0:
        raise DomainError("log2_interval requires a strictly positive interval")
    lo_encl = log2_fraction(iv.lo.to_fraction(), p + 1)
    hi_encl = log2_fraction(iv.hi.to_fraction(), p + 1)
    return DyadicInterval(lo_encl.lo, hi_encl.hi)


# ---------------------------------------------------------------------------
# fractional parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FracTerm:
    """One fractional-part term {log2(n/m)} with its exact integer context."""

    n: int
    m: int
    k: int
    frac: DyadicInterval
    exact_zero: bool


def _frac_upper_clamp(a: int) -> DyadicRational:
    # {log2(a/j)} <= 1 - 1/(2a ln 2) < 1 - 2^-(bitlen(a)+2) whenever nonzero
    t = a.bit_length() + 2
    return DyadicRational((1 << t) - 1, -t)


def frac_log2_enclosure(a: int, j: int, p: int) -> FracTerm:
    """Certified {log2(a/j)} in [0, 1); the floor comes from exact arithmetic."""
    k = floor_log2_ratio(a, j)
    encl = log2_fraction(Fraction(a, j), p)
    if encl.is_point():
        return FracTerm(n=a, m=j, k=k, frac=DyadicInterval.zero(), exact_zero=True)
    frac = encl.add_int(-k).intersect(
        DyadicInterval(DyadicRational(0), _frac_upper_clamp(a))
    )
    return FracTerm(n=a, m=j, k=k, frac=frac, exact_zero=False)


# ---------------------------------------------------------------------------
# the fractional-part sum G and log2 of factorials
# ---------------------------------------------------------------------------


def _check_sum_work(n: int, p: int) -> None:
    if n * (p + ceil_log2(n)) > WORK_CEILING:
        raise ResourceLimitError(
            f"term sum of size n={n} at p={p} exceeds work ceiling {WORK_CEILING}"
        )


def G_enclosure(n: int, p: int) -> DyadicInterval:
    """Enclosure of G(n) = sum over m <= n of {log2(n/m)}, width <= 2^-p.

    Each term is held to width below 2^-(p + ceil(log2 n) + 1), which caps the
    summed width at 2^-p.  Terms are differences of shared per-integer log
    enclosures (one guard bit finer), with integer parts from the exact
    kernels and dyadic-power terms contributing exactly zero.
    """
    require_positive("n", n)
    _check_precision(p)
    q_term = _part_precision(p, n)
    _check_precision(q_term)
    _check_sum_work(n, q_term)

    q_log = q_term + 1
    s = q_log + _CORE_EXTRA + _EXTRA_STEPS
    ln_lo, ln_hi, _ = _log2_int_raw(n, q_log)

    clamp = _frac_upper_clamp(n)
    clamp_hi = clamp.mantissa << (s + clamp.exponent)

    acc_lo = 0
    acc_hi = 0
    for m in range(1, n + 1):
        q, r = divmod(n, m)
        if r == 0 and q & (q - 1) == 0:
            continue  # exact dyadic-power ratio: the term is exactly zero
        k_shift = (q.bit_length() - 1) << s
        lm_lo, lm_hi, _ = _log2_int_raw(m, q_log)
        t_lo = ln_lo - lm_hi - k_shift
        t_hi = ln_hi - lm_lo - k_shift
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


def log2_factorial_by_sum(n: int, p: int) -> DyadicInterval:
    """Enclosure of log2(n!) as the certified sum of log2(m) over m <= n: the
    last prefix of :func:`log2_factorial_running`."""
    require_positive("n", n)
    for _, lo, hi, s in _log2_factorial_prefixes(n, p):
        pass
    return _raw_to_interval(lo, hi, s)


def log2_factorial_enclosure(n: int, p: int) -> DyadicInterval:
    """Enclosure of log2(n!), width <= 2^-p.

    Routes through the exact factorial for n up to
    ``_FACTORIAL_METHOD_THRESHOLD`` and through the summed-logs method beyond
    it.  The two methods are exposed separately so their agreement can be (and
    is) tested directly.
    """
    if n <= _FACTORIAL_METHOD_THRESHOLD:
        return log2_factorial_by_factorial(n, p)
    return log2_factorial_by_sum(n, p)


def _log2_factorial_prefixes(n_max: int, p: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (m, lo, hi, s): log2 m! lies in [lo * 2^-s, hi * 2^-s], for
    m = 1..n_max.  Every term is computed at the n_max budget, so each prefix
    keeps width <= 2^-p."""
    _check_precision(p)
    q = _part_precision(p, n_max)
    _check_precision(q)
    _check_sum_work(n_max, q)
    s = q + _CORE_EXTRA + _EXTRA_STEPS
    acc_lo = 0
    acc_hi = 0
    yield 1, 0, 0, s
    for m in range(2, n_max + 1):
        lm_lo, lm_hi, _ = _log2_int_raw(m, q)
        acc_lo += lm_lo
        acc_hi += lm_hi
        yield m, acc_lo, acc_hi, s


def log2_factorial_running(n_max: int, p: int):
    """Yield (n, enclosure of log2 n!) for n = 1..n_max by prefix sums, each
    of width <= 2^-p."""
    require_positive("n_max", n_max)
    for m, lo, hi, s in _log2_factorial_prefixes(n_max, p):
        yield m, _raw_to_interval(lo, hi, s)


# ---------------------------------------------------------------------------
# named constants
# ---------------------------------------------------------------------------

_CONST_GUARD = 16
_CONST_PAD = 1 << (_CONST_GUARD - 3)


@lru_cache(maxsize=None)
def ln2_interval(p: int) -> DyadicInterval:
    """Enclosure of ln 2 = 2 atanh(1/3), width <= 2^-p.

    Positive series sum_{i>=0} 2 / ((2i+1) 3^(2i+1)); the tail after index K
    is below (9/8) * 2 / ((2K+3) 3^(2K+3)).
    """
    w = p + _CONST_GUARD
    lo = 0
    hi = 0
    i = 0
    pow3 = 3  # 3^(2i+1)
    while True:
        den = (2 * i + 1) * pow3
        num = 2 << w
        lo += num // den
        hi += -((-num) // den)
        # tail <= (9/8) * 2 / ((2i+3) 3^(2i+3)) < 1 ulp once 2^w < (2i+3) 3^(2i+1)
        if (1 << w) < (2 * i + 3) * pow3:
            hi += 1  # outward cover for the tail
            break
        pow3 *= 9
        i += 1
    return _raw_to_interval(lo - _CONST_PAD, hi + _CONST_PAD, w)


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
    """Enclosure of log2 pi, width <= 2^-p."""
    return log2_interval(pi_interval(p + 3), p + 2)
