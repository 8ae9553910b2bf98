"""Shared independent oracles for the test suite, and a check after every test
that it left no child process behind.

mpmath is the high-precision reference; integer floors are always taken by the
doubling loop (never from floating point), because near powers of two a float
floor is exactly the failure mode these tests exist to catch.
"""

from __future__ import annotations

import math
import os

import mpmath as mp
import pytest

import log2lab.sweep as sweep_mod
from log2lab.dyadic import DyadicInterval, DyadicRational
from log2lab.enclosures import (
    _BRACKET_BITS,
    G_enclosure,
    _log2_raw,
    log2_int_enclosure,
)
from log2lab.exact import (
    _ROW_PARTS,
    _STIRLING_PARTS,
    _VERDICT_BITS,
    _check_precision,
    ceil_log2,
    require_positive,
)
from log2lab.sweep import SweepConfig, UsageError

ORACLE_PREC_BITS = 400


def floor_log2_doubling(a: int, j: int) -> int:
    """Reference floor(log2(a/j)): largest k with j * 2^k <= a."""
    k = 0
    x = j * 2
    while x <= a:
        k += 1
        x *= 2
    return k


def floor_sum_by_blocks(a: int) -> int:
    """Sum of floor(log2(a/j)) over all j <= a, counted in blocks: the j with
    floor(log2(a/j)) = k are exactly a >> (k+1) < j <= a >> k.  The oracle
    that Legendre's identity, a - s2(a), is checked against."""
    require_positive("a", a)
    return sum(k * ((a >> k) - (a >> (k + 1))) for k in range(1, a.bit_length()))


def is_pow_ratio(a: int, j: int) -> bool:
    q, r = divmod(a, j)
    return r == 0 and q & (q - 1) == 0


def power_of_two_ratio(a: int, j: int) -> int | None:
    """k if a == j * 2^k exactly, else None; integer arithmetic only."""
    q, r = divmod(a, j)
    if r != 0 or q & (q - 1):
        return None
    return q.bit_length() - 1


# The per-call precision rules of a compared row, which take n itself: the
# oracle of exact.attempt_plan and exact.stirling_plan, which take n's bit
# lengths and are cached.


def part_precision(p: int, parts: int, scale: int = 1) -> int:
    """Per-part precision so that ``parts`` terms, each scaled by at most
    ``scale``, sum to well under 2^-p."""
    q = p + 1 + ceil_log2(parts)
    if scale > 1:
        q += ceil_log2(scale)
    return q


def stirling_log2_n_precision(n: int, p: int) -> int:
    """Precision of log2 n and of log2 e in a Stirling-series log2 n! held
    to 2^-p, where they are scaled by n + 1/2 and by n, both below n + 1."""
    return part_precision(p, _STIRLING_PARTS, n + 1)


def half_log2_2pi_precision(n: int, p: int) -> int:
    """Precision of log2(2 pi) / 2 in the Stirling base of a log2 n! held to
    2^-p: the Stirling parts' precision, or less where its log2 pi, taken 3
    bits finer, would pass the precision of log2 n (n <= 3)."""
    return min(part_precision(p, _STIRLING_PARTS), stirling_log2_n_precision(n, p) - 3)


def log2_n_precision(n: int, p: int) -> int:
    """Precision of the one log2 n that the parts of a compared row enclosed
    at precision p take: what the Stirling-series log2 n! at the row's part
    precision needs for its (n + 1/2) log2 n."""
    return stirling_log2_n_precision(n, part_precision(p, _ROW_PARTS))


def four_field_side_precisions(n: int, p: int) -> tuple[int, int]:
    """(part, log2_e): the precisions at which the four-field plan, which
    the two-field (fact, log_n) plan replaced, took a side's parts at p.
    Every log2(1 + y), log2 e / (12 n) and Ramanujan correction was taken at
    ``part``, the Stirling parts' precision at the row's part precision,
    and log2 e, scaled by n, at ``log2_e``."""
    fact = part_precision(p, _ROW_PARTS)
    return part_precision(fact, _STIRLING_PARTS), part_precision(fact, _STIRLING_PARTS, n)


def sweep_row_precision(n: int, q: int) -> int:
    """Largest precision a compared row asks for at precision q: its one
    log2 n, with its parts enclosed at q + _VERDICT_BITS."""
    return log2_n_precision(n, q + _VERDICT_BITS)


def paper_lower_bound_log2(n: int, p: int):
    """Enclosure of log2 of the counting bound, n log2 n - (n - 1 + G(n)), from
    n log2 n and the term sum G(n) each enclosed at a third of the 2^-p
    budget, as error-term encloses them: the oracle for a compared row's
    paper_lb, which takes G(n) from the exact floor count instead."""
    x = log2_int_enclosure(n, log2_n_precision(n, p)).scale_int(n)
    return x.add_int(-(n - 1)) - G_enclosure(n, part_precision(p, _ROW_PARTS))


def log2_by_bit_extraction(num: int, den: int, p: int) -> DyadicInterval:
    """Enclosure of log2(num/den) for num, den >= 1, of width 2^-(p+1), by
    interval bit extraction: the independent oracle for the log series.

    Reduce num/den exactly to r in [1, 2), then square a scaled-integer
    bracket of r p + 2 times, shifting a binary digit out whenever the
    bracket clears 2: O(p) squarings of p-bit numbers.  Exact powers of two
    are points.
    """
    g = math.gcd(num, den)
    num, den = num // g, den // g
    k = num.bit_length() - den.bit_length()
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return _scaled(k, k, 0)
    if num << max(-k, 0) < den << max(k, 0):
        k -= 1
    # the residual r = (num/den) / 2^k = rn/rd lies in [1, 2)
    rn, rd = num << max(-k, 0), den << max(k, 0)

    w = p + 8  # absorbs the doubling of relative width at every squaring
    steps = p + 2
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
    # the residual bracket sits in [1, 4), so its log2 is in [0, 2]
    lo = (k << steps) + t
    return _scaled(lo, lo + 2, steps)


def least_prime_factors(n: int) -> list[int]:
    """spf with spf[m] the least prime factor of m for 2 <= m <= n (and
    spf[m] = m for m < 2), by a sieve over the primes up to sqrt(n)."""
    spf = list(range(n + 1))
    r = math.isqrt(n)
    if r >= 2:
        small = least_prime_factors(r)
        # descending, so that the least prime factor is written last
        for f in range(r, 1, -1):
            if small[f] == f:
                spf[f * f :: f] = [f] * ((n - f * f) // f + 1)
    return spf


# the per-m log2 tables of the term-by-term oracle, one per table precision
_LOG2_M_TABLES: dict[int, tuple[list[int], list[int]]] = {}


def table_precision(n: int, q: int) -> int:
    """Precision of the log2 prime brackets for m <= n each held to q bits:
    m's bracket adds up Omega(m) < bit_length(n) prime widths."""
    return q + ceil_log2(n.bit_length()) + 1


def log2_m_table(n: int, q: int) -> tuple[list[int], list[int], int]:
    """Scaled brackets (lo, hi, s) of log2 m for every m <= n (the lists may
    run past n) at the table precision q_tab of an n-term sum whose terms
    are held to q: a prime's _log2_raw bracket at q_tab, 2 the point 2^s, and
    a composite the exact sum of its least prime factor's and its cofactor's
    brackets."""
    q_tab = table_precision(n, q)
    _check_precision(q_tab)
    s = q_tab + _BRACKET_BITS
    lo, hi = _LOG2_M_TABLES.get(q_tab, ([0, 0], [0, 0]))
    start = len(lo)
    if start <= n:
        spf = least_prime_factors(n)
        lo = lo + [0] * (n + 1 - start)
        hi = hi + [0] * (n + 1 - start)
        for m in range(start, n + 1):
            f = spf[m]
            if f < m:
                lo[m] = lo[f] + lo[m // f]
                hi[m] = hi[f] + hi[m // f]
            elif m == 2:
                lo[m] = hi[m] = 1 << s
            else:
                lo[m], hi[m], _ = _log2_raw(m, 1, q_tab)
        _LOG2_M_TABLES[q_tab] = lo, hi
    return lo, hi, s


def sum_table(n: int, p: int) -> tuple[list[int], list[int], int]:
    """The log2 m table under an n-term sum held to 2^-p: terms below
    2^-(p + ceil(log2 n) + 1) each, read one guard bit finer."""
    _check_precision(p)
    return log2_m_table(n, part_precision(p, n) + 1)


def frac_upper_clamp(n: int, s: int) -> int:
    """1 - 2^-(bit_length(n) + 2) on the 2^-s grid: above every nonzero
    {log2(n/m)}, which is at most 1 - 1/(2n ln 2)."""
    t = n.bit_length() + 2
    return ((1 << t) - 1) << (s - t)


def G_by_terms(n: int, p: int) -> tuple[DyadicInterval, int]:
    """(enclosure of G(n), clamp events): the term-by-term sum over the log2 m
    table, each term [log2 n - log2 m - k] clamped into [0, clamp], with
    dyadic-power ratios skipped; the term-sum oracle for G_enclosure, which
    clamps no term.  The count is the number of term ends clamped."""
    require_positive("n", n)
    lo, hi, s = sum_table(n, p)
    clamp_hi = frac_upper_clamp(n, s)
    acc_lo = acc_hi = clamps = 0
    for m in range(1, n + 1):
        if is_pow_ratio(n, m):
            continue
        k_shift = ((n // m).bit_length() - 1) << s
        t_lo = lo[n] - hi[m] - k_shift
        t_hi = hi[n] - lo[m] - k_shift
        if t_lo < 0:
            t_lo, clamps = 0, clamps + 1
        if t_hi > clamp_hi:
            t_hi, clamps = clamp_hi, clamps + 1
        acc_lo += t_lo
        acc_hi += t_hi
    return _scaled(acc_lo, acc_hi, s), clamps


def log2_factorial_by_sum(n: int, p: int) -> DyadicInterval:
    """Enclosure of log2(n!) as the certified sum of log2(m) over m <= n,
    from the log2 m table of an n-term sum at precision p: the O(n) oracle
    for the exact-factorial and Stirling-series enclosures."""
    require_positive("n", n)
    lo, hi, s = sum_table(n, p)
    return _scaled(sum(lo[: n + 1]), sum(hi[: n + 1]), s)


def log2_factorial_running(n_max: int, p: int):
    """Yield (n, enclosure of log2 n!) for n = 1..n_max by prefix sums over
    the table of an n_max-term sum, each of width <= 2^-p."""
    require_positive("n_max", n_max)
    lo, hi, s = sum_table(n_max, p)
    acc_lo = acc_hi = 0
    for m in range(1, n_max + 1):
        acc_lo += lo[m]
        acc_hi += hi[m]
        yield m, _scaled(acc_lo, acc_hi, s)


def _scaled(lo: int, hi: int, s: int) -> DyadicInterval:
    return DyadicInterval(DyadicRational(lo, -s), DyadicRational(hi, -s))


def dyadic_to_mpf(d) -> mp.mpf:
    """Exact mpf image of a dyadic rational (inside a wide-enough context)."""
    return mp.mpf(d.mantissa) * mp.power(2, d.exponent)


def interval_contains(iv, value) -> bool:
    """Containment check against an mpmath reference value.

    The endpoints are read exactly: the context holds every bit of their
    mantissas, and mpmath keeps any exponent exactly, so an interval of any
    precision is compared as it is.  A comparison of two mpf values is
    exact in every context, so ``value`` keeps the precision it was computed
    at.  ``value`` may also be a digit string; it is parsed inside a context
    of at least ``ORACLE_PREC_BITS + 64`` bits, so frozen constants keep
    their full accuracy.
    """
    lo, hi = iv.lo, iv.hi
    bits = max(lo.mantissa.bit_length(), hi.mantissa.bit_length(), ORACLE_PREC_BITS + 64)
    with mp.workprec(bits):
        if isinstance(value, str):
            value = mp.mpf(value)
        return dyadic_to_mpf(lo) <= value <= dyadic_to_mpf(hi)


# what a range command returns once its checks pass, with skip_rows in place
ACCEPTED = "accepted"


def skip_rows(monkeypatch) -> None:
    """Stub out the run loop, so that a range command that passes its checks
    returns ACCEPTED without opening --out or computing a row."""
    monkeypatch.setattr(sweep_mod, "_run", lambda *args: ACCEPTED)


def largest_accepted(runner, p: int) -> int:
    """Largest n_hi below 2^32 whose range n_hi..n_hi ``runner`` accepts at
    precision p, by bisection; needs skip_rows."""
    lo, hi = 1, 1 << 32
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            runner(SweepConfig(n_lo=mid, n_hi=mid, precision_bits=p))
            lo = mid
        except UsageError:
            hi = mid
    return lo


def g_oracle(n: int) -> mp.mpf:
    """G(n) with exact integer floors and high-precision logs."""
    s = mp.mpf(0)
    for m in range(1, n + 1):
        if is_pow_ratio(n, m):
            continue
        k = floor_log2_doubling(n, m)
        s += (mp.log(n) - mp.log(m)) / mp.log(2) - k
    return s


@pytest.fixture(autouse=True)
def _oracle_precision():
    with mp.workprec(ORACLE_PREC_BITS):
        yield


@pytest.fixture(autouse=True)
def no_child_process_left():
    """No run leaves a forked worker behind, on any path: after every test
    this process has no child, running or unreaped."""
    yield
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
