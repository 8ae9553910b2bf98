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

from log2lab.dyadic import DyadicInterval, DyadicRational
from log2lab.enclosures import G_enclosure, _sum_table, log2_int_enclosure
from log2lab.exact import _ROW_PARTS, _part_precision, log2_n_precision, require_positive

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


def paper_lower_bound_log2(n: int, p: int):
    """Enclosure of log2 of the counting bound, n log2 n - (n - 1 + G(n)), from
    n log2 n and the term sum G(n) each enclosed at a third of the 2^-p
    budget, as error-term encloses them: the oracle for a compared row's
    paper_lb, which takes G(n) from the exact floor count instead."""
    x = log2_int_enclosure(n, log2_n_precision(n, p)).scale_int(n)
    return x.add_int(-(n - 1)) - G_enclosure(n, _part_precision(p, _ROW_PARTS))


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


def log2_factorial_by_sum(n: int, p: int) -> DyadicInterval:
    """Enclosure of log2(n!) as the certified sum of log2(m) over m <= n,
    from the log2 m table G(n) reads at precision p: the O(n) oracle for the
    exact-factorial and Stirling-series enclosures."""
    require_positive("n", n)
    lo, hi, s = _sum_table(n, p)
    return _scaled(sum(lo[: n + 1]), sum(hi[: n + 1]), s)


def log2_factorial_running(n_max: int, p: int):
    """Yield (n, enclosure of log2 n!) for n = 1..n_max by prefix sums over
    the table of an n_max-term sum, each of width <= 2^-p."""
    require_positive("n_max", n_max)
    lo, hi, s = _sum_table(n_max, p)
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

    ``value`` may be a digit string; it is parsed inside the wide context so
    frozen constants keep their full accuracy.
    """
    with mp.workprec(ORACLE_PREC_BITS + 64):
        if isinstance(value, str):
            value = mp.mpf(value)
        return dyadic_to_mpf(iv.lo) <= value <= dyadic_to_mpf(iv.hi)


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
