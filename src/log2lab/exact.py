"""Exact integer kernels for floor-log2 counting sums.

Everything in this module is computed in integer arithmetic only: floors of
base-2 logarithms of ratios are defined operationally as "the largest k with
j*2^k <= a", so no transcendental function and no floating-point rounding can
ever mis-assign a floor.  The two enumeration oracles deliberately count by
brute force; they exist to cross-check the floor-sum identity, not to be fast.

The floor sum over all j <= a has a closed form, Legendre's formula: the
exponent of 2 in a! is sum_{alpha >= 1} floor(a / 2^alpha) = a - s2(a), and
counting the pairs (j, alpha) with j * 2^alpha <= a the other way round gives
sum_{j <= a} floor(log2(a/j)) = a - s2(a), where s2 is the binary digit sum.
A compared row takes its floor count from that identity, so nothing here
counts the sum over all j; the test suite does, as the identity's oracle.

The odd floor sum, which ``verify-theorem`` checks, counts its terms in
blocks: floor(log2(a/j)) = k exactly when a >> (k+1) < j <= a >> k, so the
sum takes O(log a) integer steps for every size of a.  The enumeration
oracles visit every m, but both count over an interval (a_prev, a], where
a_prev = 0 counts from the start: a caller that checks N odd a up to A and
adds up the counts over (a - 2, a] visits each m once, and the pair oracle
stops at its first empty alpha, two alphas per a on average.  The whole check
costs O(A) visits plus O(log A) block steps per a, instead of the O(N * A)
of counting every a from the start.

The precision and work limits of a run live here too, as the same kind of
integer rule: the precision of every part of a compared row (``attempt_plan``,
which reads the Stirling-series log2 n!'s own ``stirling_plan``) and how far
the row may escalate (``last_attempt``), the log precision and work of
G(n), and how many m the enumeration oracles visit over a range.  Every
caller reads its numbers from these, and each command checks its range
against them before a run starts, without loading the enclosure code.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

__all__ = [
    "DomainError",
    "IdentityViolationError",
    "ResourceLimitError",
    "MIN_PRECISION",
    "MAX_PRECISION_BITS",
    "WORK_CEILING",
    "g_cost",
    "oracle_work",
    "AttemptPlan",
    "attempt_plan",
    "stirling_plan",
    "last_attempt",
    "floor_log2_fraction",
    "ceil_log2",
    "binary_digit_sum",
    "odd_floor_sum",
    "even_count_oracle",
    "pair_enumeration_oracle",
]


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class IdentityViolationError(ArithmeticError):
    """A proven identity failed on concrete integers.

    This is never caught and converted into a soft result inside the library:
    it means either a bug or a genuine counterexample, and both must be loud.
    """


class ResourceLimitError(RuntimeError):
    """The requested computation exceeds the precision or work ceiling."""


def require_positive(name: str, v: int) -> None:
    """Raise DomainError unless the integer argument ``name`` is >= 1."""
    if v < 1:
        raise DomainError(f"{name} must be a positive integer, got {v}")


def floor_log2_fraction(num: int, den: int) -> int:
    """Exact floor(log2(num/den)) for positive integers, by shift-compare."""
    if num < 1 or den < 1:
        raise DomainError("floor_log2_fraction needs positive num and den")
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        return e if (den << e) <= num else e - 1
    return e if den <= (num << -e) else e - 1


def ceil_log2(m: int) -> int:
    """Smallest t >= 0 with 2^t >= m, for m >= 1."""
    require_positive("m", m)
    return (m - 1).bit_length()


def binary_digit_sum(a: int) -> int:
    """Sum of base-2 digits of a (a >= 0)."""
    if a < 0:
        raise DomainError(f"a must be non-negative, got {a}")
    return bin(a).count("1")


def odd_floor_sum(a: int) -> int:
    """Sum of floor(log2(a/j)) over odd j <= a, for odd a.

    The j with floor(log2(a/j)) = k are exactly a >> (k+1) < j <= a >> k, so
    each k contributes k times the number of odd j in that block.  The
    counting identity pins the sum to (a - 1) / 2; a mismatch raises
    IdentityViolationError rather than returning a bad count.
    """
    require_positive("a", a)
    if a % 2 == 0:
        raise DomainError(f"a must be odd, got {a}")
    value = 0
    for k in range(1, a.bit_length()):
        hi, lo = a >> k, a >> (k + 1)
        # (x + 1) // 2 odd j lie in 1..x
        value += k * ((hi + 1) // 2 - (lo + 1) // 2)
    expected = (a - 1) // 2
    if value != expected:
        raise IdentityViolationError(
            f"odd floor sum for a={a} is {value}, counting identity demands {expected}"
        )
    return value


def _count_parity(lo: int, hi: int, parity: int) -> int:
    """Count of m with lo < m <= hi and m % 2 == parity, by enumeration."""
    count = 0
    for m in range(lo + 1, hi + 1):
        if m % 2 == parity:
            count += 1
    return count


def _check_interval(a_prev: int, a: int) -> None:
    if not 0 <= a_prev <= a:
        raise DomainError(f"a_prev must lie in [0, a={a}], got {a_prev}")


def even_count_oracle(a: int, a_prev: int = 0) -> int:
    """Count of even m with a_prev < m <= a, for odd a, by direct enumeration.

    No closed formula on purpose: this is the independent side of the
    three-way agreement check.  Called with a alone it counts from the start,
    which is (a - 1) / 2; the counts over (a0, a1] and (a1, a2] add up to the
    count over (a0, a2].
    """
    require_positive("a", a)
    if a % 2 == 0:
        raise DomainError(f"a must be odd, got {a}")
    _check_interval(a_prev, a)
    return _count_parity(a_prev, a, 0)


def pair_enumeration_oracle(a: int, a_prev: int = 0) -> int:
    """Count pairs (m odd, alpha >= 1) with a_prev < m * 2^alpha <= a, by double
    loop.

    The outer loop runs over alpha until a_prev >> alpha = a >> alpha, where
    the interval of candidate m, (a_prev / 2^alpha, a / 2^alpha], turns empty
    for good; the inner enumeration walks it and keeps the odd m.  Called
    with a alone it counts every pair up to a, which is a // 2; the counts
    over (a0, a1] and (a1, a2] add up to the count over (a0, a2].
    """
    require_positive("a", a)
    _check_interval(a_prev, a)
    count, alpha = 0, 1
    while a_prev >> alpha < a >> alpha:
        count += _count_parity(a_prev >> alpha, a >> alpha, 1)
        alpha += 1
    return count


# ---------------------------------------------------------------------------
# precision and work limits of a run
# ---------------------------------------------------------------------------

MIN_PRECISION = 4
MAX_PRECISION_BITS = 1 << 14
WORK_CEILING = 1 << 32
# a row encloses log2 n! and n log2 n (and, for error-term, G(n)) at a third
# of its budget each
_ROW_PARTS = 3
# the Stirling-series log2 n! adds four parts: (n + 1/2) log2 n, n log2 e,
# log2(2 pi) / 2 and log2 e times the series
_STIRLING_PARTS = 4
# a compared row at precision q encloses its parts at q + _VERDICT_BITS, so
# its verdicts separate margins down to about 2^-(q + _VERDICT_BITS); what it
# emits is rounded onto the 2^-(q + 3) grid and stays within 2^-q
_VERDICT_BITS = 4


def _check_precision(p: int) -> None:
    """Reject a precision below the floor (DomainError) or above the ceiling
    (ResourceLimitError)."""
    if p < MIN_PRECISION:
        raise DomainError(f"precision must be >= {MIN_PRECISION} bits, got {p}")
    if p > MAX_PRECISION_BITS:
        raise ResourceLimitError(
            f"precision {p} exceeds the configured ceiling {MAX_PRECISION_BITS}"
        )


def _part_precision(p: int, parts: int) -> int:
    """Per-part precision so that ``parts`` terms sum to well under 2^-p; a
    part scaled by m takes ceil(log2 m) more bits."""
    return p + 1 + ceil_log2(parts)


def g_cost(n: int, p: int) -> tuple[int, int]:
    """(q, work) of G(n) held to 2^-p, for n >= 1: the precision of the logs
    G(n) takes, and the work that ``WORK_CEILING`` holds it to.

    G(n) = log2(n^n / n!) - v_2(n!) takes one log, of a bracket of n^n / n!,
    at q = q_term + 2 + ceil(log2 bit_length(n)), q_term =
    ``_part_precision(p, n)``, and is under 2^-q <= 2^-(p+3) wide.  G(n)
    sieves n numbers, in pieces of at most 2^20, and multiplies each prime
    up to n into a bracket of q + bit_length(n) + 8 bits: the work,
    n (q_term + ceil(log2 n)), bounds both.  ``G_enclosure`` checks both
    numbers, and ``error-term`` checks them for its largest G(n) before a
    run starts.
    """
    q_term = _part_precision(p, n)
    q = q_term + 2 + ceil_log2(n.bit_length())
    return q, n * (q_term + ceil_log2(n))


def oracle_work(n_hi: int) -> int:
    """Values of m that ``verify-theorem``'s two enumeration oracles visit
    over a range up to n_hi: at most n_hi each, since a run counts every m
    once, from the start at its first odd a.  The odd floor sums add only
    O(log n_hi) steps per a, so this is the work that ``WORK_CEILING`` holds
    a ``verify-theorem`` range to."""
    return 2 * n_hi


@lru_cache(maxsize=64)
def stirling_plan(p: int, bits: int) -> tuple[int, int, int]:
    """(half, log_n, w): the precisions a Stirling-series log2 n! at
    precision p, and its Stirling base, take for every n of bit length ``bits``.

    Each of the four parts is held to part = p + 3; log2 n, scaled by n + 1/2,
    and log2 e, scaled by n, take ``bits`` more, as both scales are below
    2^bits.  log2(2 pi) / 2 is taken at half = min(part, log_n - 3), ``part``
    for n >= 4: its log2 pi is taken 3 bits finer, so never past ``log_n``.
    The series keeps one ulp per term of 2^-w.
    """
    part = _part_precision(p, _STIRLING_PARTS)
    return min(part, part + bits - 3), part + bits, p + 5 + p.bit_length() + 2


class AttemptPlan(namedtuple("AttemptPlan", "fact log_n")):
    """The precisions a compared row's parts take at one precision r.

    ``fact`` is the precision of log2 n! (and of G(n) in ``error_term_e2``),
    and ``log_n`` that of the ``stirling_plan`` of log2 n! at ``fact``: the
    finest precision a row may ask for.  The Robbins and Ramanujan sides
    add their corrections, at ``log_n``, to the Stirling base at ``fact``.
    """

    __slots__ = ()


@lru_cache(maxsize=64)
def attempt_plan(r: int, bits: int) -> AttemptPlan:
    """The plan of a compared row's parts enclosed at precision r (an
    attempt at q takes r = q + _VERDICT_BITS), for every n of bit length
    ``bits``: log2 n!, n log2 n and, in ``error-term``, G(n) take a third of
    the budget each."""
    fact = _part_precision(r, _ROW_PARTS)
    return AttemptPlan(fact, stirling_plan(fact, bits)[1])


def last_attempt(n: int, p: int, max_escalations: int) -> int:
    """Index of the last attempt of a compared row that starts at precision p
    and doubles it: at most ``max_escalations`` doublings, and none whose
    log2 n, its finest part, would pass ``MAX_PRECISION_BITS``.  A row still
    unsettled there reads Inconclusive, as it does after ``max_escalations``.
    The ceiling is read on every call and keys the cache, so a changed
    ceiling takes effect at once."""
    return _last_attempt(p, max_escalations, n.bit_length(), MAX_PRECISION_BITS)


@lru_cache(maxsize=64)
def _last_attempt(p: int, max_escalations: int, bits: int, ceiling: int) -> int:
    # p << k passes the ceiling for every k >= its bit length
    last = min(max(max_escalations, 0), ceiling.bit_length())
    while last and attempt_plan((p << last) + _VERDICT_BITS, bits).log_n > ceiling:
        last -= 1
    return last
