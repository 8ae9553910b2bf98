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
oracles visit every m, but they count over an interval: given the previous
odd a_prev too, they count only the m that a adds over a_prev.  A caller
that checks N odd a up to A adds up those interval counts, so it visits each
m once: the whole check costs O(A) visits plus O(log A) block and alpha
steps per a, O(A + N log A) in all, instead of the O(N * A) of counting
every a from m = 1.

The precision and work limits of a run live here too, as the same kind of
integer rule, one per limit: the finest precision a compared row asks for
and how far it may escalate, the bracket precision and work of G(n), and how
many m the enumeration oracles visit over a range.  Each command checks its
range against its rule before a run starts, without loading the enclosure
code.
"""

from __future__ import annotations

__all__ = [
    "DomainError",
    "IdentityViolationError",
    "ResourceLimitError",
    "MIN_PRECISION",
    "MAX_PRECISION_BITS",
    "WORK_CEILING",
    "g_cost",
    "oracle_work",
    "log2_n_precision",
    "sweep_row_precision",
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


def _check_interval(a_prev: int, a: int, least: int) -> None:
    if not least <= a_prev <= a:
        raise DomainError(f"a_prev must lie in [{least}, a={a}], got {a_prev}")


def even_count_oracle(a: int, a_prev: int = 1) -> int:
    """Count of even m with a_prev <= m < a, for odd a, by direct enumeration.

    No closed formula on purpose: this is the independent side of the
    three-way agreement check.  Called with a alone it counts from m = 1, which
    is (a - 1) / 2; the counts over [a0, a1) and [a1, a2) add up to the count
    over [a0, a2).
    """
    require_positive("a", a)
    if a % 2 == 0:
        raise DomainError(f"a must be odd, got {a}")
    _check_interval(a_prev, a, 1)
    return _count_parity(a_prev - 1, a - 1, 0)


def pair_enumeration_oracle(a: int, a_prev: int = 0) -> int:
    """Count pairs (m odd, alpha >= 1) with a_prev < m * 2^alpha <= a, by double
    loop.

    The outer loop runs over alpha; the inner enumeration walks every
    candidate m in (a_prev / 2^alpha, a / 2^alpha] and keeps the odd ones.
    Called with a alone it counts every pair up to a, which is a // 2; the
    counts over (a0, a1] and (a1, a2] add up to the count over (a0, a2].
    """
    require_positive("a", a)
    _check_interval(a_prev, a, 0)
    count = 0
    for alpha in range(1, a.bit_length()):
        count += _count_parity(a_prev >> alpha, a >> alpha, 1)
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


def _part_precision(p: int, parts: int, scale: int = 1) -> int:
    """Per-part precision so that `parts` terms, each scaled by at most
    `scale`, sum to well under 2^-p."""
    q = p + 1 + ceil_log2(parts)
    if scale > 1:
        q += ceil_log2(scale)
    return q


def g_cost(n: int, p: int) -> tuple[int, int]:
    """(q_tab, work) of G(n) held to 2^-p, for n >= 1: the precision of its
    log2 prime brackets, and the work that ``WORK_CEILING`` holds it to.

    Each of the n terms is held below 2^-(q_term + 1), q_term =
    ``_part_precision(p, n)``, and an m's bracket adds up Omega(m) <
    bit_length(n) prime brackets, so the brackets run ceil(log2
    bit_length(n)) + 1 guard bits finer than q_term + 1.  G(n) costs a sieve
    of n bytes, up to pi(n) cached brackets of q_tab bits and O(pi(n))
    steps, and the work, n (q_term + ceil(log2 n)), is above each of them.
    ``G_enclosure`` checks both numbers, and ``error-term`` checks them for
    its largest G(n) before a run starts.
    """
    q_term = _part_precision(p, n)
    q_tab = q_term + 2 + ceil_log2(n.bit_length())
    return q_tab, n * (q_term + ceil_log2(n))


def oracle_work(n_hi: int) -> int:
    """Values of m that ``verify-theorem``'s two enumeration oracles visit
    over a range up to n_hi: fewer than n_hi each, since a run counts every m
    once and its first odd a counts from m = 1.  The odd floor sums add only
    O(log n_hi) steps per a, so this is the work that ``WORK_CEILING`` holds
    a ``verify-theorem`` range to."""
    return 2 * n_hi


def _stirling_log2_n_precision(n: int, p: int) -> int:
    """Precision of log2 n in a Stirling-series log2 n! held to 2^-p, where
    it is scaled by n + 1/2."""
    return _part_precision(p, _STIRLING_PARTS, n + 1)


def log2_n_precision(n: int, p: int) -> int:
    """Precision of the log2 n enclosure that the parts of a compared row
    enclosed at precision p take: the Robbins and Ramanujan sides, log2 n! at
    the row's part precision, and n log2 n.

    It is what the Stirling-series log2 n! needs for its (n + 1/2) log2 n;
    the other n-scaled parts need less and take the same enclosure, so an
    attempt makes one log core call for it.
    """
    return _stirling_log2_n_precision(n, _part_precision(p, _ROW_PARTS))


def sweep_row_precision(n: int, q: int) -> int:
    """Largest precision a compared (``sweep-bounds``) row asks for at
    precision q: its one log2 n, at ``log2_n_precision(n, q + _VERDICT_BITS)``.
    It runs no G(n), so this is its only limit."""
    return log2_n_precision(n, q + _VERDICT_BITS)


def last_attempt(n: int, p: int, max_escalations: int) -> int:
    """Index of the last attempt of a compared row that starts at precision p
    and doubles it: at most ``max_escalations`` doublings, and none whose
    finest part would pass ``MAX_PRECISION_BITS``.  A row still unsettled
    there reads Inconclusive, as it does after ``max_escalations``."""
    # p << k passes the ceiling for every k >= its bit length
    last = min(max(max_escalations, 0), MAX_PRECISION_BITS.bit_length())
    while last and sweep_row_precision(n, p << last) > MAX_PRECISION_BITS:
        last -= 1
    return last
