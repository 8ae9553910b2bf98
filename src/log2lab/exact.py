"""Exact integer kernels for floor-log2 counting sums.

Everything in this module is computed in integer arithmetic only: floors of
base-2 logarithms of ratios are defined operationally as "the largest k with
j*2^k <= a", so no transcendental function and no floating-point rounding can
ever mis-assign a floor.  The two enumeration oracles deliberately count by
brute force; they exist to cross-check the floor-sum identity, not to be fast.

The floor sums count their terms in blocks: floor(log2(a/j)) = k exactly when
a >> (k+1) < j <= a >> k, so a sum over j <= a takes O(log a) integer steps
for every size of a.  The enumeration oracles still visit every m, but each
resumes where its last count in the process stopped, so checking N values of
a up to A in ascending order visits each m once: O(A + N), not O(N * A).
"""

from __future__ import annotations

__all__ = [
    "DomainError",
    "IdentityViolationError",
    "floor_log2_fraction",
    "floor_log2_ratio",
    "ceil_log2",
    "binary_digit_sum",
    "power_of_two_ratio",
    "odd_floor_sum",
    "even_count_oracle",
    "pair_enumeration_oracle",
    "all_floor_sum",
]


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class IdentityViolationError(ArithmeticError):
    """A proven identity failed on concrete integers.

    This is never caught and converted into a soft result inside the library:
    it means either a bug or a genuine counterexample, and both must be loud.
    """


def require_positive(name: str, v: int) -> None:
    """Raise DomainError unless the integer argument ``name`` is >= 1."""
    if v < 1:
        raise DomainError(f"{name} must be a positive integer, got {v}")


def _check_ratio_domain(a: int, j: int) -> None:
    require_positive("a", a)
    require_positive("j", j)
    if j > a:
        raise DomainError(f"j={j} exceeds a={a}; only ratios >= 1 are in domain")


def floor_log2_fraction(num: int, den: int) -> int:
    """Exact floor(log2(num/den)) for positive integers, by shift-compare."""
    if num < 1 or den < 1:
        raise DomainError("floor_log2_fraction needs positive num and den")
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        return e if (den << e) <= num else e - 1
    return e if den <= (num << -e) else e - 1


def floor_log2_ratio(a: int, j: int) -> int:
    """Largest k >= 0 with j * 2^k <= a, for 1 <= j <= a: floor(log2(a/j))."""
    _check_ratio_domain(a, j)
    k = floor_log2_fraction(a, j)
    # defining property, cheap enough to keep as a hard guarantee
    if (j << k) > a or (j << (k + 1)) <= a:
        raise IdentityViolationError(f"floor_log2_ratio bracket failed for a={a}, j={j}")
    return k


def ceil_log2(m: int) -> int:
    """Smallest t >= 0 with 2^t >= m, for m >= 1."""
    require_positive("m", m)
    return (m - 1).bit_length()


def binary_digit_sum(a: int) -> int:
    """Sum of base-2 digits of a (a >= 0)."""
    if a < 0:
        raise DomainError(f"a must be non-negative, got {a}")
    return bin(a).count("1")


def power_of_two_ratio(a: int, j: int) -> int | None:
    """k if a == j * 2^k exactly, else None; integer arithmetic only."""
    _check_ratio_domain(a, j)
    q, r = divmod(a, j)
    if r != 0 or q & (q - 1):
        return None
    return q.bit_length() - 1


def _floor_sum(a: int, odd_only: bool, expected: int, rule: str) -> int:
    """Sum of floor(log2(a/j)) over j <= a (odd j only, if odd_only), checked
    against the value ``rule`` gives.

    The j with floor(log2(a/j)) = k are exactly a >> (k+1) < j <= a >> k, so
    each k contributes k times the size of that block.
    """
    value = 0
    for k in range(1, a.bit_length()):
        hi, lo = a >> k, a >> (k + 1)
        # (x + 1) // 2 odd j lie in 1..x
        value += k * ((hi + 1) // 2 - (lo + 1) // 2 if odd_only else hi - lo)
    if value != expected:
        raise IdentityViolationError(
            f"{'odd' if odd_only else 'all-index'} floor sum for a={a} is {value}, "
            f"{rule} {expected}"
        )
    return value


def odd_floor_sum(a: int) -> int:
    """Sum of floor(log2(a/j)) over odd j <= a, for odd a.

    The counting identity pins this to (a - 1) / 2; a mismatch raises
    IdentityViolationError rather than returning a bad count.
    """
    require_positive("a", a)
    if a % 2 == 0:
        raise DomainError(f"a must be odd, got {a}; use all_floor_sum for general a")
    return _floor_sum(a, True, (a - 1) // 2, "counting identity demands")


def _count_parity(lo: int, hi: int, parity: int) -> int:
    """Count of m with lo < m <= hi and m % 2 == parity, by enumeration."""
    count = 0
    for m in range(lo + 1, hi + 1):
        if m % 2 == parity:
            count += 1
    return count


# Resume points (a, count) of the last completed oracle count in this process.
# Each is replaced by one tuple assignment after its count completes, so an
# exception or interrupt mid-count leaves a consistent point behind.
_EVEN_FROM_ZERO = (1, 0)
_PAIR_FROM_ZERO = (0, 0)
_even_resume = _EVEN_FROM_ZERO
_pair_resume = _PAIR_FROM_ZERO


def even_count_oracle(a: int) -> int:
    """Count of even m with 1 <= m < a, for odd a, by direct enumeration.

    No closed formula on purpose: this is the independent side of the
    three-way agreement check.  The count resumes from the last a this process
    counted: a larger a enumerates only the m in a_prev..a-1, a smaller one
    enumerates again from m = 1.
    """
    global _even_resume
    require_positive("a", a)
    if a % 2 == 0:
        raise DomainError(f"a must be odd, got {a}")
    a_prev, count = _even_resume
    if a < a_prev:
        a_prev, count = _EVEN_FROM_ZERO
    count += _count_parity(a_prev - 1, a - 1, 0)
    _even_resume = (a, count)
    return count


def pair_enumeration_oracle(a: int) -> int:
    """Count pairs (m odd, alpha >= 1) with m * 2^alpha <= a, by double loop.

    The outer loop runs over alpha; the inner enumeration walks every
    candidate m <= a / 2^alpha and keeps the odd ones.  Like
    :func:`even_count_oracle` it resumes from the last a this process
    counted: a larger a walks only the m in (a_prev >> alpha, a >> alpha] for
    each alpha, a smaller one walks again from m = 1.
    """
    global _pair_resume
    require_positive("a", a)
    a_prev, count = _pair_resume
    if a < a_prev:
        a_prev, count = _PAIR_FROM_ZERO
    for alpha in range(1, a.bit_length()):
        count += _count_parity(a_prev >> alpha, a >> alpha, 1)
    _pair_resume = (a, count)
    return count


def all_floor_sum(a: int) -> int:
    """Sum of floor(log2(a/j)) over ALL j <= a, for any a >= 1.

    Equals a - binary_digit_sum(a); that closed form was brute-force confirmed
    against the direct sum for every a <= 10^4 before being relied on, and the
    test suite re-runs that confirmation.  The value returned here is still the
    floor sum (counted in blocks), with the closed form enforced as a hard
    cross-check.
    """
    require_positive("a", a)
    return _floor_sum(a, False, a - binary_digit_sum(a), "closed form gives")
