"""Exact integer kernels for floor-log2 counting sums.

Everything in this module is computed in integer arithmetic only: floors of
base-2 logarithms of ratios are defined operationally as "the largest k with
j*2^k <= a", so no transcendental function and no floating-point rounding can
ever mis-assign a floor.  The two enumeration oracles deliberately count by
brute force; they exist to cross-check the floor-sum identity, not to be fast.

The floor sums count their terms in blocks: floor(log2(a/j)) = k exactly when
a >> (k+1) < j <= a >> k, so a sum over j <= a takes O(log a) integer steps
for every size of a.  numpy appears only in the brute-force oracles, and is
imported only when they run; their int64 paths fall back to
arbitrary-precision loops wherever 63-bit intermediates could overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "DomainError",
    "IdentityViolationError",
    "CountMethod",
    "FloorLogCount",
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


class CountMethod(Enum):
    FLOOR_FORMULA = "FloorFormula"
    EVEN_ENUMERATION = "EvenEnumeration"
    PAIR_ENUMERATION = "PairEnumeration"


@dataclass(frozen=True)
class FloorLogCount:
    """Result of a floor-log2 counting sum, tagged with how it was obtained.

    ``value`` is the exact integer result for bound ``a``.  For the odd-index
    floor sum over odd ``a`` (method FLOOR_FORMULA as produced by
    :func:`odd_floor_sum`) the counting identity forces value == (a - 1) // 2;
    that check is enforced at construction time by the producing operation.
    """

    a: int
    value: int
    method: CountMethod

    def __post_init__(self) -> None:
        require_positive("bound", self.a)
        if self.value < 0:
            raise IdentityViolationError(
                f"negative count {self.value} for a={self.a} ({self.method.value})"
            )


# int64 fast paths stay clear of the top bit; above this we use scalar loops.
_INT64_SAFE_BOUND = 1 << 62

# Cap on per-call numpy scratch arrays (elements), to bound peak memory.
_CHUNK = 1 << 21


def _check_ratio_domain(a: int, j: int) -> None:
    require_positive("a", a)
    require_positive("j", j)
    if j > a:
        raise DomainError(f"j={j} exceeds a={a}; only ratios >= 1 are in domain")


def floor_log2_ratio(a: int, j: int) -> int:
    """Largest k >= 0 with j * 2^k <= a, for 1 <= j <= a.

    Equals floor(log2(a/j)).  Uses the fact that 2^k <= a/j iff 2^k <= a//j,
    so the answer is one less than the bit length of a//j.
    """
    _check_ratio_domain(a, j)
    k = (a // j).bit_length() - 1
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


def _floor_sum(a: int, odd_only: bool, expected: int, rule: str) -> FloorLogCount:
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
    return FloorLogCount(a=a, value=value, method=CountMethod.FLOOR_FORMULA)


def odd_floor_sum(a: int) -> FloorLogCount:
    """Sum of floor(log2(a/j)) over odd j <= a, for odd a.

    The counting identity pins this to (a - 1) / 2; a mismatch raises
    IdentityViolationError rather than returning a bad count.
    """
    require_positive("a", a)
    if a % 2 == 0:
        raise DomainError(f"a must be odd, got {a}; use all_floor_sum for general a")
    return _floor_sum(a, True, (a - 1) // 2, "counting identity demands")


def _count_parity(stop: int, parity: int) -> int:
    """Count of m in 1..stop with m % 2 == parity, by enumeration."""
    if stop > _INT64_SAFE_BOUND:
        return sum(1 for m in range(1, stop + 1) if m % 2 == parity)
    import numpy as np  # only the oracles need it; the other commands skip the import

    count = 0
    for start in range(1, stop + 1, _CHUNK):
        m = np.arange(start, min(stop, start + _CHUNK - 1) + 1, dtype=np.int64)
        count += int(((m & 1) == parity).sum())
    return count


def even_count_oracle(a: int) -> int:
    """Count of even m with 1 <= m < a, for odd a, by direct enumeration.

    No closed formula on purpose: this is the independent side of the
    three-way agreement check.
    """
    require_positive("a", a)
    if a % 2 == 0:
        raise DomainError(f"a must be odd, got {a}")
    return _count_parity(a - 1, 0)


def pair_enumeration_oracle(a: int) -> int:
    """Count pairs (m odd, alpha >= 1) with m * 2^alpha <= a, by double loop.

    The outer loop runs over alpha; the inner enumeration walks every
    candidate m <= a / 2^alpha and keeps the odd ones.
    """
    require_positive("a", a)
    return sum(_count_parity(a >> alpha, 1) for alpha in range(1, a.bit_length()))


def all_floor_sum(a: int) -> FloorLogCount:
    """Sum of floor(log2(a/j)) over ALL j <= a, for any a >= 1.

    Equals a - binary_digit_sum(a); that closed form was brute-force confirmed
    against the direct sum for every a <= 10^4 before being relied on, and the
    test suite re-runs that confirmation.  The value returned here is still the
    floor sum (counted in blocks), with the closed form enforced as a hard
    cross-check.
    """
    require_positive("a", a)
    return _floor_sum(a, False, a - binary_digit_sum(a), "closed form gives")
