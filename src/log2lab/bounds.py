"""Factorial bounds under certified interval comparison.

Four quantities are compared against certified enclosures of log2(n!), all in
the log2 domain so that n^n never has to be formed:

* the counting lower bound  n^n / 2^(n - 1 + G(n)),
* both sides of the Robbins form of Stirling's inequality,
* both sides of the Ramanujan sixth-root estimate, evaluated verbatim with
  the source's constants a = 39/54 and b = 0.35499112666... (the printed
  decimal and its closed form disagree past the sixth decimal; this module
  computes both and reports, never silently picks).

The Robbins and Ramanujan verdicts are issued only from non-overlapping
intervals.  The counting-bound verdict comes from an exact identity instead:
by Legendre's formula, sum_{m <= n} floor(log2(n/m)) = n - s2(n), so the
error term e2(n) = log2 n! - log2(counting bound) is the integer s2(n) - 1.
The bound therefore holds for every n, with equality exactly when n is a power
of two, and no finite precision is asked to separate equal numbers.

A compared row takes G(n) from its definition, G(n) = n log2 n - log2 n! -
sum_{m <= n} floor(log2(n/m)): the row's own enclosures of n log2 n and
log2 n!, minus the floor sum n - s2(n) that Legendre's formula gives.  Each
row still checks that its e2 enclosure contains s2(n) - 1, which guards the
interval arithmetic that assembles it.  ``error_term_e2`` takes G(n) from
Legendre's factorization of n! instead, counting v_2(n!) itself, so its e2
checks log2 n! against that factorization and the count against n - s2(n).

A compared row costs O(log n) work for every n, with one log2 n per attempt.
log2 n! comes from the Stirling series (see :mod:`log2lab.enclosures`) once n
passes a switch near 2p.  Every n-scaled part of the row, (n + 1/2) log2 n in
log2 n!, Robbins and Ramanujan, and n log2 n, takes log2 n at one precision,
the ``log_n`` of the attempt's ``exact.attempt_plan``, so that one log core
call, kept by ``log2_int_enclosure``, serves the attempt.  The four
Robbins and Ramanujan sides add their corrections, all at ``log_n``, to the
Stirling base (n + 1/2) log2 n - n log2 e + log2(2 pi) / 2 that the
attempt's log2 n! takes.  Those logs are near 1 and
come from the bracket behind ``log2_1p``, the log series without the
reduction to [1, 2): log2(8n^3 + 4n^2 + n + 1/30) = 3 + 3 log2 n +
log2(1 + y) with y about 1/(2n), and each Ramanujan correction
log2(1 - 11 / (11520 (n + s)^4)).  Each y goes to the series as an unreduced
integer ratio (the series floors quotients of it, which reduction does not
change), so a row builds no Fraction.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache

from .dyadic import DyadicInterval
from .enclosures import (
    G_enclosure,
    _log2_1p_raw,
    _raw_to_interval,
    _stirling_base,
    e_interval,
    log2_e_interval,
    log2_factorial_enclosure,
    log2_fraction,  # unused here; kept as the place a traced run wraps it
    log2_int_enclosure,
    pi_interval,
)
from .exact import (
    _VERDICT_BITS,
    DomainError,
    IdentityViolationError,
    _check_precision,
    attempt_plan,
    binary_digit_sum,
    last_attempt,
    require_positive,
)

__all__ = [
    "VerdictStatus",
    "Verdict",
    "BAgreementReport",
    "BoundRow",
    "BOUND_NAMES",
    "error_term_e2",
    "robbins_bounds_log2",
    "ramanujan_bounds_log2",
    "compare_bounds",
    "ramanujan_b_printed",
    "ramanujan_b_closed_form",
    "ramanujan_b_agreement",
]


class VerdictStatus(Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


# The records are named tuples rather than frozen dataclasses, so that a row
# builds each in one tuple allocation and importing this module builds no
# dataclass.  Like any tuple, they compare and show field by field, and hash
# by field where every field is hashable.


class Verdict(namedtuple("Verdict", ("status", "certificate"))):
    """Outcome of one interval comparison, with the certifying intervals.

    ``certificate`` is (lhs, rhs) for the claim lhs <= rhs; HOLDS and VIOLATED
    are only ever issued from strictly separated endpoints.
    """

    __slots__ = ()


def _status(lhs: DyadicInterval, rhs: DyadicInterval) -> VerdictStatus:
    """The status of the claim lhs <= rhs, from separated endpoints only."""
    if lhs.strictly_below(rhs):
        return VerdictStatus.HOLDS
    if rhs.strictly_below(lhs):
        return VerdictStatus.VIOLATED
    return VerdictStatus.INCONCLUSIVE


BOUND_NAMES = (
    "paper",
    "robbins_lower",
    "robbins_upper",
    "ramanujan_lower",
    "ramanujan_upper",
)


# ---------------------------------------------------------------------------
# Ramanujan constants
# ---------------------------------------------------------------------------

# a = 39/54, as the integer ratio (numerator, denominator) in lowest terms
A_CONST = (13, 18)

# the printed decimal 0.35499112666..., read as a truncation: b lies in
# [_B_PRINTED, _B_PRINTED + 1] / _B_PRINTED_SCALE
_B_PRINTED = 35499112666
_B_PRINTED_SCALE = 10**11


@lru_cache(maxsize=None)
def ramanujan_b_printed(p: int) -> DyadicInterval:
    """Enclosure of the printed decimal for b, on the 2^-(p+16) grid."""
    f = p + 16
    lo = (_B_PRINTED << f) // _B_PRINTED_SCALE
    hi = -((-(_B_PRINTED + 1) << f) // _B_PRINTED_SCALE)
    return DyadicInterval.from_mantissas(lo, hi, -f)


@lru_cache(maxsize=None)
def ramanujan_b_closed_form(p: int) -> DyadicInterval:
    """b from its closed form (11 / (11520 (1 - (30 e^6 / (391 pi^3))^(1/6))))^(1/4) - 1.

    The subtraction 1 - (ratio)^(1/6) cancels about 12 bits, so everything
    upstream runs with a wide fixed guard and the final width is asserted.
    """
    f = p + 40
    e6 = e_interval(f).pow_int(6)
    pi3 = pi_interval(f).pow_int(3)
    ratio = e6.scale_int(30) * pi3.scale_int(391).reciprocal(f)
    root6 = ratio.nth_root(6, f)
    one_minus = (-root6).add_int(1)
    if one_minus.lo.sign <= 0:
        raise IdentityViolationError("closed-form b: 1 - (30e^6/391pi^3)^(1/6) must be positive")
    inner = one_minus.reciprocal(f).scale_int(11).div_by_posint(11520, f)
    b = inner.nth_root(4, f).add_int(-1)
    if not b.width_within(p):
        raise IdentityViolationError("closed-form b enclosure missed its width budget")
    return b


class BAgreementReport(namedtuple("BAgreementReport", ("printed", "closed_form", "agree"))):
    """Printed-decimal b versus closed-form b at a given precision."""

    __slots__ = ()


def ramanujan_b_agreement(p: int = 64) -> BAgreementReport:
    printed = ramanujan_b_printed(p)
    closed = ramanujan_b_closed_form(p)
    return BAgreementReport(printed=printed, closed_form=closed, agree=printed.intersects(closed))


# b source name -> enclosure of b at a given precision
_B_SOURCES = {"printed": ramanujan_b_printed, "closed-form": ramanujan_b_closed_form}


def _b_routine(name: str):
    """The b routine for a source name; DomainError for an unknown name."""
    if name not in _B_SOURCES:
        raise DomainError(f"unknown b source {name!r}; use {' or '.join(map(repr, _B_SOURCES))}")
    return _B_SOURCES[name]


@lru_cache(maxsize=None)
def _b_ends(name: str, p: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The endpoints of b from source ``name`` at precision p, each as its
    (numerator, denominator)."""
    b = _b_routine(name)(p)
    return (b.lo.numerator, b.lo.denominator), (b.hi.numerator, b.hi.denominator)


# ---------------------------------------------------------------------------
# the counting bound and its error term
# ---------------------------------------------------------------------------


def error_term_e2(n: int, p: int) -> DyadicInterval:
    """Enclosure of e2(n) = log2 n! - (n log2 n - n + 1 - G(n)).

    This is the base-2 error term of the partial-log-sum formula.  By
    Legendre's formula, sum_{m <= n} floor(log2(n/m)) = n - s2(n), so e2(n) is
    exactly the integer s2(n) - 1.  Here G(n) comes from Legendre's
    factorization of n!, with v_2(n!) counted, not taken as n - s2(n), so
    this enclosure checks log2 n! against that factorization and the count
    against n - s2(n): log2 n!, n log2 n and G(n) are each enclosed at a
    third of the 2^-p budget, the ``fact`` of ``attempt_plan(p, bits)``.
    n log2 n takes log2 n at its ``log_n``, the enclosure the Stirling
    log2 n! takes, so a row makes one log2 n.
    """
    require_positive("n", n)
    plan = attempt_plan(p, n.bit_length())
    fact = log2_factorial_enclosure(n, plan.fact)
    x = log2_int_enclosure(n, plan.log_n).scale_int(n)
    return fact - (x.add_int(-(n - 1)) - G_enclosure(n, plan.fact))


# ---------------------------------------------------------------------------
# Robbins and Ramanujan comparators
# ---------------------------------------------------------------------------


def robbins_bounds_log2(n: int, p: int) -> tuple[DyadicInterval, DyadicInterval]:
    """Enclosures of log2 of both Robbins sides.

    lower = log2(sqrt(2 pi) n^(n+1/2) e^-n), the Stirling base at the
    ``fact`` of ``attempt_plan(p, bits)``; upper = lower + log2(e)/(12 n).
    """
    require_positive("n", n)
    fact, q = attempt_plan(p, n.bit_length())
    lower = _stirling_base(n, fact)
    return lower, lower + log2_e_interval(q).div_by_posint(12 * n, q)


def _ramanujan_correction(n: int, a: int, c: int, q: int) -> tuple[int, int, int]:
    """Padded bracket (lo, hi, s) of log2(1 - 11 / (11520 (n + a/c)^4)) for
    integers a >= 0 and c >= 1, from log2(1 + y) with y taken as the integer
    ratio -11 c^4 / (11520 (n c + a)^4)."""
    return _log2_1p_raw(-11 * c**4, 11520 * (n * c + a) ** 4, q)


def ramanujan_bounds_log2(
    n: int, p: int, b_source: str = "printed"
) -> tuple[DyadicInterval, DyadicInterval]:
    """Enclosures of log2 of both Ramanujan sides, constants taken verbatim:
    a = 39/54 and b from ``b_source``, "printed" or "closed-form".

    The sixth-root argument 8n^3 + 4n^2 + n + 1/30 is 8n^3 (1 + y) with the
    exact rational y = (120n^2 + 30n + 1) / (240n^3), so its log2 is
    3 + 3 log2 n + log2(1 + y), and a side is the Stirling base plus
    log2(1 + y) / 6 and its correction, each log2(1 + y) at the ``log_n`` of
    ``attempt_plan(p, bits)``.  A correction rises with its shift, so the
    upper side takes the lower end of its correction at b's lower endpoint
    and the upper end at b's upper one.  The lower side meets
    the 2^-p width contract outright; the upper side additionally inherits
    the width of the b enclosure itself (irreducible for the 11-digit
    printed decimal at small n, vanishing with the closed form, and decaying
    like n^-5 either way).
    """
    require_positive("n", n)
    b_lo, b_hi = _b_ends(b_source, p)
    fact, q = attempt_plan(p, n.bit_length())

    poly = _raw_to_interval(*_log2_1p_raw(120 * n * n + 30 * n + 1, 240 * n**3, q))
    # log2 sqrt(pi) + 3/6 and n log2 n + (3/6) log2 n: the 3 + 3 log2 n of the
    # sixth root, folded into the Stirling base
    base = _stirling_base(n, fact) + poly.div_by_posint(6, q)

    lower_corr = _ramanujan_correction(n, *A_CONST, q)
    upper_lo, _, s = _ramanujan_correction(n, *b_lo, q)
    _, upper_hi, _ = _ramanujan_correction(n, *b_hi, q)
    return base + _raw_to_interval(*lower_corr), base + _raw_to_interval(upper_lo, upper_hi, s)


# ---------------------------------------------------------------------------
# assembled rows
# ---------------------------------------------------------------------------


class BoundRow(
    namedtuple(
        "BoundRow",
        "n precision_bits log2_fact g paper_lb robbins_lo robbins_hi ramanujan_lo"
        " ramanujan_hi c_log2 e2 s2 equality verdicts escalations",
    )
):
    """Everything measured for one n, all in the log2 domain.

    Unhashable, unlike the other records: ``verdicts`` is a dict.
    """

    __slots__ = ()


def compare_bounds(
    n: int,
    p: int,
    b_source: str = "printed",
    max_escalations: int = 4,
) -> BoundRow:
    """Assemble the full BoundRow for n, doubling precision while a Robbins or
    Ramanujan verdict stays inconclusive, up to max_escalations times and
    never past an attempt whose log2 n would pass the precision ceiling
    (``last_attempt``); a row unsettled at its last attempt reads Inconclusive.

    An attempt at precision q encloses every part at r = q + 4
    (``_VERDICT_BITS``), so a verdict separates margins down to about
    2^-(q+4), at the precisions of its cached ``attempt_plan(r, bits)``.  It
    takes log2 n once, at the plan's ``log_n``, the finest precision of the
    attempt, which ``sweep-bounds`` validates a range by and
    ``last_attempt`` stops at; its four sides add their corrections to the
    Stirling base of its log2 n!, so the attempt forms one base.
    An attempt that will escalate stops at its first Inconclusive verdict: it
    compares log2 n! with the Ramanujan sides first, then Robbins.  Only the
    settled precision takes n log2 n for the counting bound.  G(n) is
    n log2 n - log2 n! minus the floor sum n - s2(n) of Legendre's formula,
    from the row's own log2 n!, so a row brackets no factorial for G(n) and
    counts no floors.  The counting-bound verdict is Holds from the identity
    e2(n) = s2(n) - 1; the row's e2 enclosure must contain s2(n) - 1, a check
    on the interval arithmetic that builds it, and c_log2 is that enclosure
    too, since log2 C(n) = e2(n).  A row is never partially emitted: every
    field is filled at the precision the row finally settled on.
    """
    require_positive("n", n)
    _check_precision(p)
    _b_routine(b_source)  # reject an unknown name before any work
    last = last_attempt(n, p, max_escalations)
    for attempt in range(last + 1):
        q = p << attempt
        r = q + _VERDICT_BITS
        plan = attempt_plan(r, n.bit_length())
        fact = log2_factorial_enclosure(n, plan.fact)
        ram_lo, ram_hi = ramanujan_bounds_log2(n, r, b_source)
        ramanujan = _status(ram_lo, fact), _status(fact, ram_hi)
        if attempt < last and VerdictStatus.INCONCLUSIVE in ramanujan:
            continue
        robbins_lo, robbins_hi = robbins_bounds_log2(n, r)
        robbins = _status(robbins_lo, fact), _status(fact, robbins_hi)
        if VerdictStatus.INCONCLUSIVE not in robbins + ramanujan:
            break

    s2 = binary_digit_sum(n)
    x = log2_int_enclosure(n, plan.log_n).scale_int(n)
    # the floor sum is n - s2(n), by Legendre's formula
    g = (x - fact).add_int(s2 - n)
    paper_lb = x.add_int(-(n - 1)) - g
    e2 = fact - paper_lb
    if not e2.contains_int(s2 - 1):
        raise IdentityViolationError(
            f"e2({n}) enclosure at p={q} misses s2(n) - 1 = {s2 - 1}, "
            "which Legendre's formula fixes"
        )
    # no finite precision separates equal quantities at n = 2^t; the identity
    # is the evidence for Holds, strict exactly when s2(n) > 1
    verdicts = {
        "paper": Verdict(VerdictStatus.HOLDS, (paper_lb, fact)),
        "robbins_lower": Verdict(robbins[0], (robbins_lo, fact)),
        "robbins_upper": Verdict(robbins[1], (fact, robbins_hi)),
        "ramanujan_lower": Verdict(ramanujan[0], (ram_lo, fact)),
        "ramanujan_upper": Verdict(ramanujan[1], (fact, ram_hi)),
    }
    return BoundRow(
        n=n,
        precision_bits=q,
        log2_fact=fact,
        g=g,
        paper_lb=paper_lb,
        robbins_lo=robbins_lo,
        robbins_hi=robbins_hi,
        ramanujan_lo=ram_lo,
        ramanujan_hi=ram_hi,
        c_log2=e2,
        e2=e2,
        s2=s2,
        equality=s2 == 1,
        verdicts=verdicts,
        escalations=attempt,
    )
