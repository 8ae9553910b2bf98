"""Factorial bounds under certified interval comparison.

Four quantities are compared against certified enclosures of log2(n!), all in
the log2 domain so that n^n never has to be formed:

* the counting lower bound  n^n / 2^(n - 1 + G(n)),
* both sides of the Robbins form of Stirling's inequality,
* both sides of the Ramanujan sixth-root estimate, evaluated verbatim with
  the source's constants a = 39/54 and b = 0.35499112666... (the printed
  decimal and its closed form disagree past the sixth decimal; this module
  computes both and reports, never silently picks).

A verdict is issued only from non-overlapping intervals.  The single known
equality family (n a power of two, where the counting bound is attained
exactly) is certified by an exact integer identity instead of asking finite
precision to separate equal numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .dyadic import DyadicInterval, DyadicRational, dyadic_from_fraction
from .enclosures import (
    MIN_PRECISION,
    G_enclosure,
    _part_precision,
    e_interval,
    log2_e_interval,
    log2_factorial_enclosure,
    log2_fraction,
    log2_int_enclosure,
    log2_interval,
    log2_pi_interval,
    pi_interval,
)
from .exact import (
    DomainError, IdentityViolationError, binary_digit_sum, ceil_log2, require_positive
)

__all__ = [
    "VerdictStatus",
    "Verdict",
    "BAgreementReport",
    "BoundRow",
    "BOUND_NAMES",
    "paper_lower_bound_log2",
    "error_term_e2",
    "robbins_bounds_log2",
    "ramanujan_bounds_log2",
    "compare_bounds",
    "paper_equality_certificate",
    "ramanujan_b_printed",
    "ramanujan_b_closed_form",
    "ramanujan_b_agreement",
]


class VerdictStatus(Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one interval comparison, with the certifying intervals.

    ``certificate`` is (lhs, rhs) for the claim lhs <= rhs; HOLDS and VIOLATED
    are only ever issued from strictly separated endpoints.
    """

    status: VerdictStatus
    certificate: tuple[DyadicInterval, DyadicInterval]


def _verdict(lhs: DyadicInterval, rhs: DyadicInterval) -> Verdict:
    if lhs.hi < rhs.lo:
        status = VerdictStatus.HOLDS
    elif rhs.hi < lhs.lo:
        status = VerdictStatus.VIOLATED
    else:
        status = VerdictStatus.INCONCLUSIVE
    return Verdict(status=status, certificate=(lhs, rhs))


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

A_CONST = Fraction(39, 54)

# the printed decimal 0.35499112666..., read as a truncation
_B_PRINTED_LO = Fraction(35499112666, 10**11)
_B_PRINTED_HI = Fraction(35499112667, 10**11)


@lru_cache(maxsize=None)
def ramanujan_b_printed(p: int) -> DyadicInterval:
    """Enclosure of the printed decimal for b."""
    return DyadicInterval(
        dyadic_from_fraction(_B_PRINTED_LO, p + 16, up=False),
        dyadic_from_fraction(_B_PRINTED_HI, p + 16, up=True),
    )


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
    inner = one_minus.reciprocal(f).mul_fraction(Fraction(11, 11520), f)
    b = inner.nth_root(4, f).add_int(-1)
    if not b.width_within(p):
        raise IdentityViolationError("closed-form b enclosure missed its width budget")
    return b


@dataclass(frozen=True)
class BAgreementReport:
    """Printed-decimal b versus closed-form b at a given precision."""

    printed: DyadicInterval
    closed_form: DyadicInterval
    agree: bool


def ramanujan_b_agreement(p: int = 64) -> BAgreementReport:
    printed = ramanujan_b_printed(p)
    closed = ramanujan_b_closed_form(p)
    return BAgreementReport(printed=printed, closed_form=closed, agree=printed.intersects(closed))


# b source name -> enclosure of b at a given precision
_B_SOURCES = {"printed": ramanujan_b_printed, "closed-form": ramanujan_b_closed_form}


def _b_routine(name: str):
    """The b routine for a source name; DomainError for an unknown name."""
    if name not in _B_SOURCES:
        raise DomainError(f"unknown b source {name!r}; use 'printed' or 'closed-form'")
    return _B_SOURCES[name]


# ---------------------------------------------------------------------------
# the counting bound and its error term
# ---------------------------------------------------------------------------


def paper_lower_bound_log2(n: int, p: int) -> DyadicInterval:
    """Enclosure of log2 of the counting bound: n log2 n - (n - 1 + G(n))."""
    require_positive("n", n)
    q_x = _part_precision(p, 2, n)
    q_g = _part_precision(p, 2)
    x = log2_int_enclosure(n, q_x).scale_int(n)
    g = G_enclosure(n, q_g)
    return x.add_int(-(n - 1)) - g


def _counting_parts(
    n: int, p: int
) -> tuple[DyadicInterval, DyadicInterval, DyadicInterval, DyadicInterval]:
    """(log2 n!, G(n), log2 counting bound, e2(n)), from log2 n!, n log2 n and
    G(n) each enclosed at a third of the 2^-p budget."""
    q = _part_precision(p, 3)
    fact = log2_factorial_enclosure(n, q)
    x = log2_int_enclosure(n, _part_precision(p, 3, n)).scale_int(n)
    g = G_enclosure(n, q)
    paper_lb = x.add_int(-(n - 1)) - g
    return fact, g, paper_lb, fact - paper_lb


def error_term_e2(n: int, p: int) -> DyadicInterval:
    """Enclosure of e2(n) = log2 n! - (n log2 n - n + 1 - G(n)).

    This is the base-2 error term of the partial-log-sum formula.  Brute-force
    interval evaluation confirmed e2(n) = s2(n) - 1 for every n <= 512 before
    the hypothesis was allowed anywhere else; the sweep re-checks it on every
    row it emits.

    It is also log2 C(n) = log2 n! - n log2 n + (n - 1 + G(n)), the measured
    gap above the counting bound, rearranged; dyadic addition is exact, so the
    sweep's ``c_log2`` columns are this enclosure bit for bit.
    """
    require_positive("n", n)
    return _counting_parts(n, p)[3]


def paper_equality_certificate(n: int) -> bool:
    """Exact integer proof that the counting bound is attained at n = 2^t.

    For n = 2^t the error term reduces to the integer
    (n - 1) - t n + sum_{m <= n} ceil(log2 m), which this function evaluates
    by direct enumeration.  Returns True iff n is a power of two and the
    integer vanishes (exact equality n! = n^n / 2^(n-1+G(n))).
    """
    require_positive("n", n)
    if binary_digit_sum(n) != 1:
        return False
    t = n.bit_length() - 1
    ceil_sum = sum(ceil_log2(m) for m in range(1, n + 1))
    return (n - 1) - t * n + ceil_sum == 0


# ---------------------------------------------------------------------------
# Robbins and Ramanujan comparators
# ---------------------------------------------------------------------------


def robbins_bounds_log2(n: int, p: int) -> tuple[DyadicInterval, DyadicInterval]:
    """Enclosures of log2 of both Robbins sides.

    lower = log2(sqrt(2 pi) n^(n+1/2) e^-n); upper = lower + log2(e)/(12 n).
    """
    require_positive("n", n)
    q_pi = _part_precision(p, 4)
    q_n = _part_precision(p, 4, n + 1)
    q_e = _part_precision(p, 4, n)
    q_d = _part_precision(p, 4) + 2

    half = DyadicRational(1, -1)
    pi_part = log2_pi_interval(q_pi).add_int(1).scale_dyadic(half)
    n_part = log2_int_enclosure(n, q_n).scale_dyadic(
        DyadicRational(2 * n + 1, -1)
    )
    e_part = log2_e_interval(q_e).scale_int(n)
    lower = pi_part + n_part - e_part
    upper = lower + log2_e_interval(q_d).div_by_posint(12 * n, q_d)
    return lower, upper


def _ramanujan_correction_rational(n: int, shift: Fraction, q: int) -> DyadicInterval:
    """log2(1 - 11 / (11520 (n + shift)^4)) for an exact rational shift."""
    arg = 1 - Fraction(11, 11520) / (n + shift) ** 4
    if not 0 < arg < 1:
        raise DomainError(f"Ramanujan correction argument {arg} left (0, 1)")
    return log2_fraction(arg, q)


def _ramanujan_correction_interval(n: int, shift: DyadicInterval, q: int) -> DyadicInterval:
    """Same correction for an enclosed shift (the b constant)."""
    f = q + 4
    den = shift.add_int(n).pow_int(4)
    x = den.reciprocal(f).mul_fraction(Fraction(11, 11520), f)
    arg = (-x).add_int(1)
    if arg.lo.sign <= 0:
        raise DomainError("Ramanujan correction argument left (0, 1)")
    one = DyadicRational(1)
    if arg.hi > one:
        # outward rounding can push the enclosure onto 1 at coarse precision;
        # the true argument stays below it, so log2 <= 0 remains certified
        arg = DyadicInterval(arg.lo, one)
    if arg.hi == one:
        return DyadicInterval(log2_fraction(arg.lo.to_fraction(), q + 1).lo, DyadicRational(0))
    return log2_interval(arg, q + 1)


def ramanujan_bounds_log2(
    n: int, p: int, b_source: str = "printed"
) -> tuple[DyadicInterval, DyadicInterval]:
    """Enclosures of log2 of both Ramanujan sides, constants taken verbatim:
    a = 39/54 and b from ``b_source``, "printed" or "closed-form".

    The sixth-root argument 8n^3 + 4n^2 + n + 1/30 is assembled as one exact
    rational before any rounding.  The lower side meets the 2^-p width
    contract outright; the upper side additionally inherits the width of the
    b enclosure itself (irreducible for the 11-digit printed decimal at small
    n, vanishing with the closed form, and decaying like n^-5 either way).
    """
    require_positive("n", n)
    b_of = _b_routine(b_source)
    q_pi = _part_precision(p, 5)
    q_n = _part_precision(p, 5, n)
    q_e = _part_precision(p, 5, n)
    q_poly = _part_precision(p, 5) + 2
    q_corr = _part_precision(p, 5)

    half = DyadicRational(1, -1)
    pi_part = log2_pi_interval(q_pi).scale_dyadic(half)
    n_part = log2_int_enclosure(n, q_n).scale_int(n)
    e_part = log2_e_interval(q_e).scale_int(n)
    poly = Fraction(240 * n**3 + 120 * n**2 + 30 * n + 1, 30)
    poly_part = log2_fraction(poly, q_poly).div_by_posint(6, q_poly)
    base = pi_part + n_part - e_part + poly_part

    lower = base + _ramanujan_correction_rational(n, A_CONST, q_corr)
    upper = base + _ramanujan_correction_interval(n, b_of(p), q_corr)
    return lower, upper


# ---------------------------------------------------------------------------
# assembled rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    """Everything measured for one n, all in the log2 domain."""

    n: int
    precision_bits: int
    log2_fact: DyadicInterval
    g: DyadicInterval
    paper_lb: DyadicInterval
    robbins_lo: DyadicInterval
    robbins_hi: DyadicInterval
    ramanujan_lo: DyadicInterval
    ramanujan_hi: DyadicInterval
    c_log2: DyadicInterval
    e2: DyadicInterval
    s2: int
    equality: bool
    verdicts: dict[str, Verdict]
    escalations: int


def _compute_row(n: int, p: int, b_source: str, escalations: int) -> BoundRow:
    fact, g, paper_lb, e2 = _counting_parts(n, p)
    robbins_lo, robbins_hi = robbins_bounds_log2(n, p)
    ram_lo, ram_hi = ramanujan_bounds_log2(n, p, b_source)

    s2 = binary_digit_sum(n)
    equality = s2 == 1
    if equality and not paper_equality_certificate(n):
        raise IdentityViolationError(
            f"exact equality certificate failed at n={n}; the ceil-log2 identity broke"
        )

    verdicts: dict[str, Verdict] = {}
    if equality:
        # no finite precision separates equal quantities; the integer
        # certificate above is the evidence for Holds-with-equality
        verdicts["paper"] = Verdict(status=VerdictStatus.HOLDS, certificate=(paper_lb, fact))
    else:
        verdicts["paper"] = _verdict(paper_lb, fact)
    verdicts["robbins_lower"] = _verdict(robbins_lo, fact)
    verdicts["robbins_upper"] = _verdict(fact, robbins_hi)
    verdicts["ramanujan_lower"] = _verdict(ram_lo, fact)
    verdicts["ramanujan_upper"] = _verdict(fact, ram_hi)

    return BoundRow(
        n=n,
        precision_bits=p,
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
        equality=equality,
        verdicts=verdicts,
        escalations=escalations,
    )


def compare_bounds(
    n: int,
    p: int,
    b_source: str = "printed",
    max_escalations: int = 4,
) -> BoundRow:
    """Assemble the full BoundRow for n, doubling precision while any verdict
    stays inconclusive (up to max_escalations), then finalizing.

    A row is never partially emitted: every field is filled at the precision
    the row finally settled on.
    """
    require_positive("n", n)
    if p < MIN_PRECISION:
        raise DomainError(f"precision must be >= {MIN_PRECISION} bits, got {p}")
    _b_routine(b_source)  # reject an unknown name before any work
    for attempt in range(max(max_escalations, 0) + 1):
        p_try = p << attempt
        row = _compute_row(n, p_try, b_source, attempt)
        if all(v.status is not VerdictStatus.INCONCLUSIVE for v in row.verdicts.values()):
            break
    return row
