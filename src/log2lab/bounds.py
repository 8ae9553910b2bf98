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
``log2_n_precision(n, q)``, so that one log core call, kept by
``log2_int_enclosure``, serves the attempt.  The other logs are near 1 and
come from the bracket behind ``log2_1p``, the log series without the
reduction to [1, 2): log2(8n^3 + 4n^2 + n + 1/30) = 3 + 3 log2 n +
log2(1 + y) with y about 1/(2n), and each Ramanujan correction
log2(1 - 11 / (11520 (n + s)^4)).  Each y goes to the series as an unreduced
integer ratio (the series floors quotients of it, which reduction does not
change), so a row builds no Fraction.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .dyadic import DyadicInterval, DyadicRational
from .enclosures import (
    G_enclosure,
    _half_log2_2pi,
    _log2_1p_raw,
    _raw_to_interval,
    e_interval,
    log2_e_interval,
    log2_factorial_enclosure,
    log2_fraction,  # unused here; kept as the place a traced run wraps it
    log2_int_enclosure,
    pi_interval,
)
from .exact import (
    _ROW_PARTS,
    _VERDICT_BITS,
    DomainError,
    IdentityViolationError,
    _check_precision,
    _part_precision,
    binary_digit_sum,
    last_attempt,
    log2_n_precision,
    require_positive,
    sweep_row_precision,
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


class _Record:
    """A record of named fields, compared, hashed and shown field by field.

    The records are immutable by convention; they use ``__slots__`` rather
    than a frozen dataclass, so that a row builds in a few attribute stores
    and importing this module builds no dataclass.  One constructor serves
    them all: it takes each field once, positionally in ``__slots__`` order
    or by keyword, and raises TypeError otherwise.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(
                f"{type(self).__name__} takes each of the fields {names} once, "
                f"got {len(args)} positionally and {tuple(kwargs)} by keyword"
            )
        for name, value in values.items():
            setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Verdict(_Record):
    """Outcome of one interval comparison, with the certifying intervals.

    ``certificate`` is (lhs, rhs) for the claim lhs <= rhs; HOLDS and VIOLATED
    are only ever issued from strictly separated endpoints.
    """

    __slots__ = ("status", "certificate")


def _verdict(lhs: DyadicInterval, rhs: DyadicInterval) -> Verdict:
    if lhs.strictly_below(rhs):
        status = VerdictStatus.HOLDS
    elif rhs.strictly_below(lhs):
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


class BAgreementReport(_Record):
    """Printed-decimal b versus closed-form b at a given precision."""

    __slots__ = ("printed", "closed_form", "agree")


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


def error_term_e2(n: int, p: int) -> DyadicInterval:
    """Enclosure of e2(n) = log2 n! - (n log2 n - n + 1 - G(n)).

    This is the base-2 error term of the partial-log-sum formula.  By
    Legendre's formula, sum_{m <= n} floor(log2(n/m)) = n - s2(n), so e2(n) is
    exactly the integer s2(n) - 1.  Here G(n) comes from Legendre's
    factorization of n!, with v_2(n!) counted, not taken as n - s2(n), so
    this enclosure checks log2 n! against that factorization and the count
    against n - s2(n): log2 n!, n log2 n and G(n) are each enclosed at a
    third of the 2^-p budget.  n log2 n takes log2 n at
    ``log2_n_precision(n, p)``, the enclosure the Stirling log2 n! takes, so
    a row makes one log2 n.
    """
    require_positive("n", n)
    part = _part_precision(p, _ROW_PARTS)
    fact = log2_factorial_enclosure(n, part)
    x = log2_int_enclosure(n, log2_n_precision(n, p)).scale_int(n)
    return fact - (x.add_int(-(n - 1)) - G_enclosure(n, part))


# ---------------------------------------------------------------------------
# Robbins and Ramanujan comparators
# ---------------------------------------------------------------------------


def _stirling_base(n: int, p: int, parts: int) -> DyadicInterval:
    """(n + 1/2) log2 n - n log2 e + log2(2 pi) / 2 for a side of ``parts``
    parts, with log2 n the row's one enclosure at ``log2_n_precision(n, p)``."""
    e_part = log2_e_interval(_part_precision(p, parts, n)).scale_int(n)
    log_n = log2_int_enclosure(n, log2_n_precision(n, p))
    power = log_n.scale_dyadic(DyadicRational(2 * n + 1, -1))
    return _half_log2_2pi(_part_precision(p, parts)) + power - e_part


def robbins_bounds_log2(n: int, p: int) -> tuple[DyadicInterval, DyadicInterval]:
    """Enclosures of log2 of both Robbins sides.

    lower = log2(sqrt(2 pi) n^(n+1/2) e^-n); upper = lower + log2(e)/(12 n).
    """
    require_positive("n", n)
    q_d = _part_precision(p, 4) + 2
    lower = _stirling_base(n, p, 4)
    upper = lower + log2_e_interval(q_d).div_by_posint(12 * n, q_d)
    return lower, upper


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
    3 + 3 log2 n + log2(1 + y); log2 n is the row's one enclosure at
    ``log2_n_precision(n, p)``.  A correction rises with its shift, so the
    upper side takes the lower end of its correction at b's lower endpoint
    and the upper end at b's upper one.  The lower side meets the
    2^-p width contract outright; the upper side additionally inherits the
    width of the b enclosure itself (irreducible for the 11-digit printed
    decimal at small n, vanishing with the closed form, and decaying like
    n^-5 either way).
    """
    require_positive("n", n)
    b_of = _b_routine(b_source)
    q_poly = _part_precision(p, 5) + 2
    q_corr = _part_precision(p, 5)

    poly = _raw_to_interval(*_log2_1p_raw(120 * n * n + 30 * n + 1, 240 * n**3, q_poly))
    # log2 sqrt(pi) + 3/6 and n log2 n + (3/6) log2 n: the 3 + 3 log2 n of the
    # sixth root, folded into the Robbins-shaped parts
    base = _stirling_base(n, p, 5) + poly.div_by_posint(6, q_poly)

    b = b_of(p)
    lower_corr = _ramanujan_correction(n, *A_CONST, q_corr)
    upper_lo, _, s = _ramanujan_correction(n, b.lo.numerator, b.lo.denominator, q_corr)
    _, upper_hi, _ = _ramanujan_correction(n, b.hi.numerator, b.hi.denominator, q_corr)
    return base + _raw_to_interval(*lower_corr), base + _raw_to_interval(upper_lo, upper_hi, s)


# ---------------------------------------------------------------------------
# assembled rows
# ---------------------------------------------------------------------------


class BoundRow(_Record):
    """Everything measured for one n, all in the log2 domain."""

    __slots__ = (
        "n", "precision_bits", "log2_fact", "g", "paper_lb", "robbins_lo", "robbins_hi",
        "ramanujan_lo", "ramanujan_hi", "c_log2", "e2", "s2", "equality", "verdicts",
        "escalations",
    )


def _settled(verdicts: dict[str, Verdict]) -> bool:
    return all(v.status is not VerdictStatus.INCONCLUSIVE for v in verdicts.values())


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

    An attempt at precision q encloses every part at q + 4 (``_VERDICT_BITS``),
    so a verdict separates margins down to about 2^-(q+4), and takes log2 n
    once, at ``log2_n_precision(n, q + 4)``, for all its n-scaled parts: that
    is ``sweep_row_precision(n, q)``, the rule ``sweep-bounds`` validates a
    range by and ``last_attempt`` stops at.
    An attempt that will escalate stops at its first Inconclusive verdict: it
    compares log2 n! with the Ramanujan sides first, then Robbins.  Only the
    settled precision takes n log2 n for the counting bound.  G(n) is
    n log2 n - log2 n! minus the floor sum n - s2(n) of Legendre's formula,
    from the row's own log2 n!, so a row takes no prime brackets for G(n) and
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
        fact = log2_factorial_enclosure(n, _part_precision(r, _ROW_PARTS))
        ram_lo, ram_hi = ramanujan_bounds_log2(n, r, b_source)
        verdicts = {
            "ramanujan_lower": _verdict(ram_lo, fact),
            "ramanujan_upper": _verdict(fact, ram_hi),
        }
        if attempt < last and not _settled(verdicts):
            continue
        robbins_lo, robbins_hi = robbins_bounds_log2(n, r)
        verdicts["robbins_lower"] = _verdict(robbins_lo, fact)
        verdicts["robbins_upper"] = _verdict(fact, robbins_hi)
        if _settled(verdicts):
            break

    s2 = binary_digit_sum(n)
    x = log2_int_enclosure(n, sweep_row_precision(n, q)).scale_int(n)
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
    verdicts["paper"] = Verdict(status=VerdictStatus.HOLDS, certificate=(paper_lb, fact))

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
        verdicts={name: verdicts[name] for name in BOUND_NAMES},
        escalations=attempt,
    )
