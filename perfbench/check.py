"""Independent checker for what the CLI commands emit.

Nothing here imports log2lab.  Interval columns are parsed as exact
Fractions; reference values come from integer arithmetic and mpmath; verdicts
are derived from the signs of mpmath differences, never from expected strings.
Each check returns the number of requested rows that failed: a missing,
misplaced or wrong row counts once.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

import mpmath

SWEEP_COLUMNS = (
    "n,precision_bits,log2_fact_lo,log2_fact_hi,g_lo,g_hi,paper_lb_lo,paper_lb_hi,"
    "robbins_lo_lo,robbins_lo_hi,robbins_hi_lo,robbins_hi_hi,ramanujan_lo_lo,"
    "ramanujan_lo_hi,ramanujan_hi_lo,ramanujan_hi_hi,c_log2_lo,c_log2_hi,e2_lo,e2_hi,"
    "s2,verdict_paper,verdict_robbins,verdict_ramanujan,equality_flag"
).split(",")
ERRTERM_COLUMNS = "n,precision_bits,e2_lo,e2_hi,s2_minus_1,contains".split(",")
VERIFY_COLUMNS = "a,expected,floor_formula,even_count,pair_count".split(",")

HOLDS, VIOLATED, INCONCLUSIVE = "Holds", "Violated", "Inconclusive"

# Ramanujan's constants as printed: a exactly, b as an 11-digit truncation.
RAMANUJAN_A = Fraction(39, 54)
RAMANUJAN_B = (Fraction(35499112666, 10**11), Fraction(35499112667, 10**11))

REFERENCE_PREC_BITS = 320
MPMATH_ROWS_PER_WINDOW = 3


def popcount(n: int) -> int:
    return bin(n).count("1")


def parse_csv(stdout: bytes, columns: list[str]) -> list[dict[str, str]] | None:
    """Rows as dicts ({} for a row with the wrong field count), or None when the
    header is not the expected one."""
    lines = stdout.decode("ascii", "replace").splitlines()
    if not lines or lines[0] != ",".join(columns):
        return None
    fields = [line.split(",") for line in lines[1:]]
    return [dict(zip(columns, f)) if len(f) == len(columns) else {} for f in fields]


def interval(row: dict[str, str], name: str) -> tuple[Fraction, Fraction]:
    return Fraction(row[f"{name}_lo"]), Fraction(row[f"{name}_hi"])


def _exact(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@dataclass(frozen=True)
class SweepTruth:
    """Reference values for one sweep row, as exact Fractions of mpmath values."""

    log2_fact: Fraction
    g: Fraction
    paper_lb: Fraction
    robbins: tuple[Fraction, Fraction]
    ramanujan_lo: Fraction
    ramanujan_hi: tuple[Fraction, Fraction]  # at the two ends of printed b

    @classmethod
    def of(cls, n: int) -> "SweepTruth":
        with mpmath.workprec(REFERENCE_PREC_BITS):
            ln2 = mpmath.ln2
            log2n = mpmath.log(n) / ln2
            log2e = 1 / ln2
            fact = mpmath.loggamma(n + 1) / ln2
            # G(n) = sum of log2(n/m) - floor(log2(n/m)) over m <= n, with each
            # floor from integer division: floor(log2(n/m)) = floor(log2(n // m))
            floors = sum((n // m).bit_length() - 1 for m in range(1, n + 1))
            g = n * log2n - fact - floors
            paper_lb = n * log2n - (n - 1 + g)
            robbins_lo = mpmath.log(2 * mpmath.pi) / (2 * ln2) + (n + mpmath.mpf(1) / 2) * log2n - n * log2e
            robbins_hi = robbins_lo + log2e / (12 * n)
            poly = 8 * mpmath.mpf(n) ** 3 + 4 * n**2 + n + mpmath.mpf(1) / 30
            base = (
                mpmath.log(mpmath.pi) / (2 * ln2) + n * log2n - n * log2e
                + mpmath.log(poly) / (6 * ln2)
            )

            def side(shift: Fraction) -> mpmath.mpf:
                s = mpmath.mpf(shift.numerator) / shift.denominator
                return base + mpmath.log(1 - mpmath.mpf(11) / (11520 * (n + s) ** 4)) / ln2

            return cls(
                log2_fact=_exact(fact),
                g=_exact(g),
                paper_lb=_exact(paper_lb),
                robbins=(_exact(robbins_lo), _exact(robbins_hi)),
                ramanujan_lo=_exact(side(RAMANUJAN_A)),
                ramanujan_hi=tuple(_exact(side(b)) for b in RAMANUJAN_B),
            )


def _allowed(margins: list[Fraction], p: int, equality_holds: bool = False) -> set[str]:
    """Verdicts consistent with true margins rhs - lhs of a claim lhs <= rhs.

    A margin below the row's working resolution may also read Inconclusive; an
    exact equality is certified by identity and reads Holds.
    """
    tol = Fraction(1, 2 ** max(p - 4, 1))
    if equality_holds:
        return {HOLDS}
    out: set[str] = set()
    for d in margins:
        out.add(HOLDS if d > 0 else VIOLATED)
        if abs(d) <= tol:
            out.add(INCONCLUSIVE)
    if len(out) > 1:
        out.add(INCONCLUSIVE)
    return out


def _combine(a: str, b: str) -> str:
    if VIOLATED in (a, b):
        return VIOLATED
    return HOLDS if a == b == HOLDS else INCONCLUSIVE


def _combined(first: set[str], second: set[str]) -> set[str]:
    return {_combine(a, b) for a in first for b in second}


def sweep_row_errors(row: dict[str, str], n: int, truth: SweepTruth | None) -> list[str]:
    """Reasons a sweep row is wrong; empty when it passes."""
    if row.get("n") != str(n):
        return [f"expected n={n}, got {row.get('n')}"]
    errors: list[str] = []
    s2 = popcount(n)
    try:
        p = int(row["precision_bits"])
        ivs = {name: interval(row, name) for name in (
            "log2_fact", "g", "paper_lb", "robbins_lo", "robbins_hi",
            "ramanujan_lo", "ramanujan_hi", "c_log2", "e2",
        )}
    except (ValueError, ZeroDivisionError) as exc:
        return [f"unparseable row: {exc}"]
    for name, (lo, hi) in ivs.items():
        if lo > hi:
            errors.append(f"{name} interval is reversed")
    if row["s2"] != str(s2):
        errors.append(f"s2={row['s2']}, popcount(n)={s2}")
    lo, hi = ivs["e2"]
    if not (lo <= s2 - 1 <= hi and lo > s2 - 2 and hi < s2):
        errors.append("e2 does not isolate s2(n)-1")
    if row["equality_flag"] != ("true" if s2 == 1 else "false"):
        errors.append("equality_flag disagrees with s2(n)=1")
    if truth is None:
        return errors

    exact_gap = truth.log2_fact - truth.paper_lb
    expected_values = {
        "log2_fact": [truth.log2_fact],
        "g": [truth.g],
        "paper_lb": [truth.paper_lb],
        "robbins_lo": [truth.robbins[0]],
        "robbins_hi": [truth.robbins[1]],
        "ramanujan_lo": [truth.ramanujan_lo],
        "ramanujan_hi": list(truth.ramanujan_hi),
        "c_log2": [exact_gap],
        "e2": [exact_gap],
    }
    for name, values in expected_values.items():
        lo, hi = ivs[name]
        if not all(lo <= v <= hi for v in values):
            errors.append(f"{name} interval misses the reference value")

    fact = truth.log2_fact
    verdicts = {
        "verdict_paper": _allowed([exact_gap], p, equality_holds=s2 == 1),
        "verdict_robbins": _combined(
            _allowed([fact - truth.robbins[0]], p), _allowed([truth.robbins[1] - fact], p)
        ),
        "verdict_ramanujan": _combined(
            _allowed([fact - truth.ramanujan_lo], p),
            _allowed([v - fact for v in truth.ramanujan_hi], p),
        ),
    }
    for column, allowed in verdicts.items():
        if row[column] not in allowed:
            errors.append(f"{column}={row[column]}, reference allows {sorted(allowed)}")
    return errors


def errterm_row_errors(row: dict[str, str], n: int, bits: int) -> list[str]:
    if row.get("n") != str(n):
        return [f"expected n={n}, got {row.get('n')}"]
    s2m1 = popcount(n) - 1
    errors = []
    if row["precision_bits"] != str(bits):
        errors.append(f"precision_bits={row['precision_bits']}, requested {bits}")
    if row["s2_minus_1"] != str(s2m1):
        errors.append(f"s2_minus_1={row['s2_minus_1']}, popcount(n)-1={s2m1}")
    if row["contains"] != "true":
        errors.append("contains is not true")
    try:
        lo, hi = interval(row, "e2")
    except (ValueError, ZeroDivisionError) as exc:
        return errors + [f"unparseable e2: {exc}"]
    if not (lo <= s2m1 <= hi and lo > s2m1 - 1 and hi < s2m1 + 1):
        errors.append("e2 does not isolate s2(n)-1")
    return errors


def _rows_failed(rows, ns, row_errors) -> int:
    if rows is None:
        return len(ns)
    failed = 0
    for i, n in enumerate(ns):
        if i >= len(rows) or row_errors(rows[i], n):
            failed += 1
    return min(len(ns), failed + max(0, len(rows) - len(ns)))


def sample_ns(ns: list[int], seed: int) -> list[int]:
    """The rows checked against mpmath, chosen by the run seed."""
    k = min(MPMATH_ROWS_PER_WINDOW, len(ns))
    return sorted(random.Random(f"check:{seed}:{ns[0]}").sample(ns, k))


def check_sweep(stdout: bytes, ns: list[int], seed: int) -> int:
    rows = parse_csv(stdout, SWEEP_COLUMNS)
    truths = {n: SweepTruth.of(n) for n in sample_ns(ns, seed)} if rows else {}
    return _rows_failed(rows, ns, lambda row, n: sweep_row_errors(row, n, truths.get(n)))


def check_errterm(stdout: bytes, ns: list[int], bits: int) -> int:
    rows = parse_csv(stdout, ERRTERM_COLUMNS)
    return _rows_failed(rows, ns, lambda row, n: errterm_row_errors(row, n, bits))


_VERIFY_SUMMARY = re.compile(rb"^checked=(\d+) failures=(\d+)$", re.MULTILINE)


def check_verify(stdout: bytes, stderr: bytes, ns: list[int]) -> int:
    """The summary must count every odd a in the window and report no failure."""
    rows = parse_csv(stdout, VERIFY_COLUMNS)
    summary = _VERIFY_SUMMARY.search(stderr)
    if rows is None or summary is None:
        return len(ns)
    checked, failures = int(summary.group(1)), int(summary.group(2))
    failed = abs(len(ns) - checked) + max(failures, len(rows))
    return min(len(ns), failed)


def self_test(runner: str, stdout: bytes, stderr: bytes, ns: list[int], bits: int | None,
              seed: int) -> tuple[int, int]:
    """Corrupt a correct output two ways; returns (flagged, corrupted) row counts.

    Sweep: one interval shifted off its true value and one flipped verdict.
    Error term: a shifted e2 interval and a flipped ``contains``.
    Verify: a summary that misses one a and one that reports a failure.
    """
    if runner == "verify":
        missing = re.sub(rb"checked=(\d+)", lambda m: b"checked=%d" % (int(m.group(1)) - 1), stderr)
        failing = re.sub(rb"failures=0", b"failures=1", stderr)
        return sum(check_verify(stdout, err, ns) > 0 for err in (missing, failing)), 2

    if runner == "sweep":
        n = sample_ns(ns, seed)[0]
        row = parse_csv(stdout, SWEEP_COLUMNS)[ns.index(n)]
        shifted = dict(row, log2_fact_lo=str(Fraction(row["log2_fact_lo"]) + 1),
                       log2_fact_hi=str(Fraction(row["log2_fact_hi"]) + 1))
        flip = {HOLDS: VIOLATED, VIOLATED: HOLDS, INCONCLUSIVE: VIOLATED}
        flipped = dict(row, verdict_ramanujan=flip[row["verdict_ramanujan"]])
        truth = SweepTruth.of(n)
        return sum(bool(sweep_row_errors(r, n, truth)) for r in (shifted, flipped)), 2

    n = ns[0]
    row = parse_csv(stdout, ERRTERM_COLUMNS)[0]
    shifted = dict(row, e2_lo=str(Fraction(row["e2_lo"]) + 1), e2_hi=str(Fraction(row["e2_hi"]) + 1))
    flipped = dict(row, contains="false")
    return sum(bool(errterm_row_errors(r, n, bits)) for r in (shifted, flipped)), 2
