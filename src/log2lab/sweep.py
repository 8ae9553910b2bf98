"""Range sweeps, delimited output, and the run/exit-code contract.

Rows are pure functions of (n, configuration), so a sweep can fan out across
worker processes and still emit byte-identical files: results are collected in
ascending n through a single ordered writer, and every emitted number is an
exact decimal rendering of a dyadic endpoint (never a rounded double).  The
three range commands share one run loop: a per-item payload function, which
runs in the workers, and a fold that consumes the payloads in order.

CSV files carry rows only, with a frozen header; JSON files carry the same row
objects in an array whose final element wraps the run summary.  Rows are
flushed as they are produced, so an interrupted sweep leaves a valid truncated
file behind.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import Pool
from typing import IO, Any, Callable, Iterator

from .bounds import (
    BOUND_NAMES,
    VerdictStatus,
    compare_bounds,
    error_term_e2,
    ramanujan_b_agreement,
)
from .dyadic import DyadicInterval
from .enclosures import MAX_PRECISION_BITS, MIN_PRECISION
from .exact import (
    IdentityViolationError,
    binary_digit_sum,
    even_count_oracle,
    odd_floor_sum,
    pair_enumeration_oracle,
)

__all__ = [
    "UsageError",
    "SweepConfig",
    "BOUNDS_CSV_COLUMNS",
    "ERROR_TERM_CSV_COLUMNS",
    "VERIFY_CSV_COLUMNS",
    "EXIT_OK",
    "EXIT_VIOLATION",
    "EXIT_INCONCLUSIVE",
    "EXIT_USAGE",
    "run_bounds_sweep",
    "run_error_term",
    "run_verify_theorem",
]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class UsageError(ValueError):
    """Bad configuration or command usage; maps to exit code 3."""


@dataclass(frozen=True)
class SweepConfig:
    n_lo: int
    n_hi: int
    precision_bits: int = 64
    max_escalations: int = 4
    output_format: str = "csv"
    output_path: str | None = None
    parity: str = "all"  # "all" | "odd"
    ramanujan_b: str = "printed"  # "printed" | "closed-form"
    workers: int = 1
    linear_display: bool = False  # report-only 2^x rendering, n <= 20

    def validate(self) -> None:
        if self.n_lo < 1:
            raise UsageError(f"range start must be >= 1, got {self.n_lo}")
        if self.n_lo > self.n_hi:
            raise UsageError(f"empty range [{self.n_lo}, {self.n_hi}]")
        if self.precision_bits < MIN_PRECISION:
            raise UsageError(
                f"precision must be >= {MIN_PRECISION} bits, got {self.precision_bits}"
            )
        if self.precision_bits > MAX_PRECISION_BITS:
            raise UsageError(
                f"precision {self.precision_bits} exceeds the ceiling of "
                f"{MAX_PRECISION_BITS} bits"
            )
        if self.max_escalations < 0:
            raise UsageError("max escalations must be >= 0")
        if self.output_format not in ("csv", "json"):
            raise UsageError(f"unknown output format {self.output_format!r}")
        if self.parity not in ("all", "odd"):
            raise UsageError(f"unknown parity filter {self.parity!r}")
        if self.ramanujan_b not in ("printed", "closed-form"):
            raise UsageError(f"unknown ramanujan-b source {self.ramanujan_b!r}")
        if self.workers < 1:
            raise UsageError("worker count must be >= 1")

    def ns(self) -> list[int]:
        ns = range(self.n_lo, self.n_hi + 1)
        if self.parity == "odd":
            return [n for n in ns if n % 2 == 1]
        return list(ns)


# the BoundRow intervals behind the *_lo/*_hi column pairs, in column order
_ROW_INTERVALS = (
    "log2_fact", "g", "paper_lb", "robbins_lo", "robbins_hi",
    "ramanujan_lo", "ramanujan_hi", "c_log2", "e2",
)

BOUNDS_CSV_COLUMNS = [
    "n",
    "precision_bits",
    *(f"{name}_{end}" for name in _ROW_INTERVALS for end in ("lo", "hi")),
    "s2",
    "verdict_paper",
    "verdict_robbins",
    "verdict_ramanujan",
    "equality_flag",
]

ERROR_TERM_CSV_COLUMNS = [
    "n",
    "precision_bits",
    "e2_lo",
    "e2_hi",
    "s2_minus_1",
    "contains",
]

VERIFY_CSV_COLUMNS = [
    "a",
    "expected",
    "floor_formula",
    "even_count",
    "pair_count",
]


def _decimals(iv: DyadicInterval) -> list[str]:
    return [iv.lo.decimal_str(), iv.hi.decimal_str()]


def _combine(v1: VerdictStatus, v2: VerdictStatus) -> str:
    if VerdictStatus.VIOLATED in (v1, v2):
        return VerdictStatus.VIOLATED.value
    if v1 is VerdictStatus.HOLDS and v2 is VerdictStatus.HOLDS:
        return VerdictStatus.HOLDS.value
    return VerdictStatus.INCONCLUSIVE.value


def _bounds_payload(config: SweepConfig, n: int) -> dict:
    """One row, fully serialized; pure in (config, n) so workers agree.

    Verdict certificates travel as intervals: the fold renders only the
    Violated ones.
    """
    row = compare_bounds(
        n,
        config.precision_bits,
        b_source=config.ramanujan_b,
        max_escalations=config.max_escalations,
    )
    f_emit = row.precision_bits + 3
    fields: dict[str, str] = {"n": str(n), "precision_bits": str(row.precision_bits)}
    for name in _ROW_INTERVALS:
        fields[f"{name}_lo"], fields[f"{name}_hi"] = _decimals(
            getattr(row, name).round_outward(f_emit)
        )
    fields["s2"] = str(row.s2)
    fields["verdict_paper"] = row.verdicts["paper"].status.value
    fields["verdict_robbins"] = _combine(
        row.verdicts["robbins_lower"].status, row.verdicts["robbins_upper"].status
    )
    fields["verdict_ramanujan"] = _combine(
        row.verdicts["ramanujan_lower"].status, row.verdicts["ramanujan_upper"].status
    )
    fields["equality_flag"] = "true" if row.equality else "false"
    meta = {
        "statuses": {name: v.status.value for name, v in row.verdicts.items()},
        "escalations": row.escalations,
        "e2": row.e2,
        "certificates": {name: v.certificate for name, v in row.verdicts.items()},
    }
    return {"fields": fields, "meta": meta}


def _error_term_payload(config: SweepConfig, n: int) -> dict:
    p = config.precision_bits
    e2 = error_term_e2(n, p)
    s2m1 = binary_digit_sum(n) - 1
    contains = (
        e2.contains_int(s2m1)
        and not e2.contains_int(s2m1 - 1)
        and not e2.contains_int(s2m1 + 1)
    )
    lo, hi = _decimals(e2.round_outward(p + 3))
    fields = {
        "n": str(n),
        "precision_bits": str(p),
        "e2_lo": lo,
        "e2_hi": hi,
        "s2_minus_1": str(s2m1),
        "contains": "true" if contains else "false",
    }
    return {"fields": fields, "meta": {"contains": contains}}


def _verify_payload(config: SweepConfig, a: int) -> dict:
    """Three-way check of one odd a; a row (and its failure record) only on
    disagreement."""
    expected = (a - 1) // 2
    try:
        formula = odd_floor_sum(a)
    except IdentityViolationError as exc:
        failure = {"a": a, "error": str(exc)}
    else:
        even = even_count_oracle(a)
        pair = pair_enumeration_oracle(a)
        if formula == expected == even == pair:
            return {"fields": None, "meta": None}
        failure = {
            "a": a,
            "expected": expected,
            "floor_formula": formula,
            "even_count": even,
            "pair_count": pair,
        }
    fields = {c: str(failure.get(c, "")) for c in VERIFY_CSV_COLUMNS}
    return {"fields": fields, "meta": failure}


class _StopAtError:
    """Worker-side payload function: an error becomes the item's value.

    ``Pool.imap`` fails a whole chunk when one item raises, losing the rows
    before it.  Returning the error keeps them; the instance is unpickled once
    per chunk, so the chunk's later items return the same error uncomputed.
    The error is wrapped as ``Pool`` wraps a raised one, so it arrives with
    the worker's traceback as its ``__cause__``.
    """

    def __init__(self, fn: Callable[[int], dict]):
        self.fn = fn
        self.error = None

    def __call__(self, n: int):
        if self.error is None:
            try:
                return self.fn(n)
            except Exception as exc:
                # loaded in every pool worker; a top-level import would slow start-up
                from multiprocessing.pool import ExceptionWithTraceback

                self.error = ExceptionWithTraceback(exc, exc.__traceback__)
        return self.error


def _pool_map(config: SweepConfig, fn, items: list, chunksize: int) -> Iterator:
    """Payloads in item order; an error is raised at the item that hit it."""
    if config.workers == 1:
        yield from map(fn, items)
        return
    with Pool(processes=config.workers) as pool:  # leaving terminates and joins the workers
        for payload in pool.imap(_StopAtError(fn), items, chunksize=chunksize):
            if isinstance(payload, Exception):
                raise payload
            yield payload


class _Writer:
    """Single ordered writer: CSV lines or a JSON array with trailing summary."""

    def __init__(self, stream: IO[str], fmt: str, columns: list[str]):
        self.stream = stream
        self.fmt = fmt
        self.columns = columns
        self.count = 0
        if fmt == "csv":
            stream.write(",".join(columns) + "\n")
            stream.flush()
        else:
            stream.write("[\n")

    def write_row(self, fields: dict[str, str]) -> None:
        if self.fmt == "csv":
            self.stream.write(",".join(fields[c] for c in self.columns) + "\n")
        else:
            if self.count:
                self.stream.write(",\n")
            self.stream.write(json.dumps(fields, separators=(",", ":")))
        self.stream.flush()
        self.count += 1

    def finish(self, summary: dict) -> None:
        if self.fmt == "json":
            if self.count:
                self.stream.write(",\n")
            self.stream.write(json.dumps({"summary": summary}, separators=(",", ":")))
            self.stream.write("\n]\n")
            self.stream.flush()


def _open_output(config: SweepConfig, default_stream: IO[str]):
    if config.output_path is None:
        return default_stream, False
    try:
        return open(config.output_path, "w", newline=""), True
    except OSError as exc:
        raise UsageError(f"cannot open --out {config.output_path!r}: {exc.strerror}") from exc


def _run(
    config: SweepConfig,
    columns: list[str],
    payload_fn: Callable[[SweepConfig, int], dict],
    chunksize: int,
    fold: Callable[[SweepConfig, list[int]], Any],
    out_stream: IO[str] | None,
    report_stream: IO[str] | None,
) -> int:
    """The run loop shared by the range commands; returns the exit code.

    ``payload_fn(config, n)`` returns ``{"fields": row or None, "meta": ...}``
    and runs in the workers.  ``fold(config, ns)`` builds the command's fold:
    its ``add`` takes the payloads in ascending n, each after its row is
    written, and ``finish(checked)`` returns the summary, the report lines
    and the exit code.  Any exception in that loop ends it early and the
    output is finalized as truncated; an interrupt then exits 2, and anything
    else is re-raised.
    """
    config.validate()
    ns = config.ns()
    stream, close_me = _open_output(config, out_stream if out_stream is not None else sys.stdout)
    writer = _Writer(stream, config.output_format, columns)
    acc = fold(config, ns)
    checked = 0
    stopped: BaseException | None = None
    try:
        for payload in _pool_map(config, partial(payload_fn, config), ns, chunksize):
            if payload["fields"] is not None:
                writer.write_row(payload["fields"])
            checked += 1
            acc.add(payload)
    except BaseException as exc:  # the output is finalized as truncated below
        stopped = exc

    summary, lines, code = acc.finish(checked)
    summary["truncated"] = stopped is not None
    writer.finish(summary)
    if close_me:
        stream.close()
    if isinstance(stopped, KeyboardInterrupt):
        lines.append("interrupted: output file is truncated but valid")
        code = EXIT_INCONCLUSIVE
    elif stopped is not None:
        raise stopped
    report_stream = report_stream if report_stream is not None else sys.stderr
    for line in lines:
        report_stream.write(line + "\n")
    report_stream.flush()
    return code


class _BoundsFold:
    """Verdict counts, equality rows, the e2 argmax and the findings."""

    def __init__(self, config: SweepConfig, ns: list[int]):
        self.config = config
        self.ns = ns
        self.counts = {name: {s.value: 0 for s in VerdictStatus} for name in BOUND_NAMES}
        self.equality_ns: list[int] = []
        self.findings: list[dict] = []
        self.linear_lines: list[str] = []
        self.escalated_rows = 0
        # argmax of e2: a strictly larger lower endpoint wins, ties keep the
        # smallest n; log2 C(n) is e2(n) bit for bit, so it shares the argmax
        self.max_n: int | None = None
        self.max_e2: DyadicInterval | None = None
        agreement = ramanujan_b_agreement(config.precision_bits)
        if not agreement.agree:
            self.findings.append(
                {
                    "type": "ramanujan_b_disagreement",
                    "printed": _decimals(agreement.printed),
                    "closed_form": _decimals(agreement.closed_form),
                }
            )

    def add(self, payload: dict) -> None:
        fields = payload["fields"]
        meta = payload["meta"]
        n = int(fields["n"])
        row_bits = int(fields["precision_bits"])
        for name, status in meta["statuses"].items():
            self.counts[name][status] += 1
            if status == VerdictStatus.VIOLATED.value:
                lhs, rhs = meta["certificates"][name]
                self.findings.append(
                    {
                        "type": "verdict_violated",
                        "bound": name,
                        "n": n,
                        "precision_bits": row_bits,
                        "certificate": _decimals(lhs.round_outward(row_bits + 3))
                        + _decimals(rhs.round_outward(row_bits + 3)),
                    }
                )
        if meta["escalations"]:
            self.escalated_rows += 1
        if fields["equality_flag"] == "true":
            self.equality_ns.append(n)
        if self.max_e2 is None or meta["e2"].lo > self.max_e2.lo:
            self.max_n, self.max_e2 = n, meta["e2"]
        if self.config.linear_display and n <= 20:
            self.linear_lines.append(_linear_line(n, fields))

    def finish(self, checked: int) -> tuple[dict, list[str], int]:
        config, ns, counts, max_n = self.config, self.ns, self.counts, self.max_n
        max_row = None
        if self.max_e2 is not None:
            lo, hi = _decimals(self.max_e2)
            max_row = {"n": max_n, "lo": lo, "hi": hi}
        summary = {
            "checked": checked,
            "requested": len(ns),
            "precision_bits": config.precision_bits,
            "ramanujan_b": config.ramanujan_b,
            "verdict_counts": counts,
            "equality_ns": self.equality_ns,
            "escalated_rows": self.escalated_rows,
            "max_e2": max_row,
            "max_c_log2": max_row,
            "findings": self.findings,
        }
        lines = [
            f"checked={checked} of {len(ns)} rows at p={config.precision_bits} "
            f"(escalated: {self.escalated_rows})",
            f"equality rows (s2=1): {self.equality_ns}",
            f"max e2 at n={max_n}" if max_row else "max e2: none",
            f"max c_log2 at n={max_n}" if max_row else "max c_log2: none",
        ]
        lines.extend(self.linear_lines)
        for finding in self.findings:
            lines.append("FINDING: " + json.dumps(finding, separators=(",", ":")))
        if counts["paper"][VerdictStatus.VIOLATED.value]:
            return summary, lines, EXIT_VIOLATION
        if any(c[VerdictStatus.INCONCLUSIVE.value] for c in counts.values()):
            return summary, lines, EXIT_INCONCLUSIVE
        return summary, lines, EXIT_OK


def _linear_line(n: int, fields: dict[str, str]) -> str:
    """Report-only linear rendering for small n; approximate by construction."""
    import math
    from fractions import Fraction

    def mid_pow2(name: str) -> float:
        mid = (float(Fraction(fields[f"{name}_lo"])) + float(Fraction(fields[f"{name}_hi"]))) / 2
        return 2.0**mid

    return (
        f"linear n={n}: n! = {math.factorial(n)}, paper_lb ~ {mid_pow2('paper_lb'):.8g}, "
        f"robbins ~ [{mid_pow2('robbins_lo'):.8g}, {mid_pow2('robbins_hi'):.8g}], "
        f"ramanujan ~ [{mid_pow2('ramanujan_lo'):.8g}, {mid_pow2('ramanujan_hi'):.8g}]"
    )


class _ErrorTermFold:
    """Whether every e2 enclosure isolated s2(n) - 1, and the largest s2(n) - 1."""

    def __init__(self, config: SweepConfig, ns: list[int]):
        self.p = config.precision_bits
        self.requested = len(ns)
        self.all_contained = True
        self.max_row: dict | None = None

    def add(self, payload: dict) -> None:
        fields = payload["fields"]
        if not payload["meta"]["contains"]:
            self.all_contained = False
        s2m1 = int(fields["s2_minus_1"])
        if self.max_row is None or s2m1 > self.max_row["s2_minus_1"]:
            self.max_row = {
                "n": int(fields["n"]),
                "s2_minus_1": s2m1,
                "e2_lo": fields["e2_lo"],
                "e2_hi": fields["e2_hi"],
            }

    def finish(self, checked: int) -> tuple[dict, list[str], int]:
        p, max_row, all_contained = self.p, self.max_row, self.all_contained
        summary = {
            "checked": checked,
            "requested": self.requested,
            "precision_bits": p,
            "all_contained": all_contained,
            "max_e2": max_row,
        }
        lines = [
            f"checked={checked} of {self.requested} rows at p={p}",
            f"max e2 at n={max_row['n']} (s2-1 = {max_row['s2_minus_1']})"
            if max_row
            else "max e2: none",
            f"every e2 interval contained s2(n)-1 and excluded neighbors: "
            f"{'true' if all_contained else 'false'}",
        ]
        return summary, lines, EXIT_OK if all_contained else EXIT_VIOLATION


class _VerifyFold:
    """Count of odd a checked, and every failure record."""

    def __init__(self, config: SweepConfig, ns: list[int]):
        self.failures: list[dict] = []

    def add(self, payload: dict) -> None:
        if payload["meta"] is not None:
            self.failures.append(payload["meta"])

    def finish(self, checked: int) -> tuple[dict, list[str], int]:
        failures = self.failures
        summary = {"checked": checked, "failures": len(failures), "failure_rows": failures}
        lines = [f"checked={checked} failures={len(failures)}"] + [
            f"FAILURE: {json.dumps(f, separators=(',', ':'))}" for f in failures
        ]
        return summary, lines, EXIT_VIOLATION if failures else EXIT_OK


def run_bounds_sweep(
    config: SweepConfig,
    out_stream: IO[str] | None = None,
    report_stream: IO[str] | None = None,
) -> int:
    """Emit one BoundRow per n in ascending order; returns the exit code."""
    return _run(
        config, BOUNDS_CSV_COLUMNS, _bounds_payload, 16, _BoundsFold, out_stream, report_stream
    )


def run_error_term(
    config: SweepConfig,
    out_stream: IO[str] | None = None,
    report_stream: IO[str] | None = None,
) -> int:
    """Emit the e2 table and check the digit-sum characterization per row."""
    return _run(
        config, ERROR_TERM_CSV_COLUMNS, _error_term_payload, 32, _ErrorTermFold,
        out_stream, report_stream,
    )


def run_verify_theorem(
    config: SweepConfig,
    out_stream: IO[str] | None = None,
    report_stream: IO[str] | None = None,
) -> int:
    """Three-way agreement check of the counting identity over odd a."""
    return _run(
        replace(config, parity="odd"), VERIFY_CSV_COLUMNS, _verify_payload, 64, _VerifyFold,
        out_stream, report_stream,
    )
