"""Range sweeps, delimited output, and the run/exit-code contract.

Rows are pure functions of (n, configuration), so a sweep can fan out across
worker processes and still emit byte-identical files: results are collected in
ascending n through a single ordered writer, and every emitted number is an
exact decimal rendering of a dyadic endpoint (never a rounded double).  The
three range commands share one run loop: the range is split into contiguous
blocks, a per-item payload function runs over each block, and a fold consumes
the payloads in order and decides which rows are written.  With k workers the
blocks are dealt round-robin to this process and k - 1 children forked from it
after the first block (no ``multiprocessing``); without ``os.fork`` they all
run here.  A block stops at its first error and returns it with the payloads
before it, so every worker count keeps the same rows.

This module owns what a range command emits; ``bounds`` computes a compared
row and its verdicts, and ``_bounds_payload`` renders it here: the columns
named by ``_ROW_INTERVALS``, every interval rounded outward onto the
2^-(q + 3) grid of its row's precision q by ``_decimals``, and the verdict
columns and findings from the statuses in ``BOUND_NAMES`` order.

CSV files carry rows only, with a frozen header; JSON files carry the same row
objects in an array whose final element wraps the run summary.  Each row is
flushed as it is written, so an interrupted sweep leaves a valid truncated
file behind whose summary counts the rows it holds.  The output is opened only
once the run's fold is built, so a fold that fails leaves no file and writes
nothing to stdout.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import IO, TYPE_CHECKING, Any, Callable

from .exact import (
    _VERDICT_BITS,
    MAX_PRECISION_BITS,
    MIN_PRECISION,
    WORK_CEILING,
    IdentityViolationError,
    attempt_plan,
    binary_digit_sum,
    even_count_oracle,
    g_cost,
    odd_floor_sum,
    oracle_work,
    pair_enumeration_oracle,
)

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

    from .bounds import VerdictStatus
    from .dyadic import DyadicInterval

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
    "EXIT_INTERNAL",
    "run_bounds_sweep",
    "run_error_term",
    "run_verify_theorem",
]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

# Bound on first use by _load_bounds, so that verify-theorem never loads the
# enclosure code; the first three are where callers may install wrappers.  The
# folds of the commands that use them call it once per run, before the first
# block, so every forked worker starts with them bound.
_WRAPPABLE = ("compare_bounds", "error_term_e2", "ramanujan_b_agreement")
_BOUNDS_NAMES = (*_WRAPPABLE, "BOUND_NAMES", "VerdictStatus")


def _load_bounds() -> None:
    """Bind the bounds names this module uses; a name already bound (say, a
    wrapper set on this module) is kept."""
    from . import bounds

    g = globals()
    for name in _BOUNDS_NAMES:
        if name not in g:
            g[name] = getattr(bounds, name)


def __getattr__(name: str):
    """Resolve a wrappable bounds function on first access (PEP 562)."""
    if name not in _WRAPPABLE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_bounds()
    return globals()[name]


class UsageError(ValueError):
    """Bad configuration or command usage; maps to exit code 3."""


@dataclass(frozen=True)
class SweepConfig:
    """A range command's settings; each default here is its CLI option's,
    and each tuple below the values that ``validate`` and the parser accept."""

    OUTPUT_FORMATS = ("csv", "json")
    PARITIES = ("all", "odd")  # --odd-only sets the last
    RAMANUJAN_B = ("printed", "closed-form")

    n_lo: int
    n_hi: int
    precision_bits: int = 64
    max_escalations: int = 4
    output_format: str = "csv"
    output_path: str | None = None
    parity: str = "all"
    ramanujan_b: str = "printed"
    workers: int = 1
    linear_display: bool = False  # report-only 2^x rendering, n <= 20

    def validate(self) -> None:
        """Raise UsageError for a field that every command would fail on.

        Each command then holds the range and ``precision_bits`` to its own
        rule before it opens ``--out``: ``sweep-bounds`` by a row's finest
        precision (the ``log_n`` of its first attempt's ``attempt_plan``),
        ``error-term`` by its largest G(n) (``g_cost``), and
        ``verify-theorem``, which computes at no precision, by its
        enumeration (``oracle_work``).
        """
        if self.n_lo < 1:
            raise UsageError(f"range start must be >= 1, got {self.n_lo}")
        if self.n_lo > self.n_hi:
            raise UsageError(f"empty range [{self.n_lo}, {self.n_hi}]")
        if self.max_escalations < 0:
            raise UsageError("max escalations must be >= 0")
        if self.output_format not in self.OUTPUT_FORMATS:
            raise UsageError(f"unknown output format {self.output_format!r}")
        if self.parity not in self.PARITIES:
            raise UsageError(f"unknown parity filter {self.parity!r}")
        try:
            len(self.ns())
        except OverflowError:  # len() of a range fails past sys.maxsize items
            raise UsageError(
                f"range [{self.n_lo}, {self.n_hi}] holds more than {sys.maxsize} numbers"
            ) from None
        if self.ramanujan_b not in self.RAMANUJAN_B:
            raise UsageError(f"unknown ramanujan-b source {self.ramanujan_b!r}")
        if self.workers < 1:
            raise UsageError("worker count must be >= 1")

    def ns(self) -> range:
        """The n of the run, ascending; a range, so no run holds them all."""
        if self.parity == "odd":
            return range(self.n_lo | 1, self.n_hi + 1, 2)
        return range(self.n_lo, self.n_hi + 1)


# the BoundRow intervals behind the *_lo/*_hi column pairs, in column order
_ROW_INTERVALS = (
    "log2_fact", "g", "paper_lb", "robbins_lo", "robbins_hi",
    "ramanujan_lo", "ramanujan_hi", "c_log2", "e2",
)
_row_intervals = operator.attrgetter(*_ROW_INTERVALS)

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

# the indices of the e2_lo and s2 columns, which the fold reads
_E2 = BOUNDS_CSV_COLUMNS.index("e2_lo")
_S2 = BOUNDS_CSV_COLUMNS.index("s2")

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


def _decimals(iv: DyadicInterval, q: int | None = None) -> tuple[str, str]:
    """The two end strings of ``iv``; given a row's precision q, of ``iv``
    rounded outward onto the 2^-(q + 3) grid that rows are emitted on."""
    if q is not None:
        iv = iv.round_outward(q + 3)
    return iv.lo.decimal_str(), iv.hi.decimal_str()


def _combine(a: VerdictStatus, b: VerdictStatus) -> str:
    """The verdict column of a bound's two sides."""
    # _value_ is the enum member's value, read without the ``value`` property
    if VerdictStatus.VIOLATED in (a, b):
        return VerdictStatus.VIOLATED._value_
    return (a if a is b else VerdictStatus.INCONCLUSIVE)._value_


def _bounds_payload(config: SweepConfig, n: int) -> tuple:
    """The compared row of n as ``sweep-bounds`` emits and counts it, pure in
    (config, n) so that workers agree: (columns, statuses, escalations,
    findings).

    ``columns`` are the row's column strings in ``BOUNDS_CSV_COLUMNS`` order,
    each interval rendered once (``c_log2`` is the ``e2`` object).
    ``statuses`` are the five status values in ``BOUND_NAMES`` order.
    ``findings`` hold a (bound, certificate) pair per Violated verdict: a
    certificate holds two of the row's own column intervals, so it is their
    four column strings, the same ``str`` objects (a forked block pickles
    each once).
    """
    row = compare_bounds(
        n,
        config.precision_bits,
        b_source=config.ramanujan_b,
        max_escalations=config.max_escalations,
    )
    q = row.precision_bits
    rendered: dict[int, tuple[str, str]] = {}  # by id: the row keeps every interval alive
    columns = [str(n), str(q)]
    for iv in _row_intervals(row):
        ends = rendered.get(id(iv))
        if ends is None:
            ends = rendered[id(iv)] = _decimals(iv, q)
        columns += ends
    verdicts = [row.verdicts[name] for name in BOUND_NAMES]
    paper, robbins_lo, robbins_hi, ramanujan_lo, ramanujan_hi = [v.status for v in verdicts]
    columns += (
        str(row.s2),
        paper._value_,
        _combine(robbins_lo, robbins_hi),
        _combine(ramanujan_lo, ramanujan_hi),
        "true" if row.equality else "false",
    )
    findings = tuple([
        (name, rendered[id(lhs)] + rendered[id(rhs)])
        for name, (status, (lhs, rhs)) in zip(BOUND_NAMES, verdicts)
        if status is VerdictStatus.VIOLATED
    ])
    statuses = tuple([v.status._value_ for v in verdicts])
    return columns, statuses, row.escalations, findings


def _error_term_payload(config: SweepConfig, n: int) -> tuple[list[str], int, bool]:
    """The e2 row of n: (columns, s2(n) - 1, contains), the columns in
    ``ERROR_TERM_CSV_COLUMNS`` order and the two values the fold checks."""
    p = config.precision_bits
    e2 = error_term_e2(n, p)
    s2m1 = binary_digit_sum(n) - 1
    contains = (
        e2.contains_int(s2m1)
        and not e2.contains_int(s2m1 - 1)
        and not e2.contains_int(s2m1 + 1)
    )
    columns = [str(n), str(p), *_decimals(e2, p), str(s2m1), "true" if contains else "false"]
    return columns, s2m1, contains


def _verify_payload(config: SweepConfig, a: int) -> tuple[int, int | str, int, int]:
    """(a, floor sum, even count, pair count) of one odd a; the floor sum is
    the error message instead when the counting identity fails.

    Both oracles count over (a_prev, a]: a_prev is the previous odd a, a - 2,
    or 0 (from the start) for the range's first odd a, the only one with
    a - 2 below the range start.  The fold adds the counts up, so every m is
    enumerated once per run; the counts are returned also when the floor sum
    fails, so that the totals stay right for every later a.
    """
    try:
        formula: int | str = odd_floor_sum(a)
    except IdentityViolationError as exc:
        formula = str(exc)
    a_prev = 0 if a - 2 < config.n_lo else a - 2
    return a, formula, even_count_oracle(a, a_prev), pair_enumeration_oracle(a, a_prev)


def _block(fn: Callable[[int], Any], items: range) -> tuple[list, BaseException | None]:
    """The payloads of consecutive items up to the first that raises, and
    that error (None when every item ran), so the payloads before it are kept."""
    payloads = []
    try:
        for n in items:
            payloads.append(fn(n))
    except BaseException as exc:  # an interrupt too: the payloads before it are kept
        return payloads, exc
    return payloads, None


def _compact_json(obj: Any) -> str:
    import json  # here, so that a CSV run with nothing to report never loads it

    return json.dumps(obj, separators=(",", ":"))


class _Writer:
    """Single ordered writer: CSV lines or a JSON array with trailing summary.

    A row, with the separator before it, is one write and is counted before
    its flush, so an interrupt in either leaves ``finish`` a well-formed array
    to close.
    """

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

    def write_row(self, values: list[str]) -> None:
        """Write one row, its values in column order."""
        if self.fmt == "csv":
            self.stream.write(",".join(values) + "\n")
        else:
            row = dict(zip(self.columns, values))
            self.stream.write((",\n" if self.count else "") + _compact_json(row))
        self.count += 1
        self.stream.flush()

    def finish(self, summary: dict) -> None:
        if self.fmt == "json":
            sep = ",\n" if self.count else ""
            self.stream.write(sep + _compact_json({"summary": summary}) + "\n]\n")
            self.stream.flush()


def _open_output(config: SweepConfig, default_stream: IO[str]):
    if config.output_path is None:
        return default_stream, False
    try:
        return open(config.output_path, "w", newline=""), True
    except OSError as exc:
        raise UsageError(f"cannot open --out {config.output_path!r}: {exc.strerror}") from exc


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (so ``taskset`` and cpusets count), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _termination_as_interrupt():
    """Within it, SIGTERM and SIGHUP raise KeyboardInterrupt as SIGINT does:
    each where it exists, is at its default (so ``nohup`` keeps SIGHUP
    ignored) and may be set, which only the main thread may do.  Forked
    children inherit the handlers, as they do SIGINT's."""
    import signal  # here, so that start-up does not pay for it

    trapped = {}
    for name in ("SIGTERM", "SIGHUP"):
        signum = getattr(signal, name, None)
        if signum is not None and signal.getsignal(signum) is signal.SIG_DFL:
            try:
                trapped[signum] = signal.signal(signum, signal.default_int_handler)
            except ValueError:  # not the main thread
                break
    try:
        yield
    finally:
        for signum, handler in trapped.items():
            signal.signal(signum, handler)


def _run(
    config: SweepConfig,
    columns: list[str],
    payload_fn: Callable[[SweepConfig, int], Any],
    fold: Callable[[SweepConfig, range], Any],
    out_stream: IO[str] | None,
    report_stream: IO[str] | None,
) -> int:
    """The run loop shared by the range commands, for a validated
    ``config``; returns the exit code.

    ``_block`` runs ``payload_fn(config, n)`` over contiguous blocks of the
    range, about four per worker and at most 64 items each.  With one worker
    they all run in this process.  With k = min(--workers, items, CPUs) > 1,
    the CPUs being ``_usable_cpus()``, ``workers.forked_map`` runs every k-th
    block here and deals the others to k - 1 children forked after the first
    block; without ``os.fork`` they all run here too.  ``fold(config, ns)``
    builds the command's fold before the output is opened or written, so that
    an error or an interrupt while it is built (``sweep-bounds`` loads the
    enclosure code and checks b there) leaves no ``--out`` file and writes
    nothing to stdout.  ``add(payload, write)`` takes the payloads in
    ascending n and passes the rows to write to ``write``; ``finish(checked)``
    returns the summary, the report lines (an iterable, so that each line is
    formed only as it is written) and the exit code.  A payload is checked
    once its ``add`` returns or the writer has counted its row, so ``checked``
    counts no row the output lacks.  A block's rows are written before its
    error is raised, so any error (an interrupt, or one ``cli.main`` maps to
    exit code 2, 3 or 4) leaves the same truncated output with every worker
    count; an interrupt exits 2 here, and while the blocks run SIGTERM and
    SIGHUP interrupt as SIGINT does.  A worker that dies is an internal
    error, and no child outlives the loop.
    """
    ns = config.ns()
    acc = fold(config, ns)
    stream, close_me = _open_output(config, out_stream if out_stream is not None else sys.stdout)
    try:
        writer = _Writer(stream, config.output_format, columns)
        workers = max(1, min(config.workers, len(ns), _usable_cpus()))
        size = min(64, -(-len(ns) // (4 * workers))) or 1  # or 1: an empty range
        blocks = (ns[i : i + size] for i in range(0, len(ns), size))
        block = partial(_block, partial(payload_fn, config))
        forked = workers > 1 and hasattr(os, "fork")
        if forked:
            from .workers import forked_map  # only here, so a 1-worker run never compiles it

            results = forked_map(block, blocks, workers)
        else:
            results = map(block, blocks)
        checked = 0
        stopped: BaseException | None = None
        try:
            with _termination_as_interrupt():
                for payloads, error in results:
                    for payload in payloads:
                        rows = writer.count
                        try:
                            acc.add(payload, writer.write_row)
                        except BaseException:
                            checked += writer.count > rows  # its row is in the output
                            raise
                        checked += 1
                    if error is not None:
                        raise error
        except BaseException as exc:  # the output is finalized as truncated below
            stopped = exc
        finally:
            if forked:
                results.close()  # kills and reaps the children

        summary, lines, code = acc.finish(checked)
        summary["truncated"] = stopped is not None
        writer.finish(summary)
    finally:  # so that no byte of --out is left to interpreter teardown
        if close_me:
            stream.close()
    if isinstance(stopped, KeyboardInterrupt):
        lines = itertools.chain(lines, ["interrupted: output file is truncated but valid"])
        code = EXIT_INCONCLUSIVE
    elif stopped is not None:
        raise stopped
    report_stream = report_stream if report_stream is not None else sys.stderr
    for line in lines:
        report_stream.write(line + "\n")
    report_stream.flush()
    return code


class _BoundsFold:
    """Verdict counts, equality rows, the max-e2 row and the findings.

    A row's findings come in its payload, already rendered.  Each finding
    has one encoder, ``_findings``, which builds its json text by hand: the
    report's FINDING lines are formed from it one at a time, as they are
    written, so a CSV run never loads ``json``, and only a JSON run builds
    the summary's ``findings``, by parsing those same texts.
    """

    def __init__(self, config: SweepConfig, ns: range):
        _load_bounds()
        self.config = config
        self.ns = ns
        self.rows_by_statuses: dict[tuple[str, ...], int] = {}
        self.equality_ns: list[int] = []
        # (n, precision_bits, bound, certificate), as their column strings
        self.findings: list[tuple] = []
        self.linear_lines: list[str] = []
        self.escalated_rows = 0
        # the first n with the largest e2(n) = s2(n) - 1, and its e2 columns;
        # log2 C(n) is e2(n) bit for bit, so it shares the row
        self.max_s2 = 0
        self.max_row: dict | None = None
        agreement = ramanujan_b_agreement(config.precision_bits)
        self.b_disagreement = None
        if not agreement.agree:
            self.b_disagreement = (_decimals(agreement.printed), _decimals(agreement.closed_form))

    def add(self, payload: tuple, write: Callable[[list[str]], None]) -> None:
        columns, statuses, escalations, findings = payload
        write(columns)
        n = columns[0]
        self.rows_by_statuses[statuses] = self.rows_by_statuses.get(statuses, 0) + 1
        for bound, certificate in findings:
            self.findings.append((n, columns[1], bound, certificate))
        if escalations:
            self.escalated_rows += 1
        if columns[-1] == "true":
            self.equality_ns.append(int(n))
        s2 = int(columns[_S2])
        if s2 > self.max_s2:
            self.max_s2 = s2
            self.max_row = {"n": int(n), "lo": columns[_E2], "hi": columns[_E2 + 1]}
        if self.config.linear_display and int(n) <= 20:
            self.linear_lines.append(_linear_line(int(n), columns))

    def finish(self, checked: int) -> tuple[dict, Iterable[str], int]:
        config, ns = self.config, self.ns
        counts = {name: {s.value: 0 for s in VerdictStatus} for name in BOUND_NAMES}
        for statuses, rows in self.rows_by_statuses.items():
            for name, status in zip(BOUND_NAMES, statuses):
                counts[name][status] += rows
        max_row = self.max_row
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
        }
        if config.output_format == "json":
            import json

            summary["findings"] = [json.loads(finding) for finding in self._findings()]
        head = [
            f"checked={checked} of {len(ns)} rows at p={config.precision_bits} "
            f"(escalated: {self.escalated_rows})",
            f"equality rows (s2=1): {self.equality_ns}",
            f"max e2 at n={max_row['n']}" if max_row else "max e2: none",
            f"max c_log2 at n={max_row['n']}" if max_row else "max c_log2: none",
        ]
        findings = ("FINDING: " + finding for finding in self._findings())
        lines = itertools.chain(head, self.linear_lines, findings)
        if counts["paper"][VerdictStatus.VIOLATED.value]:
            return summary, lines, EXIT_VIOLATION
        if any(c[VerdictStatus.INCONCLUSIVE.value] for c in counts.values()):
            return summary, lines, EXIT_INCONCLUSIVE
        return summary, lines, EXIT_OK

    def _findings(self) -> Iterator[str]:
        """Each finding in json's compact form, built by hand from its
        strings, which json never has to escape."""
        if self.b_disagreement:
            printed, closed = self.b_disagreement
            yield (
                '{"type":"ramanujan_b_disagreement","printed":["%s","%s"],'
                '"closed_form":["%s","%s"]}' % (*printed, *closed)
            )
        for n, q, bound, certificate in self.findings:
            yield (
                '{"type":"verdict_violated","bound":"%s","n":%s,"precision_bits":%s,'
                '"certificate":["%s","%s","%s","%s"]}' % (bound, n, q, *certificate)
            )


def _linear_line(n: int, columns: list[str]) -> str:
    """Report-only linear rendering for small n; approximate by construction."""
    import math

    fields = dict(zip(BOUNDS_CSV_COLUMNS, columns))

    def mid_pow2(name: str) -> float:
        # float() of an exact decimal is its correctly rounded double
        mid = (float(fields[f"{name}_lo"]) + float(fields[f"{name}_hi"])) / 2
        return 2.0**mid

    return (
        f"linear n={n}: n! = {math.factorial(n)}, paper_lb ~ {mid_pow2('paper_lb'):.8g}, "
        f"robbins ~ [{mid_pow2('robbins_lo'):.8g}, {mid_pow2('robbins_hi'):.8g}], "
        f"ramanujan ~ [{mid_pow2('ramanujan_lo'):.8g}, {mid_pow2('ramanujan_hi'):.8g}]"
    )


class _ErrorTermFold:
    """Whether every e2 enclosure isolated s2(n) - 1, and the largest s2(n) - 1."""

    def __init__(self, config: SweepConfig, ns: range):
        _load_bounds()
        self.p = config.precision_bits
        self.requested = len(ns)
        self.all_contained = True
        self.max_row: dict | None = None

    def add(self, payload: tuple, write: Callable[[list[str]], None]) -> None:
        columns, s2m1, contains = payload
        write(columns)
        if not contains:
            self.all_contained = False
        if self.max_row is None or s2m1 > self.max_row["s2_minus_1"]:
            n, _, e2_lo, e2_hi = columns[:4]
            self.max_row = {"n": int(n), "s2_minus_1": s2m1, "e2_lo": e2_lo, "e2_hi": e2_hi}

    def finish(self, checked: int) -> tuple[dict, Iterable[str], int]:
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
    """Running oracle counts, the three-way check of each odd a, and every
    failure record, written as a row too."""

    def __init__(self, config: SweepConfig, ns: range):
        self.even = self.pair = 0
        self.failures: list[dict] = []

    def add(self, payload: tuple, write: Callable[[list[str]], None]) -> None:
        a, formula, even, pair = payload
        self.even += even
        self.pair += pair
        expected = (a - 1) // 2
        if isinstance(formula, str):
            failure = {"a": a, "error": formula}
        elif formula == expected == self.even == self.pair:
            return
        else:
            failure = {
                "a": a,
                "expected": expected,
                "floor_formula": formula,
                "even_count": self.even,
                "pair_count": self.pair,
            }
        self.failures.append(failure)
        write([str(failure.get(c, "")) for c in VERIFY_CSV_COLUMNS])

    def finish(self, checked: int) -> tuple[dict, Iterable[str], int]:
        failures = self.failures
        summary = {"checked": checked, "failures": len(failures), "failure_rows": failures}
        lines = itertools.chain(
            [f"checked={checked} failures={len(failures)}"],
            (f"FAILURE: {_compact_json(f)}" for f in failures),  # each formed as it is written
        )
        return summary, lines, EXIT_VIOLATION if failures else EXIT_OK


def _check_bits(config: SweepConfig, need: int) -> None:
    """Raise UsageError unless ``precision_bits`` is at least MIN_PRECISION
    and a row's finest part, ``need`` bits, is within MAX_PRECISION_BITS."""
    p = config.precision_bits
    if p < MIN_PRECISION:
        raise UsageError(f"precision must be >= {MIN_PRECISION} bits, got {p}")
    if need > MAX_PRECISION_BITS:
        raise UsageError(
            f"precision {p} needs {need} bits for n <= {config.n_hi}, "
            f"above the ceiling of {MAX_PRECISION_BITS} bits"
        )


def run_bounds_sweep(
    config: SweepConfig,
    out_stream: IO[str] | None = None,
    report_stream: IO[str] | None = None,
) -> int:
    """Emit one BoundRow per n in ascending order; returns the exit code."""
    config.validate()
    n = config.n_hi  # log_n grows with n
    _check_bits(config, attempt_plan(config.precision_bits + _VERDICT_BITS, n.bit_length()).log_n)
    return _run(
        config, BOUNDS_CSV_COLUMNS, _bounds_payload, _BoundsFold, out_stream, report_stream
    )


def run_error_term(
    config: SweepConfig,
    out_stream: IO[str] | None = None,
    report_stream: IO[str] | None = None,
) -> int:
    """Emit the e2 table and check the digit-sum characterization per row."""
    config.validate()
    p = config.precision_bits
    # the largest G(n) of the range, at the precision error_term_e2 asks it
    # for; taken at n >= 2, which also covers the row at n = 1
    n = max(config.n_hi, 2)
    q, work = g_cost(n, attempt_plan(p, n.bit_length()).fact)
    _check_bits(config, q)
    if work > WORK_CEILING:
        raise UsageError(
            f"range up to n = {config.n_hi} at precision {p} needs G(n) work of {work}, "
            f"above the work ceiling of {WORK_CEILING}"
        )
    return _run(
        config, ERROR_TERM_CSV_COLUMNS, _error_term_payload, _ErrorTermFold,
        out_stream, report_stream,
    )


def run_verify_theorem(
    config: SweepConfig,
    out_stream: IO[str] | None = None,
    report_stream: IO[str] | None = None,
) -> int:
    """Three-way agreement check of the counting identity over odd a."""
    config = replace(config, parity="odd")
    config.validate()
    if oracle_work(config.n_hi) > WORK_CEILING:
        raise UsageError(
            f"range up to a = {config.n_hi} needs the oracles to visit "
            f"{oracle_work(config.n_hi)} values of m, above the work ceiling of {WORK_CEILING}"
        )
    return _run(
        config, VERIFY_CSV_COLUMNS, _verify_payload, _VerifyFold, out_stream, report_stream
    )
