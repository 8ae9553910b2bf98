"""Sweep harness and CLI: schema, determinism, exit codes, output contracts."""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import json
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
import tracemalloc
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import log2lab
import log2lab.bounds as bounds_mod
import log2lab.exact as exact_mod
import log2lab.sweep as sweep_mod
import log2lab.workers as workers_mod
from log2lab.bounds import BoundRow
from log2lab.cli import build_parser, main
from log2lab.enclosures import G_enclosure
from log2lab.exact import (
    _ROW_PARTS,
    MAX_PRECISION_BITS,
    WORK_CEILING,
    DomainError,
    ResourceLimitError,
    _part_precision,
    g_cost,
    last_attempt,
    oracle_work,
)
from log2lab.sweep import (
    BOUNDS_CSV_COLUMNS,
    ERROR_TERM_CSV_COLUMNS,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    SweepConfig,
    VERIFY_CSV_COLUMNS,
    UsageError,
    run_bounds_sweep,
    run_error_term,
    run_verify_theorem,
)

from conftest import ACCEPTED, largest_accepted, skip_rows, sweep_row_precision

DECIMAL_RE = re.compile(r"^-?\d+(\.\d+)?$")

_ERROR_TERM_PAYLOAD = sweep_mod._error_term_payload


def _error_term_payload_failing_at_2(config, n):
    if n == 2:
        raise RuntimeError("payload failed at n=2")
    return _ERROR_TERM_PAYLOAD(config, n)


def _error_term_payload_over_ceiling_at_2(config, n):
    # row 2 asks the enclosures for a precision above the ceiling, as a row
    # escalated past it would: validation bounds only the requested --bits
    if n == 2:
        config = replace(config, precision_bits=MAX_PRECISION_BITS + 1)
    return _ERROR_TERM_PAYLOAD(config, n)


def _compare_bounds_failing_at_13(n, *args, **kwargs):
    # over 1..40, n = 13 lies inside a block with either worker count: the
    # blocks hold 10 rows with one worker and 5 with two (on two or more CPUs)
    if n == 13:
        raise RuntimeError("row failed at n=13")
    from log2lab.bounds import compare_bounds

    return compare_bounds(n, *args, **kwargs)


_PAIR_ORACLE = sweep_mod.pair_enumeration_oracle


def _pair_oracle_miscounting_at_201(a, *interval):
    # one pair too many in the count that a = 201 adds
    return _PAIR_ORACLE(a, *interval) + (a == 201)


def cli_env() -> dict[str, str]:
    """The environment for a ``python`` subprocess that imports this checkout's src."""
    src = str(Path(log2lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def buffered_env() -> dict[str, str]:
    """cli_env() with stdout block-buffered into a pipe, as by default, so that
    a command's exit has buffered output to flush."""
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def assert_group_gone(pgid: int) -> None:
    """No process is left in the process group of a finished subprocess,
    which leads its own session: it reaped every worker it forked."""
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)


# a covering set of how a run is stopped: every pair of signal, command,
# format and worker count occurs; the SIGTERM and SIGHUP runs of a JSON
# sweep-bounds keep their ids
SIGNAL_CASES = [
    pytest.param(name, "sweep-bounds", "json", workers, id=f"{name}-{workers}")
    for name in ("SIGHUP", "SIGTERM")
    for workers in (1, 2)
] + [
    pytest.param(name, command, fmt, workers, id=f"{name}-{command}-{fmt}-{workers}")
    for name, command, fmt, workers in [
        ("SIGINT", "sweep-bounds", "csv", 1),
        ("SIGINT", "error-term", "json", 2),
        ("SIGINT", "verify-theorem", "csv", 2),
        ("SIGTERM", "error-term", "csv", 1),
        ("SIGTERM", "verify-theorem", "json", 1),
        ("SIGHUP", "error-term", "csv", 2),
        ("SIGHUP", "verify-theorem", "json", 1),
    ]
]
# ranges that run for minutes, within each command's checks
SIGNAL_RANGES = {
    "sweep-bounds": "100000..400000",
    "error-term": "1..1000000",
    "verify-theorem": "1..2000000001",
}
SIGNAL_COLUMNS = {
    "sweep-bounds": BOUNDS_CSV_COLUMNS,
    "error-term": ERROR_TERM_CSV_COLUMNS,
    "verify-theorem": VERIFY_CSV_COLUMNS,
}


# how a command is launched: as ``python -m log2lab.cli`` (through cli.run,
# which leaves by os._exit), or main() in process, left the normal way
MODULE = ["-m", "log2lab.cli"]
IN_PROCESS = ["-c", "import sys; from log2lab.cli import main; sys.exit(main())"]

CLOSED_BY_READER = "log2lab: output closed by its reader; the run stopped early\n"

# a -c prelude that makes row 13 fail, in a forked worker too
FAILING_AT_13 = """
import os, sys
import log2lab.sweep as sweep
from log2lab.bounds import compare_bounds

def failing_at_13(n, *args, **kwargs):
    if n == 13:
        raise RuntimeError("row failed at n=13")
    return compare_bounds(n, *args, **kwargs)

sweep.compare_bounds = failing_at_13
os.sched_getaffinity = lambda pid: {0, 1}
"""


def set_cpus(monkeypatch, count: int) -> None:
    """Let this process run on ``count`` CPUs, as its affinity mask reads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def run_launched(launcher: list[str], argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *launcher, *argv], capture_output=True, env=buffered_env(), timeout=120
    )


def run_to_files(runner, config, tmp_path, name):
    out = tmp_path / name
    config = replace(config, output_path=str(out))
    report = io.StringIO()
    code = runner(config, report_stream=report)
    return code, out, report.getvalue()


RANGE_RUNNERS = {"sweep-bounds": run_bounds_sweep, "error-term": run_error_term}


def admitted_by_the_per_call_rules(command: str, n_hi: int, p: int) -> bool:
    """Whether ``command`` takes a range up to n_hi at --bits p: sweep-bounds
    while its rows' finest part fits under the ceiling, error-term while its
    largest G(n), at a row's part precision, fits under both ceilings."""
    if p < exact_mod.MIN_PRECISION:
        return False
    if command == "sweep-bounds":
        return sweep_row_precision(n_hi, p) <= exact_mod.MAX_PRECISION_BITS
    q, work = g_cost(max(n_hi, 2), _part_precision(p, _ROW_PARTS))
    return q <= exact_mod.MAX_PRECISION_BITS and work <= exact_mod.WORK_CEILING


def admission_edge(command: str, n_hi: int) -> int:
    """The largest --bits the per-call rules let ``command`` take up to n_hi,
    as the finest precision each asks for is --bits plus a constant."""
    if command == "sweep-bounds":
        return MAX_PRECISION_BITS - sweep_row_precision(n_hi, 0)
    return MAX_PRECISION_BITS - g_cost(max(n_hi, 2), _part_precision(0, _ROW_PARTS))[0]


@st.composite
def admission_cases(draw) -> tuple[str, int, int, int]:
    """(command, n_lo, n_hi, --bits): bits from 1 to 20000 and on either side
    of the command's precision edge at n_hi, n_hi up to 10^20, near a power
    of two and near error-term's work edge at --bits 64, and at most 3 rows."""
    command = draw(st.sampled_from(sorted(RANGE_RUNNERS)))
    n_hi = draw(
        st.one_of(
            st.integers(1, 10**20),
            st.integers(1, 10**4),
            st.integers(35_791_390, 35_791_399),
            st.builds(lambda k, d: (1 << k) + d, st.integers(1, 66), st.sampled_from([-1, 0, 1])),
        )
    )
    edge = admission_edge(command, n_hi)
    p = draw(
        st.one_of(
            st.integers(4, 20000),
            st.integers(1, 5),
            st.integers(4, 256),
            st.integers(edge - 2, edge + 2),
        )
    )
    return command, max(1, n_hi - draw(st.integers(0, 2))), n_hi, p


RUN_COLUMNS = {
    "verify-theorem": VERIFY_CSV_COLUMNS,
    "sweep-bounds": BOUNDS_CSV_COLUMNS,
    "error-term": ERROR_TERM_CSV_COLUMNS,
}


@st.composite
def run_contract_cases(draw) -> tuple[list[str], str, SweepConfig]:
    """(argv without --out, the --out kind, the config argv asks for): one
    range command over at most 4 numbers, with its format, parity, b source,
    --bits, --max-escalations and --workers drawn, the last two up to 10^30.
    n stays where a run is cheap: verify-theorem counts from zero up to a,
    and error-term brackets n!, so both keep n small."""
    command = draw(st.sampled_from(sorted(RUN_COLUMNS)))
    n_max = {"verify-theorem": 3000, "error-term": 10**4, "sweep-bounds": 10**20}[command]
    n_lo = draw(st.one_of(st.integers(1, 3000), st.integers(1, n_max)))
    n_hi = n_lo + draw(st.integers(0, 3))
    fmt = draw(st.sampled_from(SweepConfig.OUTPUT_FORMATS))
    workers = draw(st.one_of(st.integers(1, 3), st.integers(1, 10**30)))
    options = {"output_format": fmt, "workers": workers}
    argv = [command, "--range", f"{n_lo}..{n_hi}", "--format", fmt, "--workers", str(workers)]
    if command != "verify-theorem":
        bits = draw(st.one_of(st.integers(1, 6), st.integers(4, 256)))
        parity = draw(st.sampled_from(SweepConfig.PARITIES))
        options.update(precision_bits=bits, parity=parity)
        argv += ["--bits", str(bits), *(["--odd-only"] if parity == "odd" else [])]
    if command == "sweep-bounds":
        b_source = draw(st.sampled_from(SweepConfig.RAMANUJAN_B))
        escalations = draw(st.one_of(st.integers(0, 4), st.integers(0, 10**30)))
        options.update(ramanujan_b=b_source, max_escalations=escalations)
        argv += ["--ramanujan-b", b_source, "--max-escalations", str(escalations)]
    out_kind = draw(st.sampled_from(["fresh", "directory", "missing-directory"]))
    return argv, out_kind, SweepConfig(n_lo=n_lo, n_hi=n_hi, **options)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_lo": 0, "n_hi": 5},
            {"n_lo": 9, "n_hi": 5},
            {"n_lo": 1, "n_hi": 5, "precision_bits": 3},
            {"n_lo": 1, "n_hi": 5, "output_format": "xml"},
            {"n_lo": 1, "n_hi": 5, "parity": "even"},
            {"n_lo": 1, "n_hi": 5, "ramanujan_b": "guess"},
            {"n_lo": 1, "n_hi": 5, "workers": 0},
            {"n_lo": 1, "n_hi": 5, "max_escalations": -1},
            {"n_lo": 1, "n_hi": 5, "precision_bits": 20000},
            {"n_lo": 1, "n_hi": 40_000_000},
        ],
    )
    def test_rejects(self, kwargs, monkeypatch):
        skip_rows(monkeypatch)
        with pytest.raises(UsageError):
            run_error_term(SweepConfig(**kwargs))

    @pytest.mark.parametrize("p", [4, 64, 1000])
    def test_work_ceiling_boundary(self, p, monkeypatch):
        # the largest n_hi whose G(n) stays within the work ceiling
        skip_rows(monkeypatch)
        lo = largest_accepted(run_error_term, p)
        part = _part_precision(p, _ROW_PARTS)  # what error_term_e2 asks G for
        assert g_cost(lo, part)[1] <= WORK_CEILING < g_cost(lo + 1, part)[1]
        assert run_error_term(SweepConfig(n_lo=lo, n_hi=lo, precision_bits=p)) == ACCEPTED
        with pytest.raises(UsageError, match="work ceiling"):
            run_error_term(SweepConfig(n_lo=lo + 1, n_hi=lo + 1, precision_bits=p))
        # a command without G(n) takes the range
        config = SweepConfig(n_lo=lo + 1, n_hi=lo + 1, precision_bits=p)
        assert run_bounds_sweep(config) == ACCEPTED

    def test_oracle_work_boundary(self, monkeypatch):
        # verify-theorem's oracles visit about 2 n_hi values of m, so the
        # largest range end it takes is half the work ceiling
        skip_rows(monkeypatch)
        a = WORK_CEILING // 2
        assert oracle_work(a) <= WORK_CEILING < oracle_work(a + 1)
        assert run_verify_theorem(SweepConfig(n_lo=a, n_hi=a)) == ACCEPTED
        with pytest.raises(UsageError, match="work ceiling"):
            run_verify_theorem(SweepConfig(n_lo=a + 1, n_hi=a + 1))
        # sweep-bounds is not held to it
        assert run_bounds_sweep(SweepConfig(n_lo=a + 1, n_hi=a + 1)) == ACCEPTED

    def test_every_check_reads_the_precision_ceiling_from_exact(self, tmp_path, monkeypatch):
        # with only exact's ceiling moved, sweep-bounds and error-term take
        # --bits up to their new edge and reject one more, before --out is
        # opened; a row stops escalating under it and G(n) follows it too
        ceiling = 1000
        monkeypatch.setattr(exact_mod, "MAX_PRECISION_BITS", ceiling)
        n = 3000
        p_sweep = ceiling - sweep_row_precision(n, 0)
        assert sweep_row_precision(n, p_sweep) == ceiling
        p_e2 = ceiling - g_cost(n, _part_precision(0, _ROW_PARTS))[0]
        assert g_cost(n, _part_precision(p_e2, _ROW_PARTS))[0] == ceiling
        for command, p in (("sweep-bounds", p_sweep), ("error-term", p_e2)):
            config = SweepConfig(n_lo=n, n_hi=n, precision_bits=p + 1, output_format="json")
            out = tmp_path / f"{command}.json"
            with pytest.raises(UsageError, match=f"above the ceiling of {ceiling} bits"):
                RANGE_RUNNERS[command](replace(config, output_path=str(out)))
            assert not out.exists()
            config = replace(config, precision_bits=p)
            code, out, _ = run_to_files(RANGE_RUNNERS[command], config, tmp_path, out.name)
            assert code != EXIT_USAGE
            (row,) = json.loads(out.read_text())[:-1]
            if command == "sweep-bounds":
                assert row["precision_bits"] == str(p)
        # the last attempt's finest part is the last one under the ceiling
        assert last_attempt(n, p_sweep, 10**9) == 0
        assert last_attempt(n, p_sweep // 2, 10**9) == 1
        assert last_attempt(n, p_sweep // 2 + 1, 10**9) == 0
        part = _part_precision(p_e2, _ROW_PARTS)
        G_enclosure(n, part)
        with pytest.raises(ResourceLimitError, match=f"above the ceiling of {ceiling} bits"):
            G_enclosure(n, part + 1)

    def test_work_ceiling_and_precision_floor_are_read_from_exact(self, monkeypatch):
        skip_rows(monkeypatch)
        monkeypatch.setattr(exact_mod, "WORK_CEILING", 1000)
        monkeypatch.setattr(exact_mod, "MIN_PRECISION", 8)
        assert run_verify_theorem(SweepConfig(n_lo=499, n_hi=500)) == ACCEPTED
        with pytest.raises(UsageError, match="above the work ceiling of 1000$"):
            run_verify_theorem(SweepConfig(n_lo=501, n_hi=501))
        lo = largest_accepted(run_error_term, 64)
        part = _part_precision(64, _ROW_PARTS)
        assert g_cost(lo, part)[1] <= 1000 < g_cost(lo + 1, part)[1]
        with pytest.raises(ResourceLimitError, match="above the work ceiling of 1000$"):
            G_enclosure(lo + 1, part)
        for runner in RANGE_RUNNERS.values():
            assert runner(SweepConfig(n_lo=1, n_hi=3, precision_bits=8)) == ACCEPTED
            with pytest.raises(UsageError, match="precision must be >= 8 bits"):
                runner(SweepConfig(n_lo=1, n_hi=3, precision_bits=7))
        with pytest.raises(DomainError, match="precision must be >= 8 bits"):
            G_enclosure(3, 7)

    @settings(deadline=None, max_examples=200)
    @given(admission_cases())
    def test_admission_is_the_per_call_rules(self, case):
        # a range is rejected exactly when the per-call rules say --bits is
        # below the floor or too fine for n_hi; a cheap admitted range writes
        # every row, and any other case stops once its checks are done, so
        # that a range admitted by mistake fails at once instead of running
        command, n_lo, n_hi, p = case
        runner = RANGE_RUNNERS[command]
        config = SweepConfig(n_lo=n_lo, n_hi=n_hi, precision_bits=p)
        admitted = admitted_by_the_per_call_rules(command, n_hi, p)
        if admitted and p <= 256 and (command == "sweep-bounds" or n_hi <= 10**4):
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "rows.csv"
                config = replace(config, output_path=str(out))
                assert runner(config, report_stream=io.StringIO()) != EXIT_USAGE
                assert len(out.read_text().splitlines()) == 1 + n_hi - n_lo + 1  # header, rows
            return
        with pytest.MonkeyPatch.context() as patch:
            skip_rows(patch)
            if admitted:
                assert runner(config) == ACCEPTED
            else:
                with pytest.raises(UsageError):
                    runner(config)

    @pytest.mark.parametrize("p", [1, MAX_PRECISION_BITS + 1])
    def test_verify_theorem_has_no_precision_rule(self, p, monkeypatch):
        skip_rows(monkeypatch)
        with pytest.raises(UsageError, match="precision"):
            run_bounds_sweep(SweepConfig(n_lo=1, n_hi=99, precision_bits=p))
        config = SweepConfig(n_lo=1, n_hi=99, precision_bits=p)
        assert run_verify_theorem(config) == ACCEPTED

    def test_accepted_values_are_stated_once(self):
        # the parser's choices and --odd-only's parity are SweepConfig's
        # class tuples, which validate reads too and which are no fields
        tuples = {"OUTPUT_FORMATS", "PARITIES", "RAMANUJAN_B"}
        assert not tuples & {f.name for f in fields(SweepConfig)}
        parser = build_parser()
        for fmt in SweepConfig.OUTPUT_FORMATS:
            for b in SweepConfig.RAMANUJAN_B:
                argv = ["sweep-bounds", "--range", "1..3", "--odd-only", "--format", fmt]
                args = vars(parser.parse_args(argv + ["--ramanujan-b", b]))
                assert (args["output_format"], args["ramanujan_b"]) == (fmt, b)
                assert args["parity"] == SweepConfig.PARITIES[-1] == "odd"
                SweepConfig(n_lo=1, n_hi=3, output_format=fmt, ramanujan_b=b).validate()
        for parity in SweepConfig.PARITIES:
            SweepConfig(n_lo=1, n_hi=3, parity=parity).validate()
        # the b names bounds reads its routines by
        assert tuple(bounds_mod._B_SOURCES) == SweepConfig.RAMANUJAN_B

    def test_parity_filter(self):
        cfg = SweepConfig(n_lo=1, n_hi=10, parity="odd")
        assert list(cfg.ns()) == [1, 3, 5, 7, 9]
        assert list(SweepConfig(n_lo=2, n_hi=2, parity="odd").ns()) == []
        assert list(SweepConfig(n_lo=2, n_hi=9, parity="odd").ns()) == [3, 5, 7, 9]


class TestBoundsSweep:
    def test_csv_schema_and_contents(self, tmp_path):
        cfg = SweepConfig(n_lo=1, n_hi=16, precision_bits=64)
        code, out, report = run_to_files(run_bounds_sweep, cfg, tmp_path, "rows.csv")
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out) as fh:
            header = fh.readline().rstrip("\n")
        assert header.split(",") == BOUNDS_CSV_COLUMNS
        assert len(rows) == 16
        width_cap = Fraction(1, 1 << 64)
        for row in rows:
            assert set(row) == set(BOUNDS_CSV_COLUMNS)
            n = int(row["n"])
            assert int(row["precision_bits"]) >= 64
            for name in ("log2_fact", "g", "paper_lb", "c_log2", "e2"):
                lo, hi = Fraction(row[f"{name}_lo"]), Fraction(row[f"{name}_hi"])
                assert DECIMAL_RE.match(row[f"{name}_lo"])
                assert lo <= hi
                assert hi - lo <= width_cap
            assert row["verdict_paper"] == "Holds"
            assert row["verdict_robbins"] == "Holds"
            assert row["verdict_ramanujan"] in ("Holds", "Violated")
            assert row["equality_flag"] == ("true" if n in (1, 2, 4, 8, 16) else "false")
            assert int(row["s2"]) == bin(n).count("1")
        # spec example: within [1, 16] the error term peaks at n = 15
        assert "max e2 at n=15" in report
        assert "ramanujan_b_disagreement" in report

    @pytest.mark.parametrize("span,first", [("881..960", 895), ("1..24", 15)])
    def test_max_e2_row_is_the_first_with_the_largest_digit_sum(
        self, tmp_path, capsys, span, first
    ):
        """sweep-bounds, as CSV and JSON with 1 and 2 workers, names the
        max-e2 row that error-term names: the first n with the largest
        e2(n) = s2(n) - 1, though a later n ties it (959 and 23), and the
        JSON summary shows that row's own e2 columns."""
        argv = ["--range", span, "--bits", "64"]
        assert main(["error-term", *argv]) == EXIT_OK
        assert f"max e2 at n={first} (s2-1 = " in capsys.readouterr().err
        for workers in (1, 2):
            for fmt in ("csv", "json"):
                out = tmp_path / f"rows_w{workers}.{fmt}"
                extra = ["--format", fmt, "--workers", str(workers), "--out", str(out)]
                assert main(["sweep-bounds", *argv, *extra]) == EXIT_OK
                lines = capsys.readouterr().err.splitlines()
                assert lines[2:4] == [f"max e2 at n={first}", f"max c_log2 at n={first}"]
                if fmt == "json":
                    payload = json.loads(out.read_text())
                    (row,) = [row for row in payload[:-1] if row["n"] == str(first)]
                    summary = payload[-1]["summary"]
                    want = {"n": first, "lo": row["e2_lo"], "hi": row["e2_hi"]}
                    assert summary["max_e2"] == summary["max_c_log2"] == want

    def test_json_rows_and_trailing_summary(self, tmp_path):
        cfg = SweepConfig(n_lo=1, n_hi=8, precision_bits=53, output_format="json")
        code, out, _ = run_to_files(run_bounds_sweep, cfg, tmp_path, "rows.json")
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert isinstance(payload, list) and len(payload) == 9
        for row in payload[:-1]:
            assert list(row) == BOUNDS_CSV_COLUMNS
        summary = payload[-1]["summary"]
        assert summary["checked"] == 8
        assert summary["equality_ns"] == [1, 2, 4, 8]
        assert summary["max_e2"]["n"] == 7
        assert summary["verdict_counts"]["paper"]["Holds"] == 8
        assert any(f["type"] == "ramanujan_b_disagreement" for f in summary["findings"])
        assert any(
            f["type"] == "verdict_violated" and f["bound"] == "ramanujan_lower"
            for f in summary["findings"]
        )

    def test_csv_finish_does_not_grow_with_the_findings(self):
        # a CSV run never writes the JSON summary, so its finish builds no
        # findings dicts, and each FINDING line is formed as it is written;
        # the Ramanujan lower side is Violated on every row, so a run that
        # held them all would peak at about 1 KB a row here
        def finish_peak(n_hi: int) -> tuple[int, dict, int]:
            config = SweepConfig(n_lo=1, n_hi=n_hi, precision_bits=64)
            fold = sweep_mod._BoundsFold(config, config.ns())
            for n in config.ns():
                fold.add(sweep_mod._bounds_payload(config, n), lambda values: None)
            tracemalloc.start()
            try:
                summary, lines, _ = fold.finish(n_hi)
                findings = sum(line.startswith("FINDING: ") for line in lines)
                return tracemalloc.get_traced_memory()[1], summary, findings
            finally:
                tracemalloc.stop()

        small, summary, findings = finish_peak(200)
        assert "findings" not in summary and findings > 200
        large, _, findings = finish_peak(2000)
        assert findings > 2000
        assert large < small + 16 * 1024, (small, large)

    @pytest.mark.parametrize("start,most", [(3004, 600), (10**5, 850)])
    def test_fold_keeps_each_finding_as_its_text(self, start, most):
        # every row holds a Ramanujan-lower finding, and the fold keeps each
        # until the run ends: as its json text that is about 460 bytes from
        # 3004 and 720 from 10^5 (rows escalated to p = 128), where a record
        # of its column strings held about 800 and 1070.  Each payload reaches
        # the fold as from a forked worker, unpickled and dropped after add,
        # so that the rows are computed (and the caches warmed) untraced
        config = SweepConfig(n_lo=start, n_hi=start + 1999, precision_bits=64)
        fold = sweep_mod._BoundsFold(config, config.ns())
        blobs = [pickle.dumps(sweep_mod._bounds_payload(config, n)) for n in config.ns()]
        kept = len(fold.findings)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for blob in blobs:
                fold.add(pickle.loads(blob), lambda values: None)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        added = len(fold.findings) - kept
        assert added == 2000
        assert retained <= most * added, retained / added
        assert all(isinstance(finding, str) for finding in fold.findings)

    def test_byte_identical_across_worker_counts(self, tmp_path):
        cfg1 = SweepConfig(n_lo=1, n_hi=60, precision_bits=64, workers=1)
        cfg2 = SweepConfig(n_lo=1, n_hi=60, precision_bits=64, workers=2)
        _, out1, _ = run_to_files(run_bounds_sweep, cfg1, tmp_path, "w1.csv")
        _, out2, _ = run_to_files(run_bounds_sweep, cfg2, tmp_path, "w2.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_odd_only_filter(self, tmp_path):
        cfg = SweepConfig(n_lo=1, n_hi=10, precision_bits=53, parity="odd")
        code, out, _ = run_to_files(run_bounds_sweep, cfg, tmp_path, "odd.csv")
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            ns = [int(r["n"]) for r in csv.DictReader(fh)]
        assert ns == [1, 3, 5, 7, 9]

    def test_exit_inconclusive_when_escalation_capped(self, tmp_path):
        cfg = SweepConfig(n_lo=2048, n_hi=2048, precision_bits=4, max_escalations=0)
        code, out, _ = run_to_files(run_bounds_sweep, cfg, tmp_path, "inc.csv")
        assert code == EXIT_INCONCLUSIVE
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert "Inconclusive" in (row["verdict_robbins"], row["verdict_ramanujan"])

    def test_exit_violation_on_paper_verdict(self, tmp_path, monkeypatch):
        from log2lab.bounds import Verdict, VerdictStatus, compare_bounds

        def sabotaged(n, p, **kwargs):
            row = compare_bounds(n, p, **kwargs)
            paper = row.verdicts["paper"]
            row.verdicts["paper"] = Verdict(VerdictStatus.VIOLATED, paper.certificate)
            return row

        monkeypatch.setattr(sweep_mod, "compare_bounds", sabotaged)
        cfg = SweepConfig(n_lo=3, n_hi=3, precision_bits=53)
        code, _, report = run_to_files(run_bounds_sweep, cfg, tmp_path, "bad.csv")
        assert code == EXIT_VIOLATION
        assert "verdict_violated" in report and '"bound":"paper"' in report

    @pytest.fixture
    def payloads(self, monkeypatch):
        """``_bounds_payload`` of a config and n, with the row it rendered."""
        sweep_mod._load_bounds()
        real = sweep_mod.compare_bounds
        rows = []

        def recording(*args, **kwargs):
            rows.append(real(*args, **kwargs))
            return rows[-1]

        monkeypatch.setattr(sweep_mod, "compare_bounds", recording)

        def payload_and_row(config, n):
            return sweep_mod._bounds_payload(config, n), rows[-1]

        return payload_and_row

    @staticmethod
    def certificate_columns(payload, row):
        """Each Violated finding, (bound, certificate), with the column
        strings of the row intervals its verdict's certificate holds."""
        values, _, _, findings = payload
        fields = dict(zip(BOUNDS_CSV_COLUMNS, values, strict=True))
        for bound, certificate in findings:
            columns = []
            for iv in row.verdicts[bound].certificate:
                name = next(name for name in BoundRow._fields if getattr(row, name) is iv)
                columns += [fields[f"{name}_lo"], fields[f"{name}_hi"]]
            yield (bound, certificate), columns

    def test_each_interval_rendered_once(self, payloads, monkeypatch):
        # 8 distinct intervals (c_log2 is e2) of two endpoints each, the
        # findings' certificates included
        from log2lab.dyadic import DyadicRational

        calls = []
        real = DyadicRational.decimal_str

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(DyadicRational, "decimal_str", counting)
        cfg = SweepConfig(n_lo=3004, n_hi=3083, precision_bits=64)
        findings = 0
        for n in cfg.ns():
            del calls[:]
            payload, row = payloads(cfg, n)
            assert len(calls) == 16, n
            for (_, certificate), columns in self.certificate_columns(payload, row):
                assert all(a is b for a, b in zip(certificate, columns, strict=True))
                findings += 1
        assert findings >= len(cfg.ns())  # the Ramanujan lower side, every row

    @pytest.mark.parametrize("p", [4, 64])
    def test_columns_field_by_field(self, payloads, p):
        """Each *_lo/*_hi pair is its BoundRow interval rounded outward onto
        the 2^-(precision_bits + 3) grid, and each verdict column combines
        the statuses of the bounds it names, over rows that escalate (from
        n = 100000) and rows left Inconclusive (2048 at --bits 4, capped)."""
        from log2lab.bounds import BOUND_NAMES, VerdictStatus

        def combined(statuses):
            if VerdictStatus.VIOLATED in statuses:
                return VerdictStatus.VIOLATED.value
            if all(s is VerdictStatus.HOLDS for s in statuses):
                return VerdictStatus.HOLDS.value
            return VerdictStatus.INCONCLUSIVE.value

        escalated, verdicts = 0, set()
        for n, cap in [*((n, 4) for n in range(1, 65)), (2048, 0), (100000, 4), (100001, 4)]:
            cfg = SweepConfig(n_lo=n, n_hi=n, precision_bits=p, max_escalations=cap)
            (columns, statuses, escalations, _), row = payloads(cfg, n)
            fields = dict(zip(BOUNDS_CSV_COLUMNS, columns, strict=True))
            assert fields["n"] == str(n)
            assert fields["precision_bits"] == str(row.precision_bits)
            for name in sweep_mod._ROW_INTERVALS:
                iv = getattr(row, name).round_outward(row.precision_bits + 3)
                expected = iv.lo.decimal_str(), iv.hi.decimal_str()
                assert (fields[f"{name}_lo"], fields[f"{name}_hi"]) == expected, (n, name)
            assert fields["s2"] == str(row.s2)
            assert fields["equality_flag"] == ("true" if row.equality else "false")
            assert statuses == tuple(row.verdicts[b].status.value for b in BOUND_NAMES)
            for bound in ("paper", "robbins", "ramanujan"):
                sides = [row.verdicts[b].status for b in BOUND_NAMES if b.split("_")[0] == bound]
                assert fields[f"verdict_{bound}"] == combined(sides), (n, bound)
                verdicts.add(fields[f"verdict_{bound}"])
            assert escalations == row.escalations
            escalated += escalations > 0
        assert escalated >= 2
        assert verdicts >= {"Holds", "Violated"}
        if p == 4:
            assert "Inconclusive" in verdicts

    @pytest.mark.parametrize("b_source", ["printed", "closed-form"])
    @pytest.mark.parametrize("p", [4, 64])
    def test_finding_certificates_are_their_rows_columns(self, payloads, p, b_source):
        checked = 0
        for n in [*range(1, 301), 3004, 4939, 6001]:
            cfg = SweepConfig(n_lo=n, n_hi=n, precision_bits=p, ramanujan_b=b_source)
            payload, row = payloads(cfg, n)
            assert payload[0][1] == str(row.precision_bits)
            for (bound, certificate), columns in self.certificate_columns(payload, row):
                assert list(certificate) == columns, (n, bound)
                checked += 1
        assert checked >= 300

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupt_leaves_valid_truncated_json(self, tmp_path, monkeypatch, workers):
        # with 2 workers the blocks hold 2 rows, so n = 4 is in the second
        # block, [3, 4], which the forked child computes
        real = sweep_mod._bounds_payload

        def interrupting(config, n):
            if n >= 4:
                raise KeyboardInterrupt
            return real(config, n)

        monkeypatch.setattr(sweep_mod, "_bounds_payload", interrupting)
        set_cpus(monkeypatch, 2)
        outs = {}
        for w in sorted({1, workers}):
            cfg = SweepConfig(n_lo=1, n_hi=10, precision_bits=53, output_format="json", workers=w)
            code, outs[w], report = run_to_files(run_bounds_sweep, cfg, tmp_path, f"trunc_w{w}.json")
            assert code == EXIT_INCONCLUSIVE
            assert "interrupted: output file is truncated but valid" in report
        payload = json.loads(outs[workers].read_text())
        assert payload[-1]["summary"]["truncated"] is True
        assert len(payload) == 4  # three complete rows plus the summary
        assert outs[workers].read_bytes() == outs[1].read_bytes()

    def test_interrupt_in_fold_leaves_valid_truncated_json(self, tmp_path, monkeypatch):
        real = sweep_mod._linear_line

        def interrupting(n, fields):
            if n >= 3:
                raise KeyboardInterrupt
            return real(n, fields)

        monkeypatch.setattr(sweep_mod, "_linear_line", interrupting)
        cfg = SweepConfig(
            n_lo=1, n_hi=10, precision_bits=53, output_format="json", linear_display=True
        )
        code, out, report = run_to_files(run_bounds_sweep, cfg, tmp_path, "trunc.json")
        assert code == EXIT_INCONCLUSIVE
        payload = json.loads(out.read_text())
        summary = payload[-1]["summary"]
        assert summary["truncated"] is True
        # row 3 was written before its fold step was interrupted
        assert [row["n"] for row in payload[:-1]] == ["1", "2", "3"]
        assert summary["checked"] == 3
        assert "interrupted: output file is truncated but valid" in report

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("where, k", [("flush", 1), ("flush", 3), ("write", 1), ("write", 3)])
    def test_interrupted_row_write_leaves_valid_json(self, monkeypatch, workers, where, k):
        """Ctrl-C while a row goes out, as when stdout's reader is slow: in
        the flush after row k (the row is out), or in the write of row k
        (the write is lost whole).  Either way the array closes cleanly."""

        class Interrupted(io.StringIO):
            rows = flushes = 0

            def write(self, text):
                if '"n":' in text:
                    self.rows += 1
                    if where == "write" and self.rows == k:
                        raise KeyboardInterrupt
                return super().write(text)

            def flush(self):
                self.flushes += 1  # the JSON writer flushes once per row
                if where == "flush" and self.flushes == k:
                    raise KeyboardInterrupt

        set_cpus(monkeypatch, 2)
        out, report = Interrupted(), io.StringIO()
        cfg = SweepConfig(n_lo=1, n_hi=12, precision_bits=53, output_format="json", workers=workers)
        assert run_bounds_sweep(cfg, out, report) == EXIT_INCONCLUSIVE
        payload = json.loads(out.getvalue())
        written = k if where == "flush" else k - 1
        assert [row["n"] for row in payload[:-1]] == [str(n) for n in range(1, written + 1)]
        assert payload[-1]["summary"]["truncated"] is True
        assert payload[-1]["summary"]["checked"] == written
        assert "interrupted: output file is truncated but valid" in report.getvalue()

    def test_interrupt_leaves_parseable_csv(self, tmp_path, monkeypatch):
        real = sweep_mod._bounds_payload

        def interrupting(config, n):
            if n >= 3:
                raise KeyboardInterrupt
            return real(config, n)

        monkeypatch.setattr(sweep_mod, "_bounds_payload", interrupting)
        cfg = SweepConfig(n_lo=1, n_hi=10, precision_bits=53)
        code, out, _ = run_to_files(run_bounds_sweep, cfg, tmp_path, "trunc.csv")
        assert code == EXIT_INCONCLUSIVE
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["1", "2"]


class TestErrorTerm:
    def test_table_and_exit(self, tmp_path):
        cfg = SweepConfig(n_lo=1, n_hi=40, precision_bits=96)
        code, out, report = run_to_files(run_error_term, cfg, tmp_path, "e2.csv")
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out) as fh:
            assert fh.readline().rstrip("\n").split(",") == ERROR_TERM_CSV_COLUMNS
        for row in rows:
            n = int(row["n"])
            assert int(row["s2_minus_1"]) == bin(n).count("1") - 1
            assert row["contains"] == "true"
            lo, hi = Fraction(row["e2_lo"]), Fraction(row["e2_hi"])
            assert lo <= int(row["s2_minus_1"]) <= hi
        assert "excluded neighbors: true" in report

    def test_payload_is_the_row_and_the_two_values_checked(self):
        # (columns, s2(n) - 1, contains): the fold reads the int and the bool
        # as they are, and writes the columns
        sweep_mod._load_bounds()  # as the fold does before a run
        config = SweepConfig(n_lo=1, n_hi=40, precision_bits=96)
        for n in (1, 7, 8, 40):
            columns, s2m1, contains = sweep_mod._error_term_payload(config, n)
            assert len(columns) == len(ERROR_TERM_CSV_COLUMNS)
            assert all(isinstance(c, str) for c in columns)
            assert columns[:2] == [str(n), "96"]
            assert s2m1 == bin(n).count("1") - 1 and columns[4] == str(s2m1)
            assert contains is True and columns[5] == "true"

    def test_containment_failure_exits_one(self, tmp_path, monkeypatch):
        real = sweep_mod._error_term_payload

        def sabotaged(config, n):
            columns, s2m1, contains = real(config, n)
            return columns, s2m1, contains and n != 5

        monkeypatch.setattr(sweep_mod, "_error_term_payload", sabotaged)
        cfg = SweepConfig(n_lo=1, n_hi=8, precision_bits=53)
        code, _, report = run_to_files(run_error_term, cfg, tmp_path, "bad.csv")
        assert code == EXIT_VIOLATION
        assert "excluded neighbors: false" in report

    @pytest.mark.parametrize("workers", [1, 2])
    def test_odd_only_writes_the_odd_rows(self, tmp_path, capsys, monkeypatch, workers):
        set_cpus(monkeypatch, 2)
        full, odd = tmp_path / "full.csv", tmp_path / "odd.csv"
        argv = ["error-term", "--range", "1..40", "--bits", "64", "--workers", str(workers)]
        assert main(argv + ["--out", str(full)]) == EXIT_OK
        capsys.readouterr()
        assert main(argv + ["--odd-only", "--out", str(odd)]) == EXIT_OK
        assert "checked=20 of 20 rows" in capsys.readouterr().err
        header, *rows = full.read_text().splitlines()
        odd_rows = [row for row in rows if int(row.split(",")[0]) % 2]
        assert odd.read_text().splitlines() == [header, *odd_rows]


class TestVerifyTheorem:
    def test_range_1_to_99(self, tmp_path):
        cfg = SweepConfig(n_lo=1, n_hi=99)
        code, out, report = run_to_files(run_verify_theorem, cfg, tmp_path, "v.csv")
        assert code == EXIT_OK
        assert "checked=50 failures=0" in report
        with open(out, newline="") as fh:
            assert list(csv.DictReader(fh)) == []

    def test_single_and_vacuous_ranges(self, tmp_path):
        cfg = SweepConfig(n_lo=1, n_hi=1)
        code, _, report = run_to_files(run_verify_theorem, cfg, tmp_path, "v1.csv")
        assert code == EXIT_OK and "checked=1 failures=0" in report
        cfg = SweepConfig(n_lo=2, n_hi=2)
        code, _, report = run_to_files(run_verify_theorem, cfg, tmp_path, "v2.csv")
        assert code == EXIT_OK and "checked=0 failures=0" in report

    def test_json_summary(self, tmp_path):
        cfg = SweepConfig(n_lo=1, n_hi=31, output_format="json")
        code, out, _ = run_to_files(run_verify_theorem, cfg, tmp_path, "v.json")
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload[-1]["summary"] == {
            "checked": 16,
            "failures": 0,
            "failure_rows": [],
            "truncated": False,
        }

    @pytest.mark.parametrize("lo,hi", [(1, 999), (40, 999), (41, 41), (998, 1001)])
    def test_oracle_work_bounds_the_enumeration(self, monkeypatch, lo, hi):
        # the m the two oracles visit, against the rule validate holds to the
        # work ceiling: 2 hi - 1 - s2(hi) of them for an odd hi, whatever lo is
        visits = []
        real = exact_mod._count_parity

        def counted(m_lo, m_hi, parity):
            visits.append(m_hi - m_lo)
            return real(m_lo, m_hi, parity)

        monkeypatch.setattr(exact_mod, "_count_parity", counted)
        cfg = SweepConfig(n_lo=lo, n_hi=hi)
        assert run_verify_theorem(cfg, io.StringIO(), io.StringIO()) == EXIT_OK
        assert oracle_work(hi) - hi.bit_length() - 1 <= sum(visits) <= oracle_work(hi)

    def test_memory_does_not_grow_with_the_range(self):
        # the n of a run are never held all at once: 10001 odd a would take
        # about 400 KB as a list
        cfg = SweepConfig(n_lo=1, n_hi=20001)
        run_verify_theorem(cfg, out_stream=io.StringIO(), report_stream=io.StringIO())
        tracemalloc.start()
        try:
            code = run_verify_theorem(cfg, out_stream=io.StringIO(), report_stream=io.StringIO())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 64 * 1024

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_miscount_fails_every_later_a(self, tmp_path, monkeypatch, fmt):
        # the oracles' totals are added up in the fold, so one miscounted a
        # fails itself and every later a; the range starts at 41, and with 2
        # workers the block holding a = 201 starts mid-range at a = 179
        monkeypatch.setattr(sweep_mod, "pair_enumeration_oracle", _pair_oracle_miscounting_at_201)
        set_cpus(monkeypatch, 2)
        runs = [
            run_to_files(
                run_verify_theorem,
                SweepConfig(n_lo=41, n_hi=401, workers=w, output_format=fmt),
                tmp_path,
                f"w{w}.{fmt}",
            )
            for w in (1, 2)
        ]
        code, out, report = runs[0]
        assert code == EXIT_VIOLATION
        assert report.startswith("checked=181 failures=101\n")
        expected = [
            {
                "a": str(a),
                "expected": str((a - 1) // 2),
                "floor_formula": str((a - 1) // 2),
                "even_count": str((a - 1) // 2),
                "pair_count": str((a - 1) // 2 + 1),
            }
            for a in range(201, 402, 2)
        ]
        if fmt == "csv":
            with open(out, newline="") as fh:
                assert list(csv.DictReader(fh)) == expected
        else:
            assert json.loads(out.read_text())[:-1] == expected
        for other_code, other_out, other_report in runs[1:]:
            assert other_code == code and other_report == report
            assert other_out.read_bytes() == out.read_bytes()

    def test_workers_agree(self, tmp_path):
        cfg1 = SweepConfig(n_lo=1, n_hi=401, workers=1, output_format="json")
        cfg2 = SweepConfig(n_lo=1, n_hi=401, workers=2, output_format="json")
        _, out1, rep1 = run_to_files(run_verify_theorem, cfg1, tmp_path, "a.json")
        _, out2, rep2 = run_to_files(run_verify_theorem, cfg2, tmp_path, "b.json")
        assert out1.read_bytes() == out2.read_bytes()
        assert rep1 == rep2


class TestCliContract:
    def test_g_value_exact_and_enclosed(self, capsys):
        assert main(["g-value", "1"]) == EXIT_OK
        assert "G(1) = 0 (exact)" in capsys.readouterr().out
        assert main(["g-value", "2"]) == EXIT_OK
        assert "G(2) = 0 (exact)" in capsys.readouterr().out
        assert main(["g-value", "3", "--bits", "50"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "G(3) in [1.16992500144231" in out and "2^-50" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["g-value", "0"],
            ["g-value", "3", "--bits", "2"],
            ["sweep-bounds", "--range", "9..5"],
            ["sweep-bounds", "--range", "abc"],
            ["error-term", "--range", "1..4", "--bits", "1"],
            ["sweep-bounds", "--range", "1..3", "--bits", "20000"],
        ],
    )
    def test_usage_errors_exit_3(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        capsys.readouterr()

    def test_argparse_failures_exit_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-bounds", "--range", "1..4", "--format", "xml"])
        assert exc.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_left_out_options_take_sweep_config_defaults(self, capsys):
        # each range command states no default of its own: an option left out
        # leaves its SweepConfig field at the dataclass default
        parser = build_parser()
        for command in ("verify-theorem", "sweep-bounds", "error-term"):
            fields = vars(parser.parse_args([command, "--range", "1..3"]))
            assert set(fields) == {"command", "range", "run_command"}, command
        defaults = SweepConfig(n_lo=1, n_hi=3)
        for command in ("sweep-bounds", "error-term"):
            assert main([command, "--range", "1..3"]) == EXIT_OK
            header, *rows = capsys.readouterr().out.splitlines()
            assert header.split(",")[:2] == ["n", "precision_bits"]
            assert {row.split(",")[1] for row in rows} == {str(defaults.precision_bits)}
        assert defaults.precision_bits == 64
        assert main(["verify-theorem", "--range", "1..99"]) == EXIT_OK
        assert capsys.readouterr().out == "a,expected,floor_formula,even_count,pair_count\n"

    def test_every_range_option_sets_its_sweep_config_field(self):
        argv = [
            "sweep-bounds", "--range", "2..9", "--bits", "80", "--odd-only",
            "--max-escalations", "2", "--ramanujan-b", "closed-form", "--linear",
            "--format", "json", "--out", "rows.json", "--workers", "2",
        ]
        fields = vars(build_parser().parse_args(argv))
        assert fields.pop("command") == "sweep-bounds"
        assert fields.pop("run_command") is run_bounds_sweep
        assert fields.pop("range") == "2..9"
        assert SweepConfig(n_lo=2, n_hi=9, **fields) == SweepConfig(
            n_lo=2,
            n_hi=9,
            precision_bits=80,
            max_escalations=2,
            output_format="json",
            output_path="rows.json",
            parity="odd",
            ramanujan_b="closed-form",
            workers=2,
            linear_display=True,
        )

    @pytest.mark.parametrize(
        "command,names",
        [
            (None, ["verify-theorem", "sweep-bounds", "error-term", "g-value"]),
            ("verify-theorem", ["--range LO..HI", "--format {csv,json}", "--out PATH"]),
            ("sweep-bounds", ["--bits BITS", "--format {csv,json}", "--out PATH"]),
            ("error-term", ["--bits BITS", "--format {csv,json}", "--out PATH"]),
            ("g-value", ["--bits BITS"]),
        ],
    )
    def test_help_exits_0_and_names_the_metavars(self, capsys, command, names):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        usage = " ".join(capsys.readouterr().out.split())  # one line, whatever the width
        for name in names:
            assert name in usage, name

    @pytest.mark.parametrize(
        "bounds",
        ["1.." + "9" * 5000, "1..99999999999999999999"],
        ids=["past-int-digit-limit", "past-sys-maxsize-numbers"],
    )
    def test_range_rejected_before_output(self, tmp_path, capsys, bounds):
        out = tmp_path / "v.csv"
        assert main(["verify-theorem", "--range", bounds, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("log2lab: error: range ")
        assert not out.exists()

    def test_usage_error_creates_no_output_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["sweep-bounds", "--range", "9..5", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        capsys.readouterr()

    def test_unopenable_output_exits_3(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rows.csv"
        assert main(["sweep-bounds", "--range", "1..3", "--out", str(out)]) == EXIT_USAGE
        assert "log2lab: error: cannot open --out" in capsys.readouterr().err
        assert not out.exists()

    @settings(deadline=None, max_examples=300)
    @given(run_contract_cases())
    def test_run_contract(self, case):
        # a run through main never exits 1 (no bound of the paper is Violated,
        # and every identity holds), and 4 never, as no OS error is provoked;
        # a rejected run is one stderr line and leaves no --out; an accepted
        # one writes a file that parses and holds every row it counts
        argv, out_kind, config = case
        with tempfile.TemporaryDirectory() as tmp:
            out = {
                "fresh": Path(tmp) / "rows.out",
                "directory": Path(tmp),
                "missing-directory": Path(tmp) / "missing" / "rows.out",
            }[out_kind]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--out", str(out)])
            assert stdout.getvalue() == ""
            report = stderr.getvalue().splitlines()
            assert code in (EXIT_OK, EXIT_INCONCLUSIVE, EXIT_USAGE), (code, report)
            if code == EXIT_USAGE or out_kind != "fresh":
                assert code == EXIT_USAGE
                assert len(report) == 1 and report[0].startswith("log2lab: error: "), report
                assert os.listdir(tmp) == []
                return
            verify = argv[0] == "verify-theorem"
            requested = len(replace(config, parity="odd").ns() if verify else config.ns())
            columns = RUN_COLUMNS[argv[0]]
            if config.output_format == "json":
                *rows, last = json.loads(out.read_text())
                summary = last["summary"]
                assert summary["truncated"] is False
                checked = summary["checked"]
                assert all(list(row) == columns for row in rows)
            else:
                with open(out, newline="") as fh:
                    header, *rows = list(csv.reader(fh))
                assert header == columns
                checked = int(re.match(r"checked=(\d+) ", report[0]).group(1))
            assert checked == requested
            assert len(rows) == (0 if verify else checked)  # verify-theorem writes failures

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failed_fold_creates_no_output_file(
        self, tmp_path, capsys, monkeypatch, error, fmt, to_file
    ):
        # sweep-bounds checks b while it builds its fold, which takes 1.4 s
        # at the largest --bits: a failure there must leave no --out at all,
        # not a lone CSV header or an unclosed JSON array, and without --out
        # it must write nothing to stdout
        def failing(p):
            raise error("b check failed")

        monkeypatch.setattr(sweep_mod, "ramanujan_b_agreement", failing)
        out = tmp_path / f"rows.{fmt}"
        argv = ["sweep-bounds", "--range", "1..3", "--format", fmt]
        argv += ["--out", str(out)] if to_file else []
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        if error is RuntimeError:
            assert captured.err.startswith("log2lab: internal error: b check failed\n")
        assert not out.exists()

    def test_sweep_bounds_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            ["sweep-bounds", "--range", "1..6", "--bits", "53", "--out", str(out)]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        with open(out, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 6

    def test_verify_and_error_term_end_to_end(self, tmp_path, capsys):
        assert main(["verify-theorem", "--range", "1..99"]) == EXIT_OK
        assert main(["error-term", "--range", "1..12", "--bits", "64"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resource_limit_mid_run_leaves_valid_truncated_json(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        # with 2 workers row 2 fails in the forked child, and row 1 must
        # still be written
        monkeypatch.setattr(sweep_mod, "_error_term_payload", _error_term_payload_over_ceiling_at_2)
        out = tmp_path / "e2.json"
        argv = ["error-term", "--range", "1..3", "--format", "json"]
        assert main(argv + ["--workers", str(workers), "--out", str(out)]) == EXIT_USAGE
        assert "log2lab: resource limit: " in capsys.readouterr().err
        payload = json.loads(out.read_text())
        summary = payload[-1]["summary"]
        assert summary["truncated"] is True
        assert [row["n"] for row in payload[:-1]] == ["1"]
        assert summary["checked"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_any_error_mid_run_leaves_valid_truncated_json(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        monkeypatch.setattr(sweep_mod, "_error_term_payload", _error_term_payload_failing_at_2)
        argv = ["error-term", "--range", "1..3", "--format", "json"]
        outs = {}
        for w in sorted({1, workers}):
            outs[w] = tmp_path / f"e2_w{w}.json"
            code = main(argv + ["--workers", str(w), "--out", str(outs[w])])
            assert code == EXIT_INTERNAL
            err = capsys.readouterr().err
            assert err.startswith("log2lab: internal error: payload failed at n=2\n")
            assert "Traceback (most recent call last)" in err
            # the frame that raised, which with 2 workers is the child's own
            assert "in _error_term_payload_failing_at_2" in err
        payload = json.loads(outs[workers].read_text())
        summary = payload[-1]["summary"]
        assert summary["truncated"] is True
        assert summary["checked"] == 1
        assert [row["n"] for row in payload[:-1]] == ["1"]
        assert outs[workers].read_bytes() == outs[1].read_bytes()

    def test_error_inside_a_block_keeps_the_rows_before_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sweep_mod, "compare_bounds", _compare_bounds_failing_at_13)
        argv = ["sweep-bounds", "--range", "1..40", "--format", "json"]
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"rows_w{workers}.json"
            assert main(argv + ["--workers", str(workers), "--out", str(out)]) == EXIT_INTERNAL
            err = capsys.readouterr().err
            assert err.startswith("log2lab: internal error: row failed at n=13\n")
            assert "in _compare_bounds_failing_at_13" in err
            outs.append(out.read_bytes())
        payload = json.loads(outs[0])
        summary = payload[-1]["summary"]
        assert [row["n"] for row in payload[:-1]] == [str(n) for n in range(1, 13)]
        assert summary["checked"] == 12 and summary["truncated"] is True
        assert outs[1] == outs[0]

    @staticmethod
    def closed_after_two_lines(launcher: list[str], workers: int) -> tuple[int, str]:
        """(exit code, stderr) of `log2lab sweep-bounds ... | head -2`: the
        rows fill the pipe, so the command is still writing when its reader
        goes away."""
        argv = ["sweep-bounds", "--range", "1..3000", "--bits", "64", "--workers", str(workers)]
        proc = subprocess.Popen(
            [sys.executable, *launcher, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=buffered_env(),
            start_new_session=True,
        )
        assert proc.stdout.readline().startswith(b"n,precision_bits,")
        assert proc.stdout.readline().startswith(b"1,")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=120)
        assert_group_gone(proc.pid)
        return code, err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_closed_stdout_stops_quietly(self, workers):
        for launcher in (MODULE, IN_PROCESS):
            code_err = self.closed_after_two_lines(launcher, workers)
            assert code_err == (EXIT_INCONCLUSIVE, CLOSED_BY_READER), launcher

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-bounds", "--range", "1..300"],
            ["error-term", "--range", "1..1000"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_closed_shared_pipe_exits_2(self, argv, unbuffered):
        """`log2lab ... 2>&1 | head -1`: stderr is the pipe whose reader has
        gone, so the closed-reader line goes to the null device and the run
        still exits 2.  Each output (150 kB and more) is over twice a pipe's
        capacity, so the run is still writing when the reader goes."""
        env = buffered_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, *MODULE, *argv],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, start_new_session=True,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == EXIT_INCONCLUSIVE
        assert_group_gone(proc.pid)

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_verify_theorem_shared_pipe_closed_first(self, unbuffered):
        """`verify-theorem ... 2>&1 | true`: its whole output is a few bytes
        written at the end, so a reader that closes after the first line
        races the last write.  Here the reader is gone before the run starts,
        and the run exits 2 all the same."""
        env = buffered_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.Popen(
                [sys.executable, *MODULE, "verify-theorem", "--range", "1..99999", "--format", "json"],
                stdout=w, stderr=w, env=env, start_new_session=True,
            )
        finally:
            os.close(w)
        assert proc.wait(timeout=120) == EXIT_INCONCLUSIVE
        assert_group_gone(proc.pid)

    def test_closed_shared_pipe_in_process(self, monkeypatch):
        # main() itself returns 2 when stdout and stderr both lose their reader
        r, w = os.pipe()
        os.close(r)
        out, err = open(w, "w"), open(os.dup(w), "w", buffering=1)  # stderr is line-buffered
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        try:
            code = main(["sweep-bounds", "--range", "1..3"])
        finally:  # close both streams with whatever they still buffer
            null = os.open(os.devnull, os.O_WRONLY)
            for stream in (out, err):
                os.dup2(null, stream.fileno())
                stream.close()
            os.close(null)
        assert code == EXIT_INCONCLUSIVE

    def test_killed_worker_ends_the_run(self, tmp_path):
        # over 1..40 the 2-worker blocks hold 5 rows: [1, 5] and [11, 15] run
        # in the parent, [6, 10] and [16, 20] in the child, which is killed
        # from outside at n = 18
        out = tmp_path / "rows.json"
        argv = ["sweep-bounds", "--range", "1..40", "--format", "json", "--workers", "2"]
        code = f"""
            import os, signal, sys
            import log2lab.sweep as sweep
            from log2lab.bounds import compare_bounds
            from log2lab.cli import build_parser, main

            parent = os.getpid()

            def dying_in_a_child(n, *args, **kwargs):
                if n == 18 and os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return compare_bounds(n, *args, **kwargs)

            sweep.compare_bounds = dying_in_a_child
            os.sched_getaffinity = lambda pid: {{0, 1}}
            sys.exit(main({argv + ["--out", str(out)]!r}))
            """
        proc = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(code)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:  # the run hung: stop it and its workers
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        assert proc.returncode == EXIT_INTERNAL, err
        assert re.match(
            r"log2lab: internal error: worker process \d+ died before sending its rows "
            rf"\(killed by signal {int(signal.SIGKILL)}\)\n",
            err,
        ), err
        assert_group_gone(proc.pid)
        payload = json.loads(out.read_text())
        summary = payload[-1]["summary"]
        assert [row["n"] for row in payload[:-1]] == [str(n) for n in range(1, 16)]
        assert summary["checked"] == 15 and summary["truncated"] is True

    @pytest.mark.parametrize("name, command, fmt, workers", SIGNAL_CASES)
    def test_termination_signal_ends_the_run_as_an_interrupt(
        self, tmp_path, name, command, fmt, workers
    ):
        """``timeout -s TERM``, a closed terminal, Ctrl-C: the run stops with
        the interrupted line, exit 2 and a file that parses (a JSON array
        with its summary, or a CSV header and whole rows).  Every process
        holding the write end of a pipe passed to the command, its forked
        worker included, has exited once it has."""
        signum = getattr(signal, name, None)
        if signum is None:
            pytest.skip(f"no {name} here")
        out = tmp_path / f"rows.{fmt}"
        argv = [
            command, "--range", SIGNAL_RANGES[command], "--format", fmt,
            "--workers", str(workers), "--out", str(out),
        ]
        launcher = ["-c", "import os; os.sched_getaffinity = lambda pid: {0, 1}; "
                    "from log2lab.cli import run; run()"]
        r, w = os.pipe()
        try:
            proc = subprocess.Popen(
                [sys.executable, *launcher, *argv], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, env=cli_env(), start_new_session=True, pass_fds=(w,),
            )
        finally:
            os.close(w)
        try:
            # rows past the first 64-row block, which a 2-worker run writes
            # before its child is forked; verify-theorem writes a row only
            # for a failure, so it is given time past its first block once
            # its output is open
            deadline = time.monotonic() + 60
            lines = 0 if command == "verify-theorem" else 100
            while not out.exists() or out.read_bytes().count(b"\n") < lines:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            if not lines:
                time.sleep(0.3)
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=60)
            assert select.select([r], [], [], 10)[0] and os.read(r, 1) == b""
        finally:
            os.close(r)
            if proc.poll() is None:  # the run ignored the signal: stop it and its workers
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == EXIT_INCONCLUSIVE, err
        assert err.decode().endswith("interrupted: output file is truncated but valid\n")
        assert_group_gone(proc.pid)
        text = out.read_text()
        if fmt == "json":
            *rows, last = json.loads(text)
            summary = last["summary"]
            assert summary["truncated"] is True
            if command == "verify-theorem":
                assert summary["failures"] == len(rows) == 0 < summary["checked"]
            else:
                assert summary["checked"] == len(rows) >= 99
        else:
            header, *rows = text.split("\n")
            assert header.split(",") == SIGNAL_COLUMNS[command]
            assert rows.pop() == ""  # the file ends with a whole line
            assert all(len(row.split(",")) == len(SIGNAL_COLUMNS[command]) for row in rows)
            assert len(rows) >= (0 if command == "verify-theorem" else 99)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    @pytest.mark.parametrize(
        "argv, to_stdout",
        [
            (["sweep-bounds", "--range", "1..3", "--out", "/dev/full"], False),
            (["error-term", "--range", "1..3", "--format", "json", "--out", "/dev/full"], False),
            (["sweep-bounds", "--range", "1..3", "--workers", "2"], True),
            (["g-value", "3"], True),
        ],
        ids=["out-csv", "out-json", "stdout-sweep", "stdout-g-value"],
    )
    def test_unwritable_output_is_one_line(self, argv, to_stdout):
        # a write that fails for want of space: exit 4 with the OS error on
        # one stderr line, and no traceback
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, *MODULE, *argv], stdout=full if to_stdout else subprocess.PIPE,
                stderr=subprocess.PIPE, env=buffered_env(), timeout=120,
            )
        assert done.returncode == EXIT_INTERNAL
        assert done.stderr.decode() == (
            f"log2lab: system error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        )

    @pytest.mark.parametrize(
        "argv, code, out_made",
        [
            (["sweep-bounds", "--range", "1..40", "--format", "json", "--workers", "2"], EXIT_OK, True),
            (["error-term", "--range", "1..40", "--format", "json"], EXIT_OK, True),
            (["verify-theorem", "--range", "1..999", "--format", "json"], EXIT_OK, True),
            (["verify-theorem", "--range", "1..999"], EXIT_OK, False),
            (["g-value", "100"], EXIT_OK, False),
            (["sweep-bounds", "--range", "5..1", "--format", "json"], EXIT_USAGE, False),
        ],
    )
    def test_module_exit_matches_in_process_main(self, tmp_path, argv, code, out_made):
        """``python -m log2lab.cli`` leaves by os._exit: every byte of stdout,
        stderr and --out, and the exit code, are those of main() in process."""
        results = {}
        for name, launcher in (("module", MODULE), ("main", IN_PROCESS)):
            out = tmp_path / f"{name}.out"
            full = argv + ["--out", str(out)] if out_made or code == EXIT_USAGE else argv
            done = run_launched(launcher, full)
            assert done.returncode == code, done.stderr
            assert out.exists() == out_made
            if out_made and "json" in argv:
                json.loads(out.read_text())
            results[name] = done.stdout, done.stderr, out.read_bytes() if out_made else None
        assert results["module"] == results["main"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_internal_error_exit_matches_in_process_main(self, tmp_path, workers):
        # the same failing row under cli.run (the module's __main__ block) and
        # under main(), traceback and truncated --out included
        argv = ["sweep-bounds", "--range", "1..40", "--format", "json", "--workers", str(workers)]
        launchers = {
            "module": FAILING_AT_13 + "import runpy\nrunpy.run_module('log2lab.cli', run_name='__main__')\n",
            "main": FAILING_AT_13 + "from log2lab.cli import main\nsys.exit(main())\n",
        }
        results = {}
        for name, code in launchers.items():
            out = tmp_path / f"{name}.json"
            done = run_launched(["-c", code], argv + ["--out", str(out)])
            assert done.returncode == EXIT_INTERNAL, done.stderr
            assert done.stderr.startswith(b"log2lab: internal error: row failed at n=13\n")
            payload = json.loads(out.read_text())
            assert payload[-1]["summary"]["truncated"] is True
            results[name] = done.stdout, done.stderr, out.read_bytes()
        assert results["module"] == results["main"]

    def test_failed_final_flush_is_a_closed_reader(self):
        # g-value's line stays buffered until cli.run flushes it, into a pipe
        # whose reader is already gone
        r, w = os.pipe()
        os.close(r)
        try:
            done = subprocess.run(
                [sys.executable, *MODULE, "g-value", "100"],
                stdout=w, stderr=subprocess.PIPE, env=buffered_env(), timeout=120,
            )
        finally:
            os.close(w)
        assert done.returncode == EXIT_INCONCLUSIVE
        assert done.stderr.decode() == CLOSED_BY_READER

    def test_precision_over_ceiling_rejected_before_output(self, tmp_path, capsys):
        # the row's finest part, the log under G, needs 9 bits over --bits at n = 3
        p_max = MAX_PRECISION_BITS - 9
        assert g_cost(3, _part_precision(p_max, _ROW_PARTS))[0] == MAX_PRECISION_BITS
        out = tmp_path / "e2.json"
        argv = ["error-term", "--range", "1..3", "--format", "json", "--out", str(out)]
        assert main(argv + ["--bits", str(p_max + 1)]) == EXIT_USAGE
        assert "above the ceiling of 16384 bits" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["error-term"])
    def test_range_over_work_ceiling_rejected_before_output(self, tmp_path, capsys, command):
        # G(40000000) at a row's part precision is past the work ceiling
        assert g_cost(40_000_000, _part_precision(64, _ROW_PARTS))[1] > WORK_CEILING
        out = tmp_path / "rows.json"
        argv = [command, "--range", "40000000..40000001", "--format", "json", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "above the work ceiling" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_bounds_has_no_work_ceiling(self, tmp_path, capsys):
        # a compared row runs no G(n), so sweep-bounds takes a range that
        # error-term rejects before it opens --out
        argv = ["--range", "1000000000000..1000000000000", "--format", "json"]
        out = tmp_path / "rows.json"
        assert main(["error-term", *argv, "--out", str(out)]) == EXIT_USAGE
        assert "above the work ceiling" in capsys.readouterr().err
        assert not out.exists()
        assert main(["sweep-bounds", *argv, "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert "checked=1 of 1 rows at p=64" in err
        payload = json.loads(out.read_text())
        row, summary = payload[0], payload[-1]["summary"]
        assert summary["checked"] == 1 and summary["truncated"] is False
        assert row["n"] == "1000000000000" and row["verdict_robbins"] == "Holds"
        lo, hi = Fraction(row["log2_fact_lo"]), Fraction(row["log2_fact_hi"])
        assert 0 < hi - lo <= Fraction(1, 1 << int(row["precision_bits"]))

    def test_verify_theorem_has_no_work_ceiling(self, tmp_path):
        # verify-theorem computes no G(n), so a range that the other
        # commands reject at this precision still runs
        cfg = SweepConfig(n_lo=300_001, n_hi=300_001, precision_bits=16_000, output_format="json")
        assert g_cost(cfg.n_hi, _part_precision(cfg.precision_bits, _ROW_PARTS))[1] > WORK_CEILING
        code, out, _ = run_to_files(run_verify_theorem, cfg, tmp_path, "verify.json")
        assert code == EXIT_OK
        summary = json.loads(out.read_text())[-1]["summary"]
        assert summary["checked"] == 1 and summary["truncated"] is False

    def test_verify_theorem_over_oracle_work_rejected_before_output(
        self, tmp_path, capsys, monkeypatch
    ):
        # the first odd a of the range would make the oracles enumerate every
        # m up to 10^12; the range is rejected before --out is opened, and an
        # oracle that ran would fail the test at once
        def enumerated(*args):
            raise AssertionError("an enumeration oracle ran")

        monkeypatch.setattr(sweep_mod, "even_count_oracle", enumerated)
        monkeypatch.setattr(sweep_mod, "pair_enumeration_oracle", enumerated)
        out = tmp_path / "v.csv"
        argv = ["verify-theorem", "--range", "1000000000001..1000000000001", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "above the work ceiling" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_accepted_precision_runs(self, tmp_path, capsys):
        # every part of rows 1 and 2 is exact, so the run is quick, but each
        # still passes its precision through the ceiling check
        p_max = MAX_PRECISION_BITS - 8
        assert g_cost(2, _part_precision(p_max, _ROW_PARTS))[0] == MAX_PRECISION_BITS
        out = tmp_path / "e2.json"
        argv = ["error-term", "--range", "1..2", "--format", "json", "--out", str(out)]
        assert main(argv + ["--bits", str(p_max + 1)]) == EXIT_USAGE
        assert not out.exists()
        assert main(argv + ["--bits", str(p_max)]) == EXIT_OK
        capsys.readouterr()
        summary = json.loads(out.read_text())[-1]["summary"]
        assert summary["checked"] == 2 and summary["all_contained"] is True

    def test_range_commands_skip_numpy(self):
        code = (
            "import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from log2lab.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    assert main(['sweep-bounds', '--range', '3..5']) == 0\n"
            "    assert main(['error-term', '--range', '3..5']) == 0\n"
            "    assert main(['verify-theorem', '--range', '3..99']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=120
        )
        assert done.returncode == 0, done.stderr

    def test_decimals_past_int_str_digit_limit(self, tmp_path, capsys):
        out = tmp_path / "e2.csv"
        code = main(["error-term", "--range", "1..3", "--bits", "4300", "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["contains"] for r in rows] == ["true"] * 3
        lo, hi = (Fraction(Decimal(rows[2][f"e2_{side}"])) for side in ("lo", "hi"))
        assert len(rows[2]["e2_lo"]) > 4300 and lo <= 1 <= hi

    def test_linear_display_capped_at_20(self, tmp_path, capsys):
        out = tmp_path / "lin.csv"
        code = main(
            ["sweep-bounds", "--range", "18..23", "--bits", "53", "--linear",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "linear n=18:" in err and "linear n=20:" in err
        assert "linear n=21:" not in err
        assert "n! = 2432902008176640000" in err  # 20! rendered exactly


    def test_linear_display_past_int_str_digit_limit(self, capsys):
        # row 1 escalates to p = 4800 here, so its decimals have more digits
        # than Python converts to int by default
        argv = ["sweep-bounds", "--range", "1..1", "--bits", "300", "--linear"]
        assert main(argv + ["--ramanujan-b", "closed-form"]) == EXIT_INCONCLUSIVE
        out, err = capsys.readouterr()
        assert out.splitlines()[1].startswith("1,4800,")
        assert "linear n=1: n! = 1, paper_lb ~ 1, robbins ~ [0.92213701, 1.0022744]" in err


class TestPoolSize:
    """A run uses at most one worker per row and per CPU, and forks none for
    a single one."""

    @pytest.fixture
    def started(self, monkeypatch):
        started: list[int] = []

        def recording(block, blocks, workers):
            # runs the blocks in this process, so no child is ever forked
            started.append(workers)
            return (block(items) for items in blocks)

        monkeypatch.setattr(workers_mod, "forked_map", recording)
        set_cpus(monkeypatch, 64)
        return started

    def test_one_row_starts_no_pool(self, started, capsys):
        assert main(["sweep-bounds", "--range", "1..1", "--workers", "64"]) == EXIT_OK
        capsys.readouterr()
        assert started == []

    @pytest.mark.parametrize(("hi", "workers", "expected"), [(5, 64, [3]), (99, 2, [2]), (2, 2, [])])
    def test_pool_size_is_capped_by_rows(self, started, tmp_path, hi, workers, expected):
        cfg = SweepConfig(n_lo=1, n_hi=hi, workers=workers)
        code, _, report = run_to_files(run_verify_theorem, cfg, tmp_path, "v.csv")
        assert code == EXIT_OK and "failures=0" in report
        assert started == expected

    @pytest.mark.parametrize(("cpus", "expected"), [(2, [2]), (1, []), (None, [])])
    def test_pool_size_is_capped_by_cpus(self, started, tmp_path, monkeypatch, cpus, expected):
        # a platform with no affinity mask counts os.cpu_count(), which may be None
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = SweepConfig(n_lo=1, n_hi=99, workers=64)
        code, _, report = run_to_files(run_verify_theorem, cfg, tmp_path, "v.csv")
        assert code == EXIT_OK and "failures=0" in report
        assert started == expected

    @pytest.mark.parametrize(("cpus", "expected"), [(2, [2]), (1, [])])
    def test_pool_size_is_capped_by_affinity(self, started, tmp_path, monkeypatch, cpus, expected):
        # taskset or a cpuset leaves this process fewer CPUs than the machine has
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        set_cpus(monkeypatch, cpus)
        cfg = SweepConfig(n_lo=1, n_hi=99, workers=64)
        code, _, report = run_to_files(run_verify_theorem, cfg, tmp_path, "v.csv")
        assert code == EXIT_OK and "failures=0" in report
        assert started == expected


class TestForkedWorkers:
    """k workers are this process and k - 1 forked children, dealt blocks in
    turn; the bytes never depend on k."""

    def test_outputs_agree_over_worker_counts(self, capsys, monkeypatch):
        set_cpus(monkeypatch, 4)
        commands = [
            ["sweep-bounds", "--range", "1..300", "--format", "json"],
            ["verify-theorem", "--range", "1..2001"],
        ]
        for argv in commands:
            runs = []
            for workers in (1, 2, 3, 4):
                code = main(argv + ["--workers", str(workers)])
                runs.append((code, *capsys.readouterr()))
            assert runs[0][0] == EXIT_OK and runs[0][2].startswith("checked=")
            assert runs[1:] == [runs[0]] * 3, argv

    def test_without_fork_blocks_run_in_process(self, tmp_path, monkeypatch):
        set_cpus(monkeypatch, 2)
        cfg = SweepConfig(n_lo=1, n_hi=60, precision_bits=64, output_format="json")
        _, out1, rep1 = run_to_files(run_bounds_sweep, cfg, tmp_path, "w1.json")
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(workers_mod, "forked_map", None)  # a fan-out would fail
        _, out2, rep2 = run_to_files(run_bounds_sweep, replace(cfg, workers=2), tmp_path, "w2.json")
        assert out2.read_bytes() == out1.read_bytes()
        assert rep2 == rep1
