"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight bound sweep
over [1, 5000] runs once as a fixture and is shared by criteria 5, 7, 8; the
determinism criterion re-runs it with a different worker count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from log2lab.bounds import ramanujan_b_agreement
from log2lab.dyadic import DyadicRational
from log2lab.enclosures import (
    log2_factorial_by_factorial,
    log2_factorial_enclosure,
    log2_fraction,
)
from log2lab.exact import (
    binary_digit_sum,
    even_count_oracle,
    odd_floor_sum,
    pair_enumeration_oracle,
)
from log2lab.sweep import EXIT_OK, SweepConfig, run_bounds_sweep, run_error_term

from conftest import floor_sum_by_blocks, log2_factorial_running, power_of_two_ratio


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL — {description}")
        raise
    print(f"CRITERION {number}: PASS — {description}")


@pytest.fixture(scope="module")
def full_sweep(tmp_path_factory):
    """Criterion 5's sweep: n in [1, 5000] at p = 64, two workers."""
    out = tmp_path_factory.mktemp("acceptance") / "sweep_w2.csv"
    config = SweepConfig(
        n_lo=1, n_hi=5000, precision_bits=64, workers=2, output_path=str(out)
    )
    report = io.StringIO()
    code = run_bounds_sweep(config, report_stream=report)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {"path": out, "code": code, "rows": rows, "report": report.getvalue()}


def test_criterion_1_theorem_identity_exhaustive():
    with criterion(1, "theorem identity: exhaustive odd a <= 1e5 plus 100 random large a"):
        even = pair = 0
        for a in range(1, 100_001, 2):
            expected = (a - 1) // 2
            # the oracles' counts up to a, added up from the m each odd a adds
            lo = max(a - 2, 1)
            even += even_count_oracle(a, lo)
            pair += pair_enumeration_oracle(a, lo)
            assert odd_floor_sum(a) == expected, a
            assert even == expected, a
            assert pair == expected, a
        rng = random.Random(0xA5EED)
        for _ in range(100):
            a = rng.randrange(100_001, 10_000_001, 2)
            assert odd_floor_sum(a) == (a - 1) // 2, a


def test_criterion_2_all_index_closed_form():
    with criterion(2, "all-index floor sum equals a - s2(a) for every a <= 1e4"):
        for a in range(1, 10_001):
            assert floor_sum_by_blocks(a) == a - binary_digit_sum(a), a


def test_criterion_3_interval_contracts():
    with criterion(3, "width/nesting/exact-zero contracts on 1000 random (a, j, p)"):
        rng = random.Random(0xC0FFEE)
        cases = [(8, 1), (6, 3), (1 << 20, 1 << 9), (96, 3)]
        while len(cases) < 1000:
            a = rng.randrange(1, 10**6)
            cases.append((a, rng.randrange(1, a + 1)))
        for a, j in cases:
            p = rng.choice([16, 53, 128])
            iv = log2_fraction(Fraction(a, j), p)
            finer = log2_fraction(Fraction(a, j), p + 32)
            assert iv.width_within(p), (a, j, p)
            assert iv.contains_interval(finer), (a, j, p)
            pk = power_of_two_ratio(a, j)
            if pk is not None:
                assert iv.is_point() and iv.lo == DyadicRational(pk), (a, j)
            else:
                assert not iv.is_point(), (a, j)


def test_criterion_4_factorial_oracle_equivalence():
    with criterion(4, "factorial, Stirling-series and summed-logs enclosures intersect, n <= 2000"):
        # log2_factorial_enclosure takes the Stirling series from n = 128 on
        running = dict(log2_factorial_running(2000, 64))
        for n in range(1, 2001):
            direct = log2_factorial_by_factorial(n, 64)
            routed = log2_factorial_enclosure(n, 64)
            for iv in (direct, routed, running[n]):
                assert iv.width_within(64), n
            assert direct.intersects(running[n]), n
            assert routed.intersects(direct) and routed.intersects(running[n]), n


def test_criterion_5_paper_bound_sweep(full_sweep):
    with criterion(5, "sweep [1, 5000] at p=64: paper bound never Violated, equality at s2=1"):
        assert full_sweep["code"] == EXIT_OK
        rows = full_sweep["rows"]
        assert len(rows) == 5000
        for row in rows:
            n = int(row["n"])
            assert row["verdict_paper"] == "Holds", n
            assert row["equality_flag"] == (
                "true" if binary_digit_sum(n) == 1 else "false"
            ), n


# SHA-256 of the n, s2, verdict and equality columns of criterion 5's sweep,
# one comma-joined line per row: a change to the emitted interval bits must
# leave every one of these columns as it is
VERDICT_COLUMNS = (
    "n", "s2", "verdict_paper", "verdict_robbins", "verdict_ramanujan", "equality_flag"
)
VERDICT_COLUMNS_SHA256 = "50fcf108ac5e00b14e2f39167364b1663c5fc83d024318306fdc544574a79f5f"


def test_criterion_5_verdict_columns_pinned(full_sweep):
    with criterion(5, "sweep [1, 5000] at p=64: verdict and equality columns match the pinned digest"):
        lines = "".join(
            ",".join(row[c] for c in VERDICT_COLUMNS) + "\n" for row in full_sweep["rows"]
        )
        assert hashlib.sha256(lines.encode()).hexdigest() == VERDICT_COLUMNS_SHA256


# SHA-256 of the whole CSV of criterion 5's sweep (the same bytes as the stdout
# of `log2lab sweep-bounds --range 1..5000 --bits 64`) and of its report (the
# command's stderr, whose findings render the Violated certificates in the
# worker that computed the row): every emitted byte is pinned.  Both were
# re-taken when the Robbins and Ramanujan sides came to share one Stirling
# base per attempt: 184 side intervals narrowed inside the old ones, n = 4939
# settles at p = 64 instead of escalating to p = 128, and 35 Violated
# certificates and the escalation count on stderr changed with them.  They
# were re-taken again when every side part but log2(2 pi) / 2 came to be
# taken at the attempt's log2 n precision: 153 side intervals on 149 rows
# narrowed inside the old ones, and 65 Violated certificates changed with
# them; no precision, escalation count or verdict changed.  They were
# re-taken a third time when the sides came to add their corrections to the
# Stirling base of the attempt's log2 n!, whose log2(2 pi) / 2 is up to 2
# bits finer: 19 side intervals on 19 rows narrowed inside the old ones, and 3
# Violated certificates changed with them; no precision, escalation count,
# verdict or other column changed
FULL_SWEEP_SHA256 = "fe7d6dcfdbe98783e27392cfd3eda5ebf7856daff1b9cd81707c3eb520f46b55"
FULL_SWEEP_REPORT_SHA256 = "d3f07055fd9b86c5773ba01b8aceb0b69d0e06472c0f9bfe9483988800bdb43b"


def test_criterion_5_every_byte_pinned(full_sweep):
    with criterion(5, "sweep [1, 5000] at p=64: output and report bytes match the pinned digests"):
        assert hashlib.sha256(full_sweep["path"].read_bytes()).hexdigest() == FULL_SWEEP_SHA256
        report = full_sweep["report"].encode()
        assert hashlib.sha256(report).hexdigest() == FULL_SWEEP_REPORT_SHA256


def test_criterion_6_error_term_characterization(tmp_path):
    with criterion(6, "e2(n) pins s2(n)-1 for n <= 2000 at p=128; max e2 = max digit sum - 1"):
        out = tmp_path / "e2.csv"
        config = SweepConfig(
            n_lo=1, n_hi=2000, precision_bits=128, output_path=str(out), workers=2
        )
        report = io.StringIO()
        code = run_error_term(config, report_stream=report)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2000
        for row in rows:
            n = int(row["n"])
            target = binary_digit_sum(n) - 1
            assert int(row["s2_minus_1"]) == target
            assert row["contains"] == "true", n
            lo, hi = Fraction(row["e2_lo"]), Fraction(row["e2_hi"])
            assert lo <= target <= hi, n
            assert hi - lo <= Fraction(1, 1 << 128), n
        max_digit_sum = max(binary_digit_sum(n) for n in range(1, 2001))
        reported = max(int(row["s2_minus_1"]) for row in rows)
        assert reported == max_digit_sum - 1 == 9
        assert "max e2 at n=1023 (s2-1 = 9)" in report.getvalue()


def test_criterion_7_robbins_sandwich(full_sweep):
    with criterion(7, "both Robbins verdicts Hold for every n <= 5000"):
        for row in full_sweep["rows"]:
            assert row["verdict_robbins"] == "Holds", row["n"]


def test_criterion_8_ramanujan_conclusive_with_findings(full_sweep):
    with criterion(8, "Ramanujan verdicts conclusive for n <= 2000; violations recorded"):
        violated_ns = []
        for row in full_sweep["rows"]:
            n = int(row["n"])
            if n > 2000:
                break
            verdict = row["verdict_ramanujan"]
            assert verdict in ("Holds", "Violated"), n
            if verdict == "Violated":
                violated_ns.append(n)
                # the row itself carries the interval certificate
                assert Fraction(row["ramanujan_lo_lo"]) <= Fraction(row["ramanujan_lo_hi"])
        # the verbatim a = 39/54 makes the lower bound overshoot n! everywhere
        # in this range; that is the documented finding, not a suite failure
        assert violated_ns, "expected at least one recorded violation"
        report = full_sweep["report"]
        assert '"bound":"ramanujan_lower"' in report
        assert "ramanujan_b_disagreement" in report
        assert not ramanujan_b_agreement(64).agree


def test_criterion_9_determinism_across_worker_counts(full_sweep, tmp_path):
    with criterion(9, "byte-identical CSV between 1-worker and 2-worker sweeps"):
        out = tmp_path / "sweep_w1.csv"
        config = SweepConfig(
            n_lo=1, n_hi=5000, precision_bits=64, workers=1, output_path=str(out)
        )
        code = run_bounds_sweep(config, report_stream=io.StringIO())
        assert code == EXIT_OK
        assert out.read_bytes() == full_sweep["path"].read_bytes()
