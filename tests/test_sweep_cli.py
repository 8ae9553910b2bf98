"""Sweep harness and CLI: schema, determinism, exit codes, output contracts."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import log2lab
import log2lab.sweep as sweep_mod
from log2lab.cli import main
from log2lab.sweep import (
    BOUNDS_CSV_COLUMNS,
    ERROR_TERM_CSV_COLUMNS,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    SweepConfig,
    UsageError,
    run_bounds_sweep,
    run_error_term,
    run_verify_theorem,
)

DECIMAL_RE = re.compile(r"^-?\d+(\.\d+)?$")

_ERROR_TERM_PAYLOAD = sweep_mod._error_term_payload


def _error_term_payload_failing_at_2(config, n):
    # module level, so that worker processes can unpickle it
    if n == 2:
        raise RuntimeError("payload failed at n=2")
    return _ERROR_TERM_PAYLOAD(config, n)


def run_to_files(runner, config, tmp_path, name):
    out = tmp_path / name
    config = replace(config, output_path=str(out))
    report = io.StringIO()
    code = runner(config, report_stream=report)
    return code, out, report.getvalue()


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
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(UsageError):
            SweepConfig(**kwargs).validate()

    def test_parity_filter(self):
        cfg = SweepConfig(n_lo=1, n_hi=10, parity="odd")
        assert cfg.ns() == [1, 3, 5, 7, 9]
        assert SweepConfig(n_lo=2, n_hi=2, parity="odd").ns() == []


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
        real = sweep_mod._bounds_payload

        def sabotaged(config, n):
            payload = real(config, n)
            payload["fields"]["verdict_paper"] = "Violated"
            payload["meta"]["statuses"]["paper"] = "Violated"
            return payload

        monkeypatch.setattr(sweep_mod, "_bounds_payload", sabotaged)
        cfg = SweepConfig(n_lo=3, n_hi=3, precision_bits=53)
        code, _, report = run_to_files(run_bounds_sweep, cfg, tmp_path, "bad.csv")
        assert code == EXIT_VIOLATION
        assert "verdict_violated" in report and '"bound":"paper"' in report

    def test_interrupt_leaves_valid_truncated_json(self, tmp_path, monkeypatch):
        real = sweep_mod._bounds_payload

        def interrupting(config, n):
            if n >= 4:
                raise KeyboardInterrupt
            return real(config, n)

        monkeypatch.setattr(sweep_mod, "_bounds_payload", interrupting)
        cfg = SweepConfig(n_lo=1, n_hi=10, precision_bits=53, output_format="json")
        code, out, _ = run_to_files(run_bounds_sweep, cfg, tmp_path, "trunc.json")
        assert code == EXIT_INCONCLUSIVE
        payload = json.loads(out.read_text())
        assert payload[-1]["summary"]["truncated"] is True
        assert len(payload) == 4  # three complete rows plus the summary

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

    def test_containment_failure_exits_one(self, tmp_path, monkeypatch):
        real = sweep_mod._error_term_payload

        def sabotaged(config, n):
            payload = real(config, n)
            if n == 5:
                payload["fields"]["contains"] = "false"
                payload["meta"]["contains"] = False
            return payload

        monkeypatch.setattr(sweep_mod, "_error_term_payload", sabotaged)
        cfg = SweepConfig(n_lo=1, n_hi=8, precision_bits=53)
        code, _, report = run_to_files(run_error_term, cfg, tmp_path, "bad.csv")
        assert code == EXIT_VIOLATION
        assert "excluded neighbors: false" in report


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
    def test_resource_limit_mid_run_leaves_valid_truncated_json(self, tmp_path, capsys, workers):
        # --bits passes validation, but the enclosures of row 2 need a few
        # bits more than the 16384-bit ceiling; with 2 workers row 1 shares
        # a Pool.imap chunk with row 2 and must still be written
        out = tmp_path / "e2.json"
        argv = ["error-term", "--range", "1..3", "--bits", "16380", "--format", "json"]
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
            with pytest.raises(RuntimeError, match="payload failed at n=2") as raised:
                main(argv + ["--workers", str(w), "--out", str(outs[w])])
        capsys.readouterr()
        if workers > 1:  # the worker's traceback travels with the error
            assert "_error_term_payload_failing_at_2" in str(raised.value.__cause__)
        payload = json.loads(outs[workers].read_text())
        summary = payload[-1]["summary"]
        assert summary["truncated"] is True
        assert summary["checked"] == 1
        assert [row["n"] for row in payload[:-1]] == ["1"]
        assert outs[workers].read_bytes() == outs[1].read_bytes()

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
        src = str(Path(log2lab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
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
