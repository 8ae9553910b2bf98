"""Traced runs: span-recording wrappers around log2lab's public functions.

Run as a child process from the root of a checkout, with ``src`` on
PYTHONPATH:

    python3 perfbench/tracing.py window --workload sweep-w1 --range 3004..3131 --out F
    python3 perfbench/tracing.py probes --workload verify --seed 1 --out F

``window`` runs one window in-process through the workload's public runner
(``run_bounds_sweep``, ``run_error_term`` or ``run_verify_theorem``) with one
worker and every wrapper installed.  ``probes`` times the log core and the
constants on a seeded set of inputs, then traces a few rows of each other
runner, so that a layer the workload never reaches is still measured.

Wrappers are installed where callers look the functions up (``log2lab.sweep``
for the runner's calls, ``log2lab.bounds`` for the enclosures, the classes for
the dyadic rendering methods), so nothing under ``src/`` changes.  A span is
``[name, start, end, parent, ident, attrs]``: ``parent`` indexes the enclosing
span (-1 at top level) and ``ident`` is the n (or odd a) of the row being
computed.  Spans stay in memory and are written out when the child ends.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import random
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

from workloads import WORKLOADS

RENDER_SPANS = ("dyadic.round_outward", "dyadic.decimal_str")
ROW_SPANS = ("bounds.compare_bounds", "bounds.error_term_e2", "exact.odd_floor_sum")
# runner -> (workload whose band and precision a probe uses, rows probed)
PROBES = {
    "sweep": (WORKLOADS["sweep-w1"], 8),
    "errterm": (WORKLOADS["errterm-p1024"], 8),
    "verify": (WORKLOADS["verify"], 64),
}
# calls per precision: one log2_fraction at p=4096 takes ~0.1 s
LOG_CORE_CALLS = {64: 200, 256: 40, 1024: 8, 4096: 3}
CONSTANT_REPEATS = 3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ident: int | None = None

    def wrap(self, name: str, fn, attrs=None):
        """fn, recording one span per call; row spans set the identifier."""
        row = name in ROW_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if row:
                self._ident = args[0]
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._ident, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[5] = attrs(result)
            return result

        return traced


def _row_attrs(row) -> dict:
    return {"escalations": row.escalations, "verdicts": len(row.verdicts)}


def install(tracer: Tracer) -> None:
    """Replace each public function at the place its callers look it up."""
    from log2lab import bounds, enclosures, sweep
    from log2lab.dyadic import DyadicInterval, DyadicRational

    targets = [
        (sweep, "compare_bounds", "bounds.compare_bounds", _row_attrs),
        (sweep, "error_term_e2", "bounds.error_term_e2", None),
        (sweep, "ramanujan_b_agreement", "bounds.ramanujan_b_agreement", None),
        (sweep, "odd_floor_sum", "exact.odd_floor_sum", None),
        (sweep, "even_count_oracle", "exact.even_count_oracle", None),
        (sweep, "pair_enumeration_oracle", "exact.pair_enumeration_oracle", None),
        (bounds, "robbins_bounds_log2", "bounds.robbins", None),
        (bounds, "ramanujan_bounds_log2", "bounds.ramanujan", None),
        (bounds, "G_enclosure", "enclosures.G", None),
        (bounds, "log2_factorial_enclosure", "enclosures.log2_factorial", None),
        (bounds, "log2_int_enclosure", "enclosures.log2_int", None),
        (bounds, "log2_fraction", "enclosures.log2_fraction", None),
        (enclosures, "log2_fraction", "enclosures.log2_fraction", None),
        (DyadicInterval, "round_outward", "dyadic.round_outward", None),
        (DyadicRational, "decimal_str", "dyadic.decimal_str", None),
    ]
    for owner, attr, name, attrs in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))


def run_traced(tracer: Tracer, runner: str, window: tuple[int, int], bits: int | None) -> dict:
    """One window through the public runner, one worker; spans go to tracer."""
    from log2lab import SweepConfig, run_bounds_sweep, run_error_term, run_verify_theorem

    fn = {"sweep": run_bounds_sweep, "errterm": run_error_term, "verify": run_verify_theorem}[runner]
    config = SweepConfig(n_lo=window[0], n_hi=window[1], precision_bits=bits or 64, workers=1)
    out, report = io.StringIO(), io.StringIO()
    tracer.spans = []
    code = tracer.wrap("sweep.run", fn)(config, out, report)
    findings = sum('"type":"verdict_violated"' in line for line in report.getvalue().splitlines())
    return {
        "window": list(window),
        "rows": len(replace(config, parity="odd").ns() if runner == "verify" else config.ns()),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "violated_findings": findings,
        "spans": tracer.spans,
    }


def _non_dyadic_rationals(seed: int, count: int) -> list[Fraction]:
    rng = random.Random(f"log-core:{seed}")
    out = []
    while len(out) < count:
        fr = Fraction(rng.getrandbits(62) | 1, rng.getrandbits(62) | 1)
        if fr.numerator != 1 or fr.denominator != 1:
            out.append(fr)
    return out


def log_core_us(seed: int) -> dict[int, float]:
    """Median microseconds of one log2_fraction at each precision."""
    from log2lab import log2_fraction

    result = {}
    for p, count in LOG_CORE_CALLS.items():
        times = []
        for fr in _non_dyadic_rationals(seed, count):
            t0 = time.perf_counter()
            log2_fraction(fr, p)
            times.append(time.perf_counter() - t0)
        result[p] = statistics.median(times) * 1e6
    return result


def constants_ms(p: int) -> float:
    """First-call cost of the named constants at precision p, caches cleared."""
    from log2lab import bounds, enclosures

    cached = [
        enclosures.ln2_interval, enclosures.pi_interval, enclosures.e_interval,
        enclosures.log2_e_interval, enclosures.log2_pi_interval,
        bounds.ramanujan_b_printed, bounds.ramanujan_b_closed_form,
    ]
    first_calls = cached[:5] + [bounds.ramanujan_b_agreement]
    samples = []
    for _ in range(CONSTANT_REPEATS):
        for fn in cached:
            fn.cache_clear()
        t0 = time.perf_counter()
        for fn in first_calls:
            fn(p)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


# -- analysis, in the parent ---------------------------------------------------


def summarize(spans: list[list]) -> dict:
    """Per span name: call count, inclusive and self seconds, summed attrs."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, t0, t1, parent, _, attrs) in enumerate(spans):
        s = out[name]
        s["count"] += 1
        s["total"] += t1 - t0
        s["self"] += t1 - t0 - child[i]
        if name in RENDER_SPANS and (parent < 0 or spans[parent][0] not in RENDER_SPANS):
            out["dyadic.render"]["count"] += 1
            out["dyadic.render"]["total"] += t1 - t0
        for key, value in (attrs or {}).items():
            s[key] += value
    return out


def merge(summaries: list[dict]) -> dict:
    out: dict = defaultdict(lambda: defaultdict(float))
    for summary in summaries:
        for name, stats in summary.items():
            for key, value in stats.items():
                out[name][key] += value
    return out


def layer_metrics(stats: dict, rows: int, violated_findings: int) -> dict[str, float | None]:
    """Per-layer metrics of one traced phase; None where the layer did not run."""

    def get(name, key, per):
        s = stats.get(name)
        if not s or not s["count"]:
            return None
        denom = {"row": rows, "call": s["count"]}[per]
        scale = 1e3 if key in ("total", "self") else 1.0
        return s[key] * scale / denom

    cb = stats.get("bounds.compare_bounds")
    verdicts = cb["verdicts"] if cb else 0
    return {
        "sweep.self_ms_per_row": get("sweep.run", "self", "row"),
        "sweep.certificate_use_ratio": (
            violated_findings / verdicts if verdicts else None
        ),
        "bounds.compare_bounds.self_ms_per_row": get("bounds.compare_bounds", "self", "row"),
        "bounds.robbins.ms_per_row": get("bounds.robbins", "total", "row"),
        "bounds.ramanujan.ms_per_row": get("bounds.ramanujan", "total", "row"),
        "bounds.escalations_per_row": get("bounds.compare_bounds", "escalations", "row"),
        "bounds.error_term_e2.self_ms_per_row": get("bounds.error_term_e2", "self", "row"),
        "enclosures.G.ms_per_call": get("enclosures.G", "total", "call"),
        "enclosures.G.calls_per_row": get("enclosures.G", "count", "row"),
        "enclosures.log2_factorial.ms_per_call": get("enclosures.log2_factorial", "total", "call"),
        "enclosures.log2_int.ms_per_call": get("enclosures.log2_int", "total", "call"),
        "enclosures.log2_int.calls_per_row": get("enclosures.log2_int", "count", "row"),
        "enclosures.log2_fraction.ms_per_call": get("enclosures.log2_fraction", "total", "call"),
        "dyadic.render.ms_per_row": get("dyadic.render", "total", "row"),
        "dyadic.decimal_str.calls_per_row": get("dyadic.decimal_str", "count", "row"),
        "exact.odd_floor_sum.ms_per_call": get("exact.odd_floor_sum", "total", "call"),
        "exact.even_count_oracle.ms_per_call": get("exact.even_count_oracle", "total", "call"),
        "exact.pair_enumeration_oracle.ms_per_call": get("exact.pair_enumeration_oracle", "total", "call"),
    }


# -- child entry point ---------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("window", "probes"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--range", metavar="LO..HI")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = Tracer()
    if args.mode == "window":
        lo, hi = (int(x) for x in args.range.split(".."))
        install(tracer)
        result = run_traced(tracer, workload.runner, (lo, hi), workload.bits)
    else:
        result = {
            "log2_core_us": log_core_us(args.seed),
            "constants_ms": constants_ms(workload.precision),
        }
        install(tracer)
        result["phases"] = {
            runner: run_traced(tracer, runner, w.band.probe(args.seed, rows), w.bits)
            for runner, (w, rows) in PROBES.items()
            if runner != workload.runner
        }
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
