"""Measure the benchmark's spread over seeds, and optionally rewrite baseline.json.

From the root of a checkout:

    python3 perfbench/baseline.py --seeds 201-210                # print spreads only
    python3 perfbench/baseline.py --seeds 201-210 --write        # also traced runs, baseline.json

With ``--write`` the measured workloads replace their entries in
baseline.json; entries of other workloads in BENCHMARK.json stay, and
entries of workloads no longer in it are dropped.

Each (workload, seed) is one ``run.py --trace 0`` process, run in turn.  The
spread of a metric is the distance between the first and third quartile of
its values (``statistics.quantiles(values, n=4)``) as a share of their median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
    result = json.loads(out.decode().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed the check")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def band_text(w: Workload) -> str:
    b = w.band
    last_start = b.lo + (b.count() - b.size) * (2 if b.odd else 1)
    what = "odd a" if b.odd else "n"
    return (f"window of {b.size} consecutive {what} starting in {b.lo}..{last_start}, "
            f"inside {b.lo}..{b.hi}")


def command_text(w: Workload) -> str:
    return " ".join(["python", *w.argv((0, 0))[1:]]).replace("0..0", "LO..HI")


def machine() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
         if line.startswith("model name")), platform.processor(),
    )
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 201-210")
    parser.add_argument("--workloads", nargs="*", help="default: the workloads of BENCHMARK.json")
    parser.add_argument("--write", action="store_true")
    parser.add_argument("--trace-seed", type=int, default=1)
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    workloads = {}
    for name in args.workloads or [w["name"] for w in declared["workloads"]]:
        results = [run(name, seed, 0) for seed in seeds]
        end_to_end = {}
        for spec in declared["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            end_to_end[spec["name"]] = {"unit": spec["unit"], **summary(values)}
            print(f"{name:14s} {spec['name']:16s} median {end_to_end[spec['name']]['median']:.5g} "
                  f"spread {end_to_end[spec['name']]['spread']:.3f} bound {spec['bound']}",
                  flush=True)
        w = WORKLOADS[name]
        workloads[name] = {"command": command_text(w), "band": band_text(w), "why": w.why,
                           "seeds": seeds, "end_to_end": end_to_end}
        if args.write:
            traced = run(name, args.trace_seed, 1)
            workloads[name]["per_layer_trace_seed"] = args.trace_seed
            workloads[name]["per_layer"] = traced["metrics"]

    if args.write:
        path = HERE / "baseline.json"
        listed = {w["name"] for w in declared["workloads"]}
        kept = json.loads(path.read_text())["workloads"] if path.exists() else {}
        kept = {name: entry for name, entry in kept.items() if name in listed}
        baseline = {
            "about": "Numbers measured on the seed commit (src/ as first committed) with this "
                     "benchmark. end_to_end: median and quartiles over ten untraced runs, one seed "
                     "each, in times scaled by the reference program (see run.py); per_layer: one "
                     "traced run, unscaled. Commands show one window; each run also runs the "
                     "window's mirror image in the band.",
            "machine": machine(),
            "run_seconds": declared["run_seconds"],
            "workloads": {**kept, **workloads},
        }
        path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
