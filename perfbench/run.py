"""log2lab benchmark: CLI throughput end to end, per-layer cost from a traced run.

From the root of a checkout (the package is imported from its ``src``):

    python3 perfbench/run.py --workload sweep-w1 --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A closed loop runs one fresh ``python -m log2lab.cli ...`` command at a time
(at most 2 pool workers) on the seeded window and its mirror image, for
``--seconds``.  One cycle covers both windows; rows/s and CPU per row are the
median over cycles, set-up time and peak RSS the median over commands.
Outputs are checked after the timed loop by an independent checker, and
every command on a window must emit the same SHA-256.

The shared host this runs on changes speed by up to 2x within seconds, so
every command is bracketed by runs of ``reference.py``, a fixed log2lab-free
program (as many copies at once as the command has pool workers).  Times are
scaled to a host on which the reference takes REFERENCE_S seconds: a
command's wall, CPU and set-up times are divided by its slowdown, the mean
wall time of the reference runs around it over REFERENCE_S.  The unscaled
figures are printed and kept in the report.

``--trace 1`` measures per-layer cost instead: fresh ``import log2lab``
processes, one untraced 1- and 2-worker command per window (pool cost), the
same windows traced in-process through the public runners, and a probe
process (log core and constants microbenchmarks, plus a few traced rows of
every runner the workload does not use).

The last stdout line is one JSON object: correct, attempted and failed rows,
and every metric BENCHMARK.json lists for the mode.  Reports, spans and
per-command samples are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import check
import tracing
from harness import CommandResult, run_command
from workloads import WORKLOADS, Window, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
IMPORT_SAMPLES = 5
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_CHECKSUM = b"9 5 0\n"
# the scale of the scaled times: near reference.py's wall time on the 2-vCPU Xeon
# (Python 3.11, numpy 2.4) of baseline.json; any fixed value would do
REFERENCE_S = 0.55


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def launch(argv: list[str]) -> CommandResult:
    return run_command(argv, child_env(), str(ROOT))


def import_argv() -> list[str]:
    return [sys.executable, "-c", "import log2lab"]


class Verifier:
    """Failed-row accounting for one run: checker, determinism and exit codes."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self._checked: dict[tuple, int] = {}

    def _check(self, result: CommandResult, ns: list[int]) -> int:
        runner = self.workload.runner
        key = (result.sha256, result.stderr if runner == "verify" else b"")
        if key not in self._checked:
            if runner == "sweep":
                failed = check.check_sweep(result.stdout, ns, self.seed)
            elif runner == "errterm":
                failed = check.check_errterm(result.stdout, ns, self.workload.bits)
            else:
                failed = check.check_verify(result.stdout, result.stderr, ns)
            self._checked[key] = failed
        return self._checked[key]

    def account(self, result: CommandResult, ns: list[int], reference: str) -> None:
        """Rows of a command with an unexpected exit code or digest all fail."""
        self.attempted += len(ns)
        if result.returncode != 0 or result.sha256 != reference:
            self.failed += len(ns)
        else:
            self.failed += self._check(result, ns)

    def account_digest(self, digest: str, ns: list[int], reference: str) -> None:
        self.attempted += len(ns)
        if digest != reference:
            self.failed += len(ns)

    def self_test(self, result: CommandResult, ns: list[int]) -> tuple[int, int]:
        if result.returncode != 0 or self._check(result, ns):
            return 0, 2  # corrupting an already wrong output proves nothing
        return check.self_test(
            self.workload.runner, result.stdout, result.stderr, ns, self.workload.bits, self.seed
        )


def reference_s(copies: int) -> float:
    """Mean wall time of `copies` runs of reference.py started together.

    A command with two pool workers keeps both CPUs busy, so its reference
    runs two copies: how fast the host runs a command depends on how many
    CPUs it uses at once.
    """
    with ThreadPoolExecutor(copies) as pool:
        results = list(pool.map(lambda _: launch([sys.executable, str(REFERENCE)]), range(copies)))
    for result in results:
        if result.returncode != 0 or result.stdout != REFERENCE_CHECKSUM:
            sys.stderr.write(result.stderr.decode(errors="replace"))
            raise RuntimeError(f"reference.py failed or printed {result.stdout!r}")
    return statistics.mean(r.wall_s for r in results)


def untraced_run(workload: Workload, seed: int, seconds: float) -> dict:
    windows = workload.band.windows(seed)
    ns = {w: workload.band.inputs(w) for w in windows}
    launch(import_argv())  # compiles bytecode and warms the file cache; untimed
    reference_s(workload.workers)

    # whole cycles only, and none that would run past the deadline (two at least);
    # references[k] and references[k + 1] bracket the k-th command
    cycles: list[list[CommandResult]] = []
    references = [reference_s(workload.workers)]
    start = time.perf_counter()
    while len(cycles) < 2 or (time.perf_counter() - start) * (len(cycles) + 1) / len(cycles) <= seconds:
        cycle = []
        for w in windows:
            cycle.append(launch(workload.argv(w)))
            references.append(reference_s(workload.workers))
        cycles.append(cycle)
    # the single-worker output every worker count must reproduce byte for byte
    single = (
        {w: launch(workload.argv(w, workers=1)) for w in windows}
        if workload.workers != 1 else {w: cycles[0][i] for i, w in enumerate(windows)}
    )

    verifier = Verifier(workload, seed)
    digests = {}
    for i, w in enumerate(windows):
        digests[w] = single[w].sha256
        if workload.workers != 1:
            verifier.account(single[w], ns[w], digests[w])
        for cycle in cycles:
            verifier.account(cycle[i], ns[w], digests[w])
    flagged = verifier.self_test(single[windows[0]], ns[windows[0]])

    commands = [r for cycle in cycles for r in cycle]
    slowdown = [(a + b) / (2 * REFERENCE_S) for a, b in zip(references, references[1:])]
    per_cycle = [list(range(k, k + len(windows))) for k in range(0, len(commands), len(windows))]
    rows = sum(len(ns[w]) for w in windows)

    def figures(wall, cpu, setup) -> dict:
        return {
            "rows_per_s": statistics.median(rows / sum(wall(k) for k in c) for c in per_cycle),
            "cpu_ms_per_row": statistics.median(1e3 * sum(cpu(k) for k in c) / rows for c in per_cycle),
            "setup_s": statistics.median(setup(k) for k in range(len(commands))),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in commands),
        }

    metrics = figures(
        lambda k: commands[k].wall_s / slowdown[k],
        lambda k: commands[k].cpu_s / slowdown[k],
        lambda k: commands[k].setup_s / slowdown[k],
    )
    unscaled = figures(
        lambda k: commands[k].wall_s, lambda k: commands[k].cpu_s, lambda k: commands[k].setup_s
    )
    return {
        "windows": windows,
        "digests": digests,
        "cycles": len(cycles),
        "verifier": verifier,
        "self_test": flagged,
        "metrics": metrics,
        "unscaled": unscaled,
        "host_slowdown": statistics.median(slowdown),
        "samples": [_sample(r) for r in commands],
        "reference_s": references,
    }


def traced_run(workload: Workload, seed: int) -> dict:
    windows = workload.band.windows(seed)
    ns = {w: workload.band.inputs(w) for w in windows}
    launch(import_argv())
    import_s = statistics.median(launch(import_argv()).wall_s for _ in range(IMPORT_SAMPLES))

    untraced = {w: {k: launch(workload.argv(w, workers=k)) for k in (1, 2)} for w in windows}
    traced: dict[Window, tuple[CommandResult, dict]] = {}
    OUT_DIR.mkdir(exist_ok=True)
    for w in windows:
        path = OUT_DIR / f"spans-{workload.name}-{w[0]}-{w[1]}.json"
        result = launch(_tracing_argv("window", workload, path, seed, f"{w[0]}..{w[1]}"))
        traced[w] = (result, _load(path, result))
    path = OUT_DIR / f"probes-{workload.name}-seed{seed}.json"
    probe_result = launch(_tracing_argv("probes", workload, path, seed))
    probes = _load(path, probe_result)

    verifier = Verifier(workload, seed)
    digests = {}
    for w in windows:
        digests[w] = untraced[w][1].sha256
        for k in (1, 2):
            verifier.account(untraced[w][k], ns[w], digests[w])
        verifier.account_digest(traced[w][1].get("stdout_sha256", ""), ns[w], digests[w])
    if probe_result.returncode != 0:
        verifier.attempted += 1
        verifier.failed += 1

    rows = sum(len(v) for v in ns.values())

    def rows_per_s(k: int) -> float:
        return rows / sum(untraced[w][k].wall_s for w in windows)

    def cpu_ms_per_row(k: int) -> float:
        return 1e3 * sum(untraced[w][k].cpu_s for w in windows) / rows

    own = tracing.layer_metrics(
        tracing.merge([tracing.summarize(t.get("spans", [])) for _, t in traced.values()]),
        rows,
        sum(t.get("violated_findings", 0) for _, t in traced.values()),
    )
    # a layer this workload never reaches is measured on the probes
    fallbacks = [
        tracing.layer_metrics(
            tracing.summarize(phase["spans"]), phase["rows"], phase["violated_findings"]
        )
        for runner in tracing.PROBES
        if (phase := probes.get("phases", {}).get(runner))
    ]
    metrics = {
        name: next((m[name] for m in [own, *fallbacks] if m[name] is not None), None)
        for name in own
    }
    metrics.update({
        "cli.import_s": import_s,
        "sweep.pool.extra_cpu_ms_per_row": cpu_ms_per_row(2) - cpu_ms_per_row(1),
        "sweep.pool.efficiency": rows_per_s(2) / (2 * rows_per_s(1)),
        "enclosures.constants_ms": probes.get("constants_ms"),
        "trace.overhead_ratio": (
            sum(r.wall_s for r, _ in traced.values())
            / sum(untraced[w][1].wall_s for w in windows)
        ),
    })
    for p, us in probes.get("log2_core_us", {}).items():
        metrics[f"enclosures.log2_core_us.p{p}"] = us
    return {
        "windows": windows,
        "digests": digests,
        "verifier": verifier,
        "metrics": metrics,
        "samples": [_sample(r) for by_k in untraced.values() for r in by_k.values()]
        + [_sample(r) for r, _ in traced.values()] + [_sample(probe_result)],
    }


def _tracing_argv(mode: str, workload: Workload, out: Path, seed: int, window: str | None = None):
    argv = [sys.executable, str(Path(tracing.__file__).resolve()), mode,
            "--workload", workload.name, "--seed", str(seed), "--out", str(out)]
    return argv + (["--range", window] if window else [])


def _load(path: Path, result: CommandResult) -> dict:
    """The child's JSON, or {} when it failed (its rows then count as failed)."""
    if result.returncode != 0:
        sys.stderr.write(result.stderr.decode(errors="replace"))
        return {}
    with open(path) as fh:
        return json.load(fh)


def _sample(r: CommandResult) -> dict:
    return {
        "argv": r.argv[1:], "exit": r.returncode, "wall_s": r.wall_s, "setup_s": r.setup_s,
        "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb, "stdout_lines": len(r.line_times),
        "sha256": r.sha256,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    """Run one workload; returns the result object and prints its report."""
    run = traced_run(workload, seed) if trace else untraced_run(workload, seed, seconds)
    verifier = run["verifier"]
    flagged, corrupted = run.get("self_test", (0, 0))
    correct = verifier.failed == 0 and flagged == corrupted

    metrics = {}
    for spec in declared["per_layer" if trace else "end_to_end"]:
        value = run["metrics"].get(spec["name"])
        if value is None:
            raise RuntimeError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    print(f"== {workload.name} seed={seed} trace={int(trace)} windows="
          + ", ".join(f"{lo}..{hi}" for lo, hi in run["windows"])
          + (f" cycles={run['cycles']}" if "cycles" in run else ""))
    for name, m in metrics.items():
        unscaled = run.get("unscaled", {}).get(name)
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}"
              + (f"  (unscaled {unscaled:.6g})" if unscaled is not None else ""))
    if "host_slowdown" in run:
        print(f"  {'host slowdown (reference time / nominal)':44s} {run['host_slowdown']:.4g}")
    error_rate = verifier.failed / verifier.attempted
    print(f"  {'error_rate':44s} {error_rate:.6g} fraction "
          f"({verifier.failed} of {verifier.attempted} rows failed)")
    for (lo, hi), digest in run["digests"].items():
        print(f"  sha256 {lo}..{hi} {digest}")
    if not trace:
        print(f"  checker self-test: {flagged} of {corrupted} corrupted rows flagged "
              f"(error_rate {flagged / corrupted:.3g} on the corrupted rows)")

    result = {
        "correct": correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    report = {
        **result,
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "error_rate": error_rate,
        "windows": [list(w) for w in run["windows"]],
        "digests": {f"{lo}..{hi}": d for (lo, hi), d in run["digests"].items()},
        "self_test": {"flagged": flagged, "corrupted": corrupted},
        "samples": run["samples"],
        **{k: run[k] for k in ("unscaled", "host_slowdown", "reference_s") if k in run},
    }
    with open(OUT_DIR / f"{workload.name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running command is killed, not orphaned
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (ROOT / "src" / "log2lab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no log2lab sources under {ROOT / 'src'}\n")
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)

    seconds = args.seconds or declared["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace), declared)
        for name in names
    }
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
