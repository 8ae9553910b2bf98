"""Start-up: each command loads only the modules its rows use, and the names
callers wrap on ``log2lab.sweep`` are the ones the runs call, in this process
and in forked workers alike."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import log2lab

SRC = Path(log2lab.__file__).resolve().parents[1]

ENCLOSURE_STACK = ("fractions", "decimal", "log2lab.bounds", "log2lab.dyadic", "log2lab.enclosures")


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter with this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def modules_after(argv: list[str], tmp_path) -> set[str]:
    """sys.modules after ``log2lab.cli.main(argv)`` in a fresh interpreter
    that reports 2 CPUs, so that ``--workers 2`` forks a child."""
    out = tmp_path / "rows.csv"
    stdout = run_fresh(
        f"""
        import os, sys
        os.cpu_count = lambda: 2
        from log2lab.cli import main
        assert main({argv + ["--out", str(out)]!r}) == 0
        print("\\n".join(sorted(sys.modules)))
        """
    )
    return set(stdout.split())


def test_verify_theorem_skips_enclosure_stack_and_multiprocessing(tmp_path):
    loaded = modules_after(["verify-theorem", "--range", "1..99", "--workers", "1"], tmp_path)
    assert {"log2lab.cli", "log2lab.sweep", "log2lab.exact"} <= loaded
    for name in ("multiprocessing", *ENCLOSURE_STACK):
        assert name not in loaded, name


@pytest.mark.parametrize("command", ["sweep-bounds", "error-term"])
def test_enclosure_commands_skip_multiprocessing(command, tmp_path):
    loaded = modules_after([command, "--range", "1..3", "--workers", "1"], tmp_path)
    assert "log2lab.enclosures" in loaded
    assert "multiprocessing" not in loaded


@pytest.mark.parametrize("command", ["sweep-bounds", "verify-theorem"])
def test_forked_workers_skip_multiprocessing(command, tmp_path):
    loaded = modules_after([command, "--range", "1..99", "--workers", "2"], tmp_path)
    assert "pickle" in loaded  # blocks came back from a forked child
    assert "multiprocessing" not in loaded


@pytest.mark.parametrize("command", ["sweep-bounds", "verify-theorem"])
def test_one_worker_skips_pickle(command, tmp_path):
    loaded = modules_after([command, "--range", "1..99", "--workers", "1"], tmp_path)
    assert "pickle" not in loaded and "log2lab.workers" not in loaded


def test_wrappers_set_on_sweep_before_a_run_are_called():
    """The tracing contract: a wrapper set on ``log2lab.sweep`` before any run
    is what the run calls, once per row, and loading the bounds names on first
    use does not replace it."""
    run_fresh(
        """
        import io, sys
        import log2lab.sweep as sweep
        assert "log2lab.bounds" not in sys.modules
        # only the wrappable bounds names resolve lazily; probes load nothing
        for name in ("__path__", "VerdictStatus", "BOUND_NAMES", "DyadicInterval", "nope"):
            assert not hasattr(sweep, name), name
        assert "log2lab.bounds" not in sys.modules

        calls = {"compare_bounds": [], "odd_floor_sum": []}

        def counting(name):
            real = getattr(sweep, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args[0])
                return real(*args, **kwargs)

            return wrapper

        wrappers = {name: counting(name) for name in calls}
        for name, wrapper in wrappers.items():
            setattr(sweep, name, wrapper)

        from log2lab import SweepConfig, run_bounds_sweep, run_verify_theorem
        out, report = io.StringIO(), io.StringIO()
        assert run_bounds_sweep(SweepConfig(n_lo=3, n_hi=5), out, report) == 0
        assert run_verify_theorem(SweepConfig(n_lo=1, n_hi=9), out, report) == 0
        assert calls == {"compare_bounds": [3, 4, 5], "odd_floor_sum": [1, 3, 5, 7, 9]}, calls
        for name, wrapper in wrappers.items():
            assert getattr(sweep, name) is wrapper, name
        """
    )


def test_wrappers_set_on_sweep_are_called_in_forked_workers(tmp_path):
    """A forked worker calls the wrapper the parent set, once per row it
    computes: each call appends its n and process id to a file."""
    calls = tmp_path / "calls.txt"
    stdout = run_fresh(
        f"""
        import io, os
        import log2lab.sweep as sweep
        from log2lab import SweepConfig, run_bounds_sweep, run_verify_theorem

        os.cpu_count = lambda: 2

        def recording(name):
            real = getattr(sweep, name)

            def wrapper(*args, **kwargs):
                with open({str(calls)!r}, "a") as fh:
                    fh.write(f"{{name}} {{args[0]}} {{os.getpid()}}\\n")
                return real(*args, **kwargs)

            return wrapper

        for name in ("compare_bounds", "odd_floor_sum"):
            setattr(sweep, name, recording(name))
        out, report = io.StringIO(), io.StringIO()
        assert run_bounds_sweep(SweepConfig(n_lo=3, n_hi=12, workers=2), out, report) == 0
        assert run_verify_theorem(SweepConfig(n_lo=1, n_hi=39, workers=2), out, report) == 0
        print(os.getpid())
        """
    )
    parent = stdout.split()[0]
    rows = [line.split() for line in calls.read_text().splitlines()]
    for name, ns in (("compare_bounds", range(3, 13)), ("odd_floor_sum", range(1, 40, 2))):
        assert sorted(int(n) for f, n, _ in rows if f == name) == list(ns), name
        pids = {pid for f, _, pid in rows if f == name}
        assert parent in pids and len(pids) == 2, (name, pids)


def test_package_exports_load_on_first_use():
    run_fresh(
        """
        import sys
        import log2lab
        assert not any(m.startswith("log2lab.") for m in sys.modules), sorted(sys.modules)
        assert set(log2lab.__all__) <= set(dir(log2lab))
        assert not hasattr(log2lab, "no_such_name")

        from log2lab import odd_floor_sum
        assert "log2lab.exact" in sys.modules and "log2lab.bounds" not in sys.modules

        import log2lab.bounds
        assert log2lab.compare_bounds is log2lab.bounds.compare_bounds
        assert log2lab.ResourceLimitError is log2lab.enclosures.ResourceLimitError

        namespace = {}
        exec("from log2lab import *", namespace)
        missing = [name for name in log2lab.__all__ if name not in namespace]
        assert not missing, missing
        for name in log2lab.__all__:
            assert namespace[name] is getattr(log2lab, name), name

        # a submodule is an attribute of the package, as when all were eager
        assert "log2lab.cli" not in sys.modules
        assert callable(log2lab.cli.main)
        """
    )
