"""Start-up and exit: each command loads only the modules its rows use, the
names callers wrap on ``log2lab.sweep`` are the ones the runs call, in this
process and in forked workers alike, every name the traced benchmark wraps
is still where it looks it up, and a command leaves through ``cli.run``'s
``os._exit`` with nothing left for interpreter teardown."""

from __future__ import annotations

import io
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import log2lab
from conftest import ALWAYS_FORK

SRC = Path(log2lab.__file__).resolve().parents[1]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ENCLOSURE_STACK = ("log2lab.bounds", "log2lab.dyadic", "log2lab.enclosures")
# loaded by no command: only DyadicRational.to_fraction loads fractions
FRACTIONS = ("fractions", "decimal", "numbers")


def launch(code: str) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter with this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter, which must exit 0."""
    done = launch(code)
    assert done.returncode == 0, done.stderr
    return done.stdout


def modules_after(argv: list[str], tmp_path) -> set[str]:
    """sys.modules after ``log2lab.cli.main(argv)`` in a fresh interpreter
    that reports 2 CPUs and forks whatever the blocks left cost, so that
    ``--workers 2`` forks a child."""
    out = tmp_path / "rows.csv"
    stdout = run_fresh(
        f"""
        import os, sys
        os.sched_getaffinity = lambda pid: {{0, 1}}
        {ALWAYS_FORK}
        from log2lab.cli import main
        assert main({argv + ["--out", str(out)]!r}) == 0
        print("\\n".join(sorted(sys.modules)))
        """
    )
    return set(stdout.split())


def test_verify_theorem_skips_enclosure_stack_and_multiprocessing(tmp_path):
    loaded = modules_after(["verify-theorem", "--range", "1..99", "--workers", "1"], tmp_path)
    assert {"log2lab.cli", "log2lab.sweep", "log2lab.exact"} <= loaded
    for name in ("multiprocessing", *ENCLOSURE_STACK, *FRACTIONS):
        assert name not in loaded, name


@pytest.mark.parametrize("workers", ["1", "2"])
def test_csv_verify_theorem_without_failures_skips_json(workers, tmp_path):
    loaded = modules_after(["verify-theorem", "--range", "1..99", "--workers", workers], tmp_path)
    assert "json" not in loaded


@pytest.mark.parametrize("workers", ["1", "2"])
def test_csv_sweep_bounds_skips_json(workers, tmp_path):
    # every row of 1..300 has a Violated finding, and --bits 64 the printed
    # and closed-form b disagree: the FINDING lines are written without json
    loaded = modules_after(["sweep-bounds", "--range", "1..300", "--workers", workers], tmp_path)
    assert "log2lab.bounds" in loaded
    assert "json" not in loaded


def test_json_sweep_bounds_loads_json(tmp_path):
    argv = ["sweep-bounds", "--range", "1..300", "--format", "json", "--workers", "1"]
    assert "json" in modules_after(argv, tmp_path)


@pytest.mark.parametrize("b_source", ["printed", "closed-form"])
@pytest.mark.parametrize("p", [4, 64])
def test_finding_lines_are_the_summary_findings_as_json(p, b_source):
    """The FINDING lines a CSV run writes without json are, byte for byte,
    json's compact form of the JSON summary's findings, which a JSON run
    parses from the same hand-built texts."""
    import json

    from log2lab import SweepConfig, run_bounds_sweep

    reports = {}
    out = io.StringIO()
    for fmt in ("csv", "json"):
        config = SweepConfig(
            n_lo=1, n_hi=600, precision_bits=p, ramanujan_b=b_source, output_format=fmt
        )
        reports[fmt] = io.StringIO()
        run_bounds_sweep(config, out if fmt == "json" else io.StringIO(), reports[fmt])
    assert reports["csv"].getvalue() == reports["json"].getvalue()
    lines = [
        line.removeprefix("FINDING: ")
        for line in reports["csv"].getvalue().splitlines()
        if line.startswith("FINDING: ")
    ]
    findings = json.loads(out.getvalue())[-1]["summary"]["findings"]
    assert len(lines) >= 600  # the Ramanujan lower side, every row
    assert [json.loads(line) for line in lines] == findings
    assert lines == [json.dumps(f, separators=(",", ":")) for f in findings]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", ["sweep-bounds", "error-term"])
def test_enclosure_commands_skip_fractions(command, workers, tmp_path):
    # 1..300 passes the Stirling switch at --bits 64 (n >= 128)
    loaded = modules_after([command, "--range", "1..300", "--workers", workers], tmp_path)
    assert "log2lab.enclosures" in loaded
    for name in FRACTIONS:
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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
@pytest.mark.parametrize("command", ["sweep-bounds", "verify-theorem"])
def test_one_cpu_affinity_forks_no_worker(command, tmp_path):
    """Pinned to one CPU, as by ``taskset -c 0``, a ``--workers 2`` run forks
    no child, however many CPUs the machine has."""
    out = tmp_path / "rows.csv"
    stdout = run_fresh(
        f"""
        import os, sys
        os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})

        def no_fork():
            raise AssertionError("a worker was forked")

        os.fork = no_fork
        from log2lab.cli import main
        argv = [{command!r}, "--range", "1..99", "--workers", "2", "--out", {str(out)!r}]
        assert main(argv) == 0
        print("\\n".join(sorted(sys.modules)))
        """
    )
    loaded = set(stdout.split())
    assert "log2lab.sweep" in loaded
    assert "log2lab.workers" not in loaded and "pickle" not in loaded


@pytest.mark.parametrize(
    ("span", "bits", "forks"),
    [
        # the sweep-w2 benchmark's window shape: about 10 ms of rows on a
        # 2-core Xeon, under the fork's cost
        ("3404..3483", "64", 0),
        ("1..5000", "64", 1),
        # 12 rows as costly as about 1000 at --bits 64
        ("3000..3011", "2048", 1),
    ],
)
def test_workers_fork_only_when_the_blocks_left_pay_for_it(span, bits, forks, tmp_path):
    """With 2 CPUs, ``--workers 2`` forks its child only when the blocks left
    after the first would take longer here than ``sweep._FORK_COST_S``; a run
    that does not fork neither compiles ``log2lab.workers`` nor imports
    ``pickle``.  stdout, stderr, exit code and --out bytes are those of
    ``--workers 1`` either way."""
    stdout = run_fresh(
        f"""
        import contextlib, io, os, sys
        os.sched_getaffinity = lambda pid: {{0, 1}}
        forks = 0
        real_fork = os.fork

        def counting_fork():
            global forks
            pid = real_fork()
            forks += pid != 0
            return pid

        os.fork = counting_fork
        from log2lab.cli import main
        runs = []
        for workers in ("1", "2"):
            out, stdout, stderr = {str(tmp_path)!r} + "/rows_w" + workers, io.StringIO(), io.StringIO()
            argv = ["sweep-bounds", "--range", {span!r}, "--bits", {bits!r}, "--workers", workers]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv + ["--out", out])
            runs.append((code, stdout.getvalue(), stderr.getvalue(), open(out).read()))
            if workers == "1":
                assert forks == 0
        assert runs[1] == runs[0]
        print(forks, "log2lab.workers" in sys.modules, "pickle" in sys.modules)
        """
    )
    assert stdout.split() == [str(forks), str(forks > 0), str(forks > 0)]


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

        os.sched_getaffinity = lambda pid: {{0, 1}}
        {ALWAYS_FORK}

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


def test_traced_benchmark_finds_every_name_it_wraps():
    """``perfbench/tracing.py`` replaces each function it times on the module
    or class its callers read it from; a name deleted or moved in ``src/``
    would stop the traced benchmark at ``install`` with an AttributeError.
    A sweep row must still call the wrapped names the benchmark's per-row
    metrics are taken from, or those metrics go unmeasured."""
    run_fresh(
        f"""
        import sys
        sys.path.insert(0, {str(PERFBENCH)!r})
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        result = tracing.run_traced(tracer, "sweep", (3004, 3007), 64)
        assert result["exit"] == 0, result["exit"]
        rows = {{}}
        for name, _, _, _, ident, _ in result["spans"]:
            rows.setdefault(name, set()).add(ident)
        for name in (
            "bounds.compare_bounds", "bounds.robbins", "bounds.ramanujan",
            "enclosures.log2_factorial", "dyadic.round_outward", "dyadic.decimal_str",
        ):
            assert rows.get(name, set()) >= {{3004, 3005, 3006, 3007}}, (name, rows.get(name))
        """
    )


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


def test_module_entry_leaves_through_run():
    """``python -m log2lab.cli`` runs ``cli.run``: the process ends in
    ``os._exit``, so an exit handler the launcher set never runs, and the
    exit code is main's.  The ``log2lab`` script points at ``run`` too."""
    done = launch(
        """
        import atexit, runpy, sys
        atexit.register(print, "teardown ran")
        sys.argv[1:] = ["g-value", "1"]
        runpy.run_module("log2lab.cli", run_name="__main__")
        """
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "G(1) = 0 (exact)\n", "")
    pyproject = SRC.parent / "pyproject.toml"
    if pyproject.exists():  # absent when the tests run against an installed package
        assert 'log2lab = "log2lab.cli:run"' in pyproject.read_text()


def test_no_exit_handlers(tmp_path):
    """``os._exit`` skips ``atexit`` handlers, so nothing the commands load may
    register one: checked in the sources, and over a run of every command."""
    for path in (SRC / "log2lab").glob("*.py"):
        assert not re.search(r"^\s*(import|from) atexit\b", path.read_text(), re.M), path.name
    out = tmp_path / "rows.csv"
    run_fresh(
        f"""
        import atexit, io, os, sys
        from contextlib import redirect_stdout
        os.sched_getaffinity = lambda pid: {{0, 1}}
        {ALWAYS_FORK}
        before = atexit._ncallbacks()
        from log2lab.cli import main
        with redirect_stdout(io.StringIO()):
            for command in ("sweep-bounds", "error-term", "verify-theorem"):
                argv = [command, "--range", "1..99", "--workers", "2", "--out", {str(out)!r}]
                assert main(argv) == 0
                assert main(argv + ["--format", "json"]) == 0
            assert main(["g-value", "99"]) == 0
        assert atexit._ncallbacks() == before, atexit._ncallbacks()
        """
    )
