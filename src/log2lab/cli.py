"""Command-line harness.

Exit codes are a contract shared by every subcommand:

* 0 — clean run;
* 1 — a mathematical violation was found (identity failure, containment
      failure, or a Violated verdict on the counting bound);
* 2 — some verdict stayed inconclusive after escalation, which stops at
      ``--max-escalations`` or at the last attempt under the precision
      ceiling (also used when a run is interrupted and the output file was
      finalized as truncated, and when the reader of stdout closes it before
      the run ends, say ``| head``: one stderr line, no traceback, or no
      stderr line at all when stderr is that same pipe, as with
      ``2>&1 | head``);
* 3 — usage or configuration error (no output file is created), or a
      precision or work ceiling hit mid-run (the output file is finalized as
      truncated but valid);
* 4 — internal error: any other exception, including a ``sweep-bounds`` row
      whose e2 enclosure contradicts the identity e2(n) = s2(n) - 1 (the
      identity is a theorem, so the enclosure code is at fault), and a
      forked worker that died before sending its rows (killed from outside,
      say; the message names its pid and how it ended).
      ``log2lab: internal error: ...`` and the traceback (with a forked
      worker's own traceback as its cause) go to stderr, and the output file
      is finalized as truncated but valid.  An error from the operating
      system, such as ``--out`` or stdout on a full disk, is one stderr line,
      ``log2lab: system error: ...``, with no traceback.

``python -m log2lab.cli`` and the ``log2lab`` script enter through ``run``:
it calls ``main``, flushes stdout and stderr, and leaves through ``os._exit``
with main's code, so the process skips interpreter teardown.  Every output
is complete by then: the range commands close ``--out`` before they return,
no ``atexit`` handler is registered, and a final flush that fails because
stdout's reader has gone takes the closed-reader path (one stderr line, exit
2).  An exception that escapes ``main`` (argparse's ``SystemExit`` for
``--help``, say) ends the process the normal way.  ``main`` itself never
exits, so it can be called in process.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import NoReturn

from .exact import DomainError, ResourceLimitError
from .sweep import (
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    SweepConfig,
    UsageError,
    run_bounds_sweep,
    run_error_term,
    run_verify_theorem,
)

__all__ = ["main", "run", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if not m:
        raise UsageError(f"range must look like LO..HI, got {text!r}")
    try:
        return int(m.group(1)), int(m.group(2))
    except ValueError as exc:  # a bound past the int-to-string digit limit
        raise UsageError(f"range bound too long: {exc}") from None


def _add_range_parser(sub, name: str, help: str, run_command) -> argparse.ArgumentParser:
    sp = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
    sp.set_defaults(run_command=run_command)
    sp.add_argument("--range", required=True, metavar="LO..HI")
    return sp


def _add_precision_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--bits", type=int, metavar="BITS", dest="precision_bits")
    sp.add_argument(
        "--odd-only", action="store_const", const=SweepConfig.PARITIES[-1], dest="parity"
    )


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=SweepConfig.OUTPUT_FORMATS, dest="output_format")
    sp.add_argument("--out", metavar="PATH", dest="output_path")
    sp.add_argument("--workers", type=int)


def build_parser() -> argparse.ArgumentParser:
    """The ``log2lab`` parser.  A range command's dests are ``SweepConfig``
    fields and an option left out sets none, so each default is stated once,
    in ``SweepConfig``; ``g-value``, no range command, keeps its own."""
    parser = _Parser(
        prog="log2lab",
        description=(
            "Exact floor-log2 identity checks, certified G(n) enclosures, and "
            "factorial bound sweeps over dyadic interval arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = _add_range_parser(
        sub,
        "verify-theorem",
        "three-way agreement of the odd floor sum with both counting oracles",
        run_verify_theorem,
    )
    _add_output_flags(sp)

    sp = _add_range_parser(
        sub, "sweep-bounds", "per-n bound comparisons with certified verdicts", run_bounds_sweep
    )
    _add_precision_flags(sp)
    sp.add_argument("--max-escalations", type=int)
    sp.add_argument("--ramanujan-b", choices=SweepConfig.RAMANUJAN_B)
    sp.add_argument(
        "--linear",
        action="store_true",
        dest="linear_display",
        help="also report approximate linear-domain values for n <= 20",
    )
    _add_output_flags(sp)

    sp = _add_range_parser(
        sub,
        "error-term",
        "e2(n) enclosures against the digit-sum characterization",
        run_error_term,
    )
    _add_precision_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("g-value", help="print one certified G(n) enclosure")
    sp.add_argument("n", type=int)
    sp.add_argument("--bits", type=int, default=64)

    return parser


def _cmd_g_value(args: argparse.Namespace) -> int:
    from .enclosures import G_enclosure  # here, so that verify-theorem never loads it

    g = G_enclosure(args.n, args.bits)
    if g.is_point():
        print(f"G({args.n}) = {g.lo.decimal_str()} (exact)")
    else:
        print(
            f"G({args.n}) in [{g.lo.decimal_str()}, {g.hi.decimal_str()}] "
            f"(certified width <= 2^-{args.bits})"
        )
    return EXIT_OK


def _to_devnull(stream) -> None:
    """Point ``stream``'s file descriptor at the null device, so that what it
    still buffers, and anything written to it later, goes nowhere."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _closed_by_reader() -> int:
    """stdout's reader went away: stop as on an interrupt, and send what is
    still buffered for stdout to the null device instead of failing again.
    When stderr shares that pipe, its line cannot be written either, and
    stderr goes to the null device too."""
    _to_devnull(sys.stdout)
    try:
        sys.stderr.write("log2lab: output closed by its reader; the run stopped early\n")
        sys.stderr.flush()
    except BrokenPipeError:
        _to_devnull(sys.stderr)
    return EXIT_INCONCLUSIVE


def _system_error(exc: OSError) -> int:
    """An operating-system error, such as an output that cannot be written:
    one stderr line.  A standard stream that cannot be written goes to the
    null device, so that no later flush fails again."""
    try:
        sys.stdout.flush()
    except OSError:
        _to_devnull(sys.stdout)
    try:
        sys.stderr.write(f"log2lab: system error: {exc}\n")
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)
    return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "g-value":
            return _cmd_g_value(args)

        fields = vars(args)  # a range command's options, by SweepConfig field
        del fields["command"]
        run_command = fields.pop("run_command")
        lo, hi = _parse_range(fields.pop("range"))
        return run_command(SweepConfig(n_lo=lo, n_hi=hi, **fields))
    except (UsageError, DomainError) as exc:
        sys.stderr.write(f"log2lab: error: {exc}\n")
        return EXIT_USAGE
    except ResourceLimitError as exc:
        sys.stderr.write(f"log2lab: resource limit: {exc}\n")
        return EXIT_USAGE
    except BrokenPipeError:
        return _closed_by_reader()
    except OSError as exc:
        return _system_error(exc)
    except Exception as exc:
        import traceback  # only on this path; a top-level import would slow start-up

        sys.stderr.write(f"log2lab: internal error: {exc}\n")
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


def run() -> NoReturn:
    """The command-line entry point: ``main()``, then flush and ``os._exit``."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _closed_by_reader()
    except OSError as exc:
        code = _system_error(exc)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
