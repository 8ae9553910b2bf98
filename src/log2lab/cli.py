"""Command-line harness.

Exit codes are a contract shared by every subcommand:

* 0 — clean run;
* 1 — a mathematical violation was found (identity failure, containment
      failure, or a Violated verdict on the counting bound);
* 2 — some verdict stayed inconclusive after escalation, which stops at
      ``--max-escalations`` or at the last attempt under the precision
      ceiling (also used when a run is interrupted and the output file was
      finalized as truncated, and when the reader of stdout closes it before
      the run ends, say ``| head``: one stderr line, no traceback);
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
      is finalized as truncated but valid.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

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

__all__ = ["main", "build_parser"]


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


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", metavar="PATH", default=None)
    sp.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="log2lab",
        description=(
            "Exact floor-log2 identity checks, certified G(n) enclosures, and "
            "factorial bound sweeps over dyadic interval arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser(
        "verify-theorem",
        help="three-way agreement of the odd floor sum with both counting oracles",
    )
    sp.add_argument("--range", required=True, metavar="LO..HI")
    _add_output_flags(sp)

    sp = sub.add_parser(
        "sweep-bounds",
        help="per-n bound comparisons with certified verdicts",
    )
    sp.add_argument("--range", required=True, metavar="LO..HI")
    sp.add_argument("--bits", type=int, default=64)
    sp.add_argument("--odd-only", action="store_true")
    sp.add_argument("--max-escalations", type=int, default=4)
    sp.add_argument(
        "--ramanujan-b", choices=("printed", "closed-form"), default="printed"
    )
    sp.add_argument(
        "--linear",
        action="store_true",
        help="also report approximate linear-domain values for n <= 20",
    )
    _add_output_flags(sp)

    sp = sub.add_parser(
        "error-term",
        help="e2(n) enclosures against the digit-sum characterization",
    )
    sp.add_argument("--range", required=True, metavar="LO..HI")
    sp.add_argument("--bits", type=int, default=64)
    sp.add_argument("--odd-only", action="store_true")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "g-value":
            return _cmd_g_value(args)

        lo, hi = _parse_range(args.range)
        config = SweepConfig(
            n_lo=lo,
            n_hi=hi,
            precision_bits=getattr(args, "bits", 64),
            max_escalations=getattr(args, "max_escalations", 4),
            output_format=args.format,
            output_path=args.out,
            parity="odd" if getattr(args, "odd_only", False) else "all",
            ramanujan_b=getattr(args, "ramanujan_b", "printed"),
            workers=args.workers,
            linear_display=getattr(args, "linear", False),
        )
        if args.command == "verify-theorem":
            return run_verify_theorem(config)
        if args.command == "sweep-bounds":
            return run_bounds_sweep(config)
        if args.command == "error-term":
            return run_error_term(config)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, DomainError) as exc:
        sys.stderr.write(f"log2lab: error: {exc}\n")
        return EXIT_USAGE
    except ResourceLimitError as exc:
        sys.stderr.write(f"log2lab: resource limit: {exc}\n")
        return EXIT_USAGE
    except BrokenPipeError:
        # stdout's reader went away: stop as on an interrupt, and let the
        # flush at exit write to the null device instead of failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("log2lab: output closed by its reader; the run stopped early\n")
        return EXIT_INCONCLUSIVE
    except Exception as exc:
        import traceback  # only on this path; a top-level import would slow start-up

        sys.stderr.write(f"log2lab: internal error: {exc}\n")
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
