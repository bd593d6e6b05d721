"""Command-line interface exposing all engines with machine-readable output.

Word strings on this CLI read left-to-right in order of application: the
first character is the factor applied first to the vacuum (the rightmost
factor of the written operator product).

Options match by full name only.  This module is the argparse layer: the
argument types, build_parser and main.  The commands' bodies, with their
cost guards (each engine's limit, checked before any work and lifted for one
run by --force) and their streamed output, are in fockpoisson.commands.

Input is refused only through argparse: an argument's own rule is its type
in build_parser, and a rule between two arguments, or an
analytic.DomainError, calls the command's args.error.  A command computes,
prints and returns 0, 1 or 3.

Exit codes: 0 success; 1 cross-engine disagreement or failed relation check
(a theorem-check failure, distinct from user error); 2 usage error,
argparse's: a usage line, then `fockpoisson <cmd>: error: ...`, with nothing
on stdout (a direct main() call raises SystemExit(2)); 3 an engine's limit
exceeded without --force; 141 stdout closed by its reader (as in
`fockpoisson ... | head`, help text included), with nothing on stderr.

Integers are read and printed in full: main lifts Python's limit on the
digits of an int converted to or from str (sys.set_int_max_str_digits, where
the interpreter has it), which would end a run whose value passes 4,300
digits with a ValueError.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import commands, partitions, words
from .commands import ENGINE_NAMES, _points
from .partitions import Family
from .poly import ONE, S, T, ZERO

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a killed writer


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _at_point(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected L,S,T, got {text!r}")
    return tuple(_fraction(p) for p in parts)


def _float(text: str) -> float:
    """A rational as the float that cauchy computes with."""
    try:
        return float(_fraction(text))
    except OverflowError:
        raise argparse.ArgumentTypeError(
            f"must lie within the float range, got {text!r}") from None


def _at_least(low: int):
    """The argparse type of an int >= low."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value
    convert.__name__ = "int"  # argparse reports "invalid int value: 'x'"
    return convert


def _grid(text: str, positive: bool = False) -> tuple:
    """MIN:MAX:STEPS as (MIN, MAX, STEPS), every point finite (and positive).

    Rounding is monotone, so the points run monotonically from the first to
    the last (the first is nan when MAX - MIN overflows): the two ends check
    them all without listing them.  cauchy lists them once its limits admit
    STEPS."""
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:STEPS, got {text!r}") from None
    if steps < 1:
        raise argparse.ArgumentTypeError("STEPS must be >= 1")
    ends = _points(lo, hi, steps, (0, steps - 1))
    # nan <= 0 is false, so a nan would pass every later range check
    if not all(math.isfinite(v) for v in (lo, hi, *ends)):
        raise argparse.ArgumentTypeError(
            f"MIN, MAX and the grid points must be finite, got {text!r}")
    if positive and min(ends) <= 0:
        raise argparse.ArgumentTypeError("imaginary parts must be positive")
    return lo, hi, steps


def _word(text: str) -> words.OperatorWord:
    try:
        return words.OperatorWord.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _partition_word(text: str) -> words.OperatorWord:
    """The word of a non-crossing partition given as a JSON array of arrays."""
    try:
        blocks = json.loads(text)
        if not (isinstance(blocks, list) and all(isinstance(b, list) for b in blocks)):
            raise ValueError("expected a JSON array of arrays")
        p = partitions.NCPartition(sum(len(b) for b in blocks), blocks)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"invalid partition: {exc}") from None
    return words.OperatorWord.from_partition(p)


def _add_st_flags(parser, one, zero, value=None):
    """The limit flags, which store one or zero of the command's ring in
    args.s and args.t; a value type adds the options --s and --t."""
    for v in ("s", "t"):
        group = parser.add_mutually_exclusive_group()
        if value is not None:
            group.add_argument(f"--{v}", type=value, help=f"deformation parameter "
                               f"{v} in [0, 1]; 0 and 1 equal --{v}-zero and --{v}-one; "
                               f"a negative value needs the --{v}=-1/2 form")
        group.add_argument(f"--{v}-one", dest=v, action="store_const", const=one,
                           help=f"specialize {v} = 1")
        group.add_argument(f"--{v}-zero", dest=v, action="store_const", const=zero,
                           help=f"take the limit {v} -> 0")


class _Parser(argparse.ArgumentParser):
    # argparse's own writer swallows a failed write, so --help into a closed
    # pipe would exit 0; a plain write raises, and main exits 141 as for any
    # other output
    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fockpoisson",
        description="Moments, partitions, operator words, Fock matrices and "
        "Cauchy transforms of the (s,t)-deformed free Poisson distribution.",
        epilog="Word strings read left-to-right as the factors applied first "
        "to the vacuum; the leftmost character is the rightmost factor of the "
        "written product.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help, run, **defaults):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run, error=p.error, **defaults)
        return p

    p_mom = add_command("moments", "moment table by one engine or all", commands.run_moments,
                        s=S, t=T)
    p_mom.add_argument("--nmax", type=_at_least(0), default=7)
    p_mom.add_argument("--engine", choices=ENGINE_NAMES + ("all",), default="all")
    _add_st_flags(p_mom, ONE, ZERO)
    p_mom.add_argument("--at", type=_at_point, metavar="L,S,T",
                       help="also evaluate each row at rational lambda,s,t; a "
                       "negative lambda needs the --at=L,S,T form")
    p_mom.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_mom.add_argument("--force", action="store_true",
                       help="override the engines' --nmax limits for this run")

    p_seq = add_command("sequence", "lam = 1 conditionally free moment sequence",
                        commands.run_sequence)
    p_seq.add_argument("--nmax", type=_at_least(1), default=10)
    p_seq.add_argument("--format", choices=("plain", "json"), default="plain")
    p_seq.add_argument("--force", action="store_true",
                       help="override the --nmax limit for this run")

    p_par = add_command("partitions", "enumerate or count partition families",
                        commands.run_partitions)
    p_par.add_argument("--n", type=_at_least(1), required=True)
    p_par.add_argument("--family", choices=[f.name for f in Family], default="NC")
    mode = p_par.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="list the members")
    mode.add_argument("--count-by-blocks", action="store_true",
                      help="table of counts by number of blocks")
    p_par.add_argument("--stats", action="store_true",
                       help="with --list, include depths and weights")
    p_par.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_par.add_argument("--force", action="store_true",
                       help="override the --n limit for this run")

    p_wrd = add_command("words", "admissibility, bijection, card weights", commands.run_words)
    src = p_wrd.add_mutually_exclusive_group(required=True)
    src.add_argument("--check", dest="word", type=_word, metavar="WORD",
                     help="word over C/A/M/K")
    src.add_argument("--from-partition", dest="word", type=_partition_word, metavar="JSON",
                     help="blocks as a JSON array of arrays")
    p_wrd.add_argument("--cards", action="store_true", help="draw the card arrangement")
    p_wrd.add_argument("--degenerate", action="store_true",
                       help="weigh intermediate cards in the degenerate t = 1 mode")
    p_wrd.add_argument("--format", choices=("plain", "json"), default="plain")

    p_fck = add_command("fock", "dump operator matrices, check relations", commands.run_fock)
    p_fck.add_argument("--n", type=_at_least(1), default=6, help="truncation level")
    p_fck.add_argument("--dump",
                       choices=("poisson", "creation", "annihilation", "scalar",
                                "intermediate"),
                       help="print the matrix as JSON polynomial strings")
    p_fck.add_argument("--relations", action="store_true",
                       help="verify the commutation relations")
    p_fck.add_argument("--format", choices=("plain", "json"), default="plain")
    p_fck.add_argument("--force", action="store_true",
                       help="override the --n limit for this run")

    p_cau = add_command("cauchy", "Cauchy transform on a grid (CSV)", commands.run_cauchy,
                        s=1.0, t=1.0)
    p_cau.add_argument("--lam", type=_float, default=1.0,
                       help="rate parameter lambda (rational, default 1); a "
                       "negative value needs the --lam=-1/2 form")
    _add_st_flags(p_cau, 1.0, 0.0, value=_float)
    p_cau.add_argument("--depth", type=_at_least(1), default=80,
                       help="continued fraction truncation depth")
    p_cau.add_argument("--re", type=_grid, default="-2:4:7", metavar="MIN:MAX:STEPS",
                       help="grid of real parts (default -2:4:7); give a "
                       "negative MIN in the --re=MIN:MAX:STEPS form")
    p_cau.add_argument("--im", type=lambda text: _grid(text, positive=True),
                       default="0.5:3.5:7", metavar="MIN:MAX:STEPS",
                       help="grid of positive imaginary parts (default "
                       "0.5:3.5:7); --im=MIN:MAX:STEPS also works")
    p_cau.add_argument("--closed", action="store_true",
                       help="also evaluate the s=1, t->0 closed form and the difference")
    p_cau.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cau.add_argument("--force", action="store_true",
                       help="override the --depth and grid limits for this run")

    return parser


_parser = None  # built by the first main call; parsing leaves it unchanged


def main(argv=None) -> int:
    global _parser
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # values print in full, past 4,300 digits
    if _parser is None:
        _parser = build_parser()
    try:
        try:
            args = _parser.parse_args(argv)
            code = args.run(args)
        finally:
            sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the
        # interpreter's last flush of what is still buffered stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
