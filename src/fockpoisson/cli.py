"""Command-line interface exposing all engines with machine-readable output.

Word strings on this CLI read left-to-right in order of application: the
first character is the factor applied first to the vacuum (the rightmost
factor of the written operator product).

Options match by full name only.  Only moments --engine nc|all and partitions
--list list partitions; counts come from a recursion.  The one cost guard is
a CLI rule, checked before any work and lifted for one run by --force: each
engine has a largest n in ENGINE_NMAX_LIMITS (nc 12, blockwise 28, jacobi 36,
operator 40), moments --nmax past the limit of any chosen engine is refused,
and so is partitions --list --n past the nc limit, and partitions --n past
COUNT_N_LIMIT (57) for the counts.

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
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import analytic, fock, moments, partitions, words
from .partitions import Family
from .poly import ONE, S, T, ZERO

# First ten values of the lam = 1 conditionally free sequence, kept as a
# built-in cross-check for the sequence command (OEIS A054391 family).
CFREE_SEQUENCE_REFERENCE = (1, 2, 5, 14, 41, 123, 374, 1147, 3538, 10958)

ENGINE_NAMES = tuple(moments.ENGINE_TABLES)

# moments.ENGINE_TABLES with one override: jacobi runs once per row, because
# bench/tracing.py reads its loop ops from moment_jacobi's span; this line
# goes when the spans live in the package (ROADMAP item 1).
_ENGINE_TABLES = {
    **moments.ENGINE_TABLES,
    "jacobi": lambda nmax, s, t: [moments.moment_jacobi(n, s, t) for n in range(nmax + 1)],
}

# Largest n that each engine computes without --force: moments --nmax, and
# for nc also partitions --list --n, which lists the same NC(n) and keeps
# the limit 12 although the nc table is cheaper.  At its limit a run took
# 0.7 s (nc; 3.4 s for partitions --list, 7 s with --stats), 8 s
# (blockwise, 58 MB RSS), 5.9 to 6.1 s (jacobi, 213 MB) and 6.7 to 9.5 s
# (operator, 414 MB) on a 2-vCPU VM with Python 3.11, three runs each, and
# the cost grows by about a fifth (jacobi, operator), three quarters
# (blockwise) or threefold (nc) per row: jacobi --nmax 40 ran for 17 s at
# 406 MB, nc --nmax 13 for 2.3 s.
ENGINE_NMAX_LIMITS = {"nc": 12, "blockwise": 28, "jacobi": 36, "operator": 40}

# Largest n that partitions counts without --force, with or without
# --count-by-blocks.  The first-block recursion costs most for --family NC:
# a count took 7.7 to 9.4 s at n = 57 and 10.3 to 11.4 s at 58 (17 MB RSS),
# the other families at most 1.2 s at 57, on a 2-vCPU VM with Python 3.11.
COUNT_N_LIMIT = 57

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


def _grid(text: str) -> list:
    """MIN:MAX:STEPS as STEPS evenly spaced floats, every one finite."""
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:STEPS, got {text!r}") from None
    if steps < 1:
        raise argparse.ArgumentTypeError("STEPS must be >= 1")
    grid = [lo] if steps == 1 else [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    # nan <= 0 is false, so a nan would pass every later range check
    if not all(math.isfinite(v) for v in (lo, hi, *grid)):
        raise argparse.ArgumentTypeError(
            f"MIN, MAX and the grid points must be finite, got {text!r}")
    return grid


def _positive_grid(text: str) -> list:
    grid = _grid(text)
    if any(v <= 0 for v in grid):
        raise argparse.ArgumentTypeError("imaginary parts must be positive")
    return grid


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


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _limit_exit(name: str, limit: int, n: int, force: bool) -> int:
    """0 if the engine name may compute up to size n; else report its limit
    and return the exit code 3."""
    if force or n <= limit:
        return 0
    print(f"error: n = {n} exceeds the {name} engine's limit {limit}; "
          f"its cost grows steeply with n", file=sys.stderr)
    print("pass --force to override the limit for this run", file=sys.stderr)
    return 3


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

    p_mom = add_command("moments", "moment table by one engine or all", _cmd_moments,
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
                        _cmd_sequence)
    p_seq.add_argument("--nmax", type=_at_least(1), default=10)
    p_seq.add_argument("--format", choices=("plain", "json"), default="plain")

    p_par = add_command("partitions", "enumerate or count partition families",
                        _cmd_partitions)
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

    p_wrd = add_command("words", "admissibility, bijection, card weights", _cmd_words)
    src = p_wrd.add_mutually_exclusive_group(required=True)
    src.add_argument("--check", dest="word", type=_word, metavar="WORD",
                     help="word over C/A/M/K")
    src.add_argument("--from-partition", dest="word", type=_partition_word, metavar="JSON",
                     help="blocks as a JSON array of arrays")
    p_wrd.add_argument("--cards", action="store_true", help="draw the card arrangement")
    p_wrd.add_argument("--degenerate", action="store_true",
                       help="weigh intermediate cards in the degenerate t = 1 mode")
    p_wrd.add_argument("--format", choices=("plain", "json"), default="plain")

    p_fck = add_command("fock", "dump operator matrices, check relations", _cmd_fock)
    p_fck.add_argument("--n", type=_at_least(1), default=6, help="truncation level")
    p_fck.add_argument("--dump",
                       choices=("poisson", "creation", "annihilation", "scalar",
                                "intermediate"),
                       help="print the matrix as JSON polynomial strings")
    p_fck.add_argument("--relations", action="store_true",
                       help="verify the commutation relations")
    p_fck.add_argument("--format", choices=("plain", "json"), default="plain")

    p_cau = add_command("cauchy", "Cauchy transform on a grid (CSV)", _cmd_cauchy,
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
    p_cau.add_argument("--im", type=_positive_grid, default="0.5:3.5:7",
                       metavar="MIN:MAX:STEPS",
                       help="grid of positive imaginary parts (default "
                       "0.5:3.5:7); --im=MIN:MAX:STEPS also works")
    p_cau.add_argument("--closed", action="store_true",
                       help="also evaluate the s=1, t->0 closed form and the difference")
    p_cau.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


# -- moments -----------------------------------------------------------------


def _cmd_moments(args) -> int:
    engines = ENGINE_NAMES if args.engine == "all" else (args.engine,)
    lowest = min(engines, key=ENGINE_NMAX_LIMITS.get)
    if code := _limit_exit(lowest, ENGINE_NMAX_LIMITS[lowest], args.nmax, args.force):
        return code

    tables = [_ENGINE_TABLES[name](args.nmax, args.s, args.t) for name in engines]
    agree = all(table[1:] == tables[0][1:] for table in tables)
    at = args.at
    # (n, m_n, m_n at --at or None), rendered by each format below
    rows = [(n, poly, None if at is None else poly.eval(*at))
            for n, poly in enumerate(tables[0][1:], 1)]

    out = []
    if args.format == "plain":
        for n, poly, value in rows:
            out.append(f"m_{n} = {poly}" + ("" if value is None else f" = {value}"))
        if args.engine == "all":
            out.append("ENGINES AGREE" if agree else "ENGINE DISAGREEMENT")
        print("\n".join(out))
    elif args.format == "csv":
        out.append("n,moment" + ("" if at is None else ",value"))
        for n, poly, value in rows:
            out.append(f'{n},"{poly}"' + ("" if value is None else f",{value}"))
        print("\n".join(out))
    else:
        payload = {
            "engine": args.engine,
            "rows": [
                {
                    "n": n,
                    "moment": str(poly),
                    "terms": poly.to_json_terms(),
                    **({} if value is None else {"value": str(value)}),
                }
                for n, poly, value in rows
            ],
        }
        if args.engine == "all":
            payload["engines_agree"] = agree
        print(json.dumps(payload, indent=2))
    return 0 if agree else 1


def _cmd_sequence(args) -> int:
    # l = 1, s = 1, t -> 0 substituted into one Jacobi walk over the integers;
    # cfree_moments, the first-block recursion at s = 1, t -> 0, is the tests'
    # oracle for these values
    values = moments.motzkin_walk(args.nmax, moments.jacobi(args.nmax // 2 + 1, 1, 1, 0))[1:]
    upto = min(args.nmax, len(CFREE_SEQUENCE_REFERENCE))
    matches = tuple(values[:upto]) == CFREE_SEQUENCE_REFERENCE[:upto]
    if args.format == "plain":
        print(" ".join(str(v) for v in values))
    else:
        print(json.dumps({"values": values, "matches_reference": matches}))
    if not matches:
        print("error: sequence deviates from the built-in reference values",
              file=sys.stderr)
        return 1
    return 0


# -- partitions ----------------------------------------------------------------


def _cmd_partitions(args) -> int:
    if args.stats and not args.list:
        args.error("--stats applies only with --list")
    if args.list and args.format == "csv":
        args.error("--list has no csv format; use plain or json")
    name, limit = ("nc", ENGINE_NMAX_LIMITS["nc"]) if args.list else ("count", COUNT_N_LIMIT)
    if code := _limit_exit(name, limit, args.n, args.force):
        return code
    family = Family[args.family]

    if args.count_by_blocks:
        counts = partitions.count_by_blocks(args.n, family)
        if args.format == "json":
            print(json.dumps({"n": args.n, "family": family.name,
                              "counts_by_blocks": counts, "total": sum(counts)}))
        elif args.format == "csv":
            print("blocks,count")
            for k, c in enumerate(counts, 1):
                print(f"{k},{c}")
        else:
            for k, c in enumerate(counts, 1):
                print(f"{k} {c}")
            print(f"total {sum(counts)}")
        return 0

    if args.list:
        items = []
        as_json = args.format == "json"
        for p in partitions.enumerate_family(args.n, family):
            blocks = p.to_json_obj()
            if not as_json:
                blocks = json.dumps(blocks, separators=(",", ":"))
            if args.stats:
                st = p.stats()
                w = moments.weight(p, st)
                if as_json:
                    items.append({"blocks": blocks,
                                  "depths": list(st.block_depths),
                                  "td1": st.td1, "td2": st.td2,
                                  "weight": str(w)})
                else:
                    print(f"{blocks} depths={list(st.block_depths)} "
                          f"td1={st.td1} td2={st.td2} weight={w}")
            elif as_json:
                items.append(blocks)
            else:
                print(blocks)
        if as_json:
            print(json.dumps(items))
        return 0

    total = sum(partitions.count_by_blocks(args.n, family))
    if args.format == "json":
        print(json.dumps({"n": args.n, "family": family.name, "count": total}))
    elif args.format == "csv":
        print("n,family,count")
        print(f"{args.n},{family.name},{total}")
    else:
        print(total)
    return 0


# -- words -----------------------------------------------------------------------


def _cmd_words(args) -> int:
    word = args.word
    admissible = word.is_admissible()
    info = {"word": str(word), "levels": word.levels(), "admissible": admissible}
    if admissible:
        arr = word.arrangement(degenerate_t=args.degenerate)
        weight = arr.total_weight
        info["partition"] = word.to_partition().to_json_obj()
        info["cards"] = arr.labels()
        info["weight"] = str(weight)
        if args.format == "json":  # plain output never prints the terms
            info["weight_terms"] = weight.to_json_terms()
        if args.cards:
            info["drawing"] = arr.render()

    if args.format == "json":
        print(json.dumps(info, indent=2))
        return 0

    print(f"word: {info['word']}")
    print(f"levels: {' '.join(str(v) for v in info['levels'])}")
    print(f"admissible: {'yes' if admissible else 'no'}")
    if admissible:
        print(f"partition: {json.dumps(info['partition'], separators=(',', ':'))}")
        print(f"cards: {' '.join(info['cards'])}")
        print(f"weight: {info['weight']}")
        if args.cards:
            print(info["drawing"])
    return 0


# -- fock ------------------------------------------------------------------------


def _cmd_fock(args) -> int:
    if not (args.dump or args.relations):
        args.error("nothing to do; pass --dump and/or --relations")
    if args.relations and args.n < 2:
        args.error("--relations needs --n >= 2")
    payload = {}  # one JSON document: the dump's keys, then the relations'
    if args.dump:
        if args.dump == "poisson":
            matrix = fock.poisson_matrix(args.n)
        else:
            creation, annihilation, scalar, intermediate = fock.build_generators(args.n)
            matrix = {"creation": creation, "annihilation": annihilation,
                      "scalar": scalar, "intermediate": intermediate}[args.dump]
        payload.update(operator=args.dump, dim=matrix.dim, entries=matrix.to_json_obj())
    report = fock.check_relations(args.n) if args.relations else {}
    ok = all(report.values())
    if args.relations and args.format == "json":
        payload.update(n=args.n, relations=report, all_hold=ok)
    if payload:
        print(json.dumps(payload, indent=2 if args.dump else None))
    if args.relations and args.format == "plain":
        for name, holds in report.items():
            print(f"{name}: {'ok' if holds else 'FAILED'}")
        print("ALL RELATIONS HOLD" if ok else "RELATION CHECK FAILED")
    return 0 if ok else 1


# -- cauchy -----------------------------------------------------------------------


def _cmd_cauchy(args) -> int:
    if args.closed and not (args.s == 1.0 and args.t == 0.0):
        args.error("--closed requires s = 1 and t -> 0 (--s-one --t-zero)")

    # lam, s, t and depth are fixed for the command, so the coefficients are
    # built once; each point is what analytic.cauchy_cf(z, ...) returns.  The
    # grid is finite and in the upper half-plane, so no point raises.
    try:
        alphas, omegas = analytic.jacobi_floats(args.lam, args.s, args.t, args.depth)
    except analytic.DomainError as exc:
        args.error(str(exc))
    rows = []
    for im in args.im:
        for re in args.re:
            z = complex(re, im)
            g = analytic.continued_fraction(z, alphas, omegas)
            row = [re, im, g.real, g.imag]
            if args.closed:
                gc = analytic.cauchy_cfree_closed(z, args.lam)
                row += [gc.real, gc.imag, abs(g - gc)]
            rows.append(row)

    header = ["re_z", "im_z", "re_g", "im_g"]
    if args.closed:
        header += ["re_g_closed", "im_g_closed", "abs_diff"]
    if args.format == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows]))
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt_float(v) for v in row))
    return 0


_parser = None  # built by the first main call; parsing leaves it unchanged


def main(argv=None) -> int:
    global _parser
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
