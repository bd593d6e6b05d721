"""Command-line interface exposing all engines with machine-readable output.

Word strings on this CLI read left-to-right in order of application: the
first character is the factor applied first to the vacuum (the rightmost
factor of the written operator product).

Options match by full name only.  Only moments --engine nc|all and partitions
--list list partitions; counts come from a recursion.  The one cost guard is
a CLI rule, checked before any work and lifted for one run by --force: each
engine has a largest n in ENGINE_NMAX_LIMITS (nc 12, blockwise 24, jacobi 36,
operator 32), moments --nmax past the limit of any chosen engine is refused,
and so is partitions --list --n past the nc limit.

Exit codes: 0 success; 1 cross-engine disagreement or failed relation check
(a theorem-check failure, distinct from user error); 2 usage error; 3 an
engine's limit exceeded without --force; 141 stdout closed by its reader (as
in `fockpoisson ... | head`, help text included), with nothing on stderr.
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

ENGINE_NAMES = ("nc", "blockwise", "jacobi", "operator")

# Each engine maps (nmax, s, t) to the table [m_0, ..., m_nmax].  Engines are
# looked up by module attribute at call time, so wrappers bound to those
# attributes (tracing, tests) see every call.  nc lists NC(nmax) once and
# reads every row from it; jacobi runs once per row.
_ENGINE_TABLES = {
    "nc": lambda nmax, s, t: moments.nc_moments(nmax, s, t),
    "blockwise": lambda nmax, s, t: moments.blockwise_moments(nmax, s, t),
    # per row while bench/tracing.py reads its loop ops from moment_jacobi's span
    "jacobi": lambda nmax, s, t: [moments.moment_jacobi(n, s, t) for n in range(nmax + 1)],
    "operator": lambda nmax, s, t: fock.vacuum_moments(nmax, s, t),
}

# Largest n that each engine computes without --force: moments --nmax, and
# for nc also partitions --list --n, which lists the same NC(n) and keeps
# the limit 12 although the nc table is cheaper.  At its limit a run took
# 0.7 s (nc; 3.4 s for partitions --list, 7 s with --stats), 8.1 s
# (blockwise), 10 s (jacobi, 230 MB RSS) and 8.5 s (operator) on a 2-vCPU
# VM with Python 3.11, and the cost grows by about a fifth (jacobi), a
# third (operator), two thirds (blockwise) or threefold (nc) per row:
# jacobi --nmax 40 ran for 22 s at 440 MB, blockwise --nmax 26 for 30 s,
# nc --nmax 13 for 2.3 s.
ENGINE_NMAX_LIMITS = {"nc": 12, "blockwise": 24, "jacobi": 36, "operator": 32}

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


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _engine_limit_exit(engines, n: int, force: bool) -> int:
    """0 if every engine may compute up to size n; else report the first
    engine whose limit n exceeds and return the exit code 3."""
    if force:
        return 0
    for name in engines:
        limit = ENGINE_NMAX_LIMITS[name]
        if n > limit:
            print(f"error: n = {n} exceeds the {name} engine's limit {limit}; "
                  f"its cost grows steeply with n", file=sys.stderr)
            print("pass --force to override the limit for this run", file=sys.stderr)
            return 3
    return 0


def _add_st_flags(parser, with_lambda=True):
    """The s/t limit flags; with_lambda adds the values --lam, --s and --t."""
    if with_lambda:
        parser.add_argument("--lam", type=_fraction, default=Fraction(1),
                            help="rate parameter lambda (rational, default 1)")
    for v in ("s", "t"):
        group = parser.add_mutually_exclusive_group()
        if with_lambda:
            group.add_argument(f"--{v}", type=_fraction, help=f"deformation parameter "
                               f"{v} in [0, 1]; 0 and 1 equal --{v}-zero and --{v}-one")
        group.add_argument(f"--{v}-one", action="store_true", help=f"specialize {v} = 1")
        group.add_argument(f"--{v}-zero", action="store_true", help=f"take the limit {v} -> 0")


def _st_values(args, one, zero, s, t) -> tuple:
    """(s, t) after the limit flags: one or zero of the target ring where a
    flag is given, the passed s or t where not."""
    if args.s_one:
        s = one
    elif args.s_zero:
        s = zero
    if args.t_one:
        t = one
    elif args.t_zero:
        t = zero
    return s, t


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

    def add_command(name, help):
        return sub.add_parser(name, help=help, allow_abbrev=False)

    p_mom = add_command("moments", help="moment table by one engine or all")
    p_mom.add_argument("--nmax", type=int, default=7)
    p_mom.add_argument("--engine", choices=ENGINE_NAMES + ("all",), default="all")
    _add_st_flags(p_mom, with_lambda=False)
    p_mom.add_argument("--at", type=_at_point, metavar="L,S,T",
                       help="also evaluate each row at rational lambda,s,t")
    p_mom.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_mom.add_argument("--force", action="store_true",
                       help="override the engines' --nmax limits for this run")

    p_seq = add_command("sequence", help="lam = 1 conditionally free moment sequence")
    p_seq.add_argument("--nmax", type=int, default=10)
    p_seq.add_argument("--format", choices=("plain", "json"), default="plain")

    p_par = add_command("partitions", help="enumerate or count partition families")
    p_par.add_argument("--n", type=int, required=True)
    p_par.add_argument("--family", choices=[f.name for f in Family], default="NC")
    mode = p_par.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="list the members")
    mode.add_argument("--count-by-blocks", action="store_true",
                      help="table of counts by number of blocks")
    p_par.add_argument("--stats", action="store_true",
                       help="with --list, include depths and weights")
    p_par.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_par.add_argument("--force", action="store_true",
                       help="with --list, override the nc engine's --n limit")

    p_wrd = add_command("words", help="admissibility, bijection, card weights")
    src = p_wrd.add_mutually_exclusive_group(required=True)
    src.add_argument("--check", metavar="WORD", help="word over C/A/M/K")
    src.add_argument("--from-partition", metavar="JSON",
                     help="blocks as a JSON array of arrays")
    p_wrd.add_argument("--cards", action="store_true", help="draw the card arrangement")
    p_wrd.add_argument("--degenerate", action="store_true",
                       help="weigh intermediate cards in the degenerate t = 1 mode")
    p_wrd.add_argument("--format", choices=("plain", "json"), default="plain")

    p_fck = add_command("fock", help="dump operator matrices, check relations")
    p_fck.add_argument("--n", type=int, default=6, help="truncation level")
    p_fck.add_argument("--dump",
                       choices=("poisson", "creation", "annihilation", "scalar",
                                "intermediate"),
                       help="print the matrix as JSON polynomial strings")
    p_fck.add_argument("--relations", action="store_true",
                       help="verify the commutation relations")
    p_fck.add_argument("--format", choices=("plain", "json"), default="plain")

    p_cau = add_command("cauchy", help="Cauchy transform on a grid (CSV)")
    _add_st_flags(p_cau)
    p_cau.add_argument("--depth", type=int, default=80,
                       help="continued fraction truncation depth")
    p_cau.add_argument("--re", default="-2:4:7", metavar="MIN:MAX:STEPS",
                       help="grid of real parts (default -2:4:7); give a "
                       "negative MIN in the --re=MIN:MAX:STEPS form")
    p_cau.add_argument("--im", default="0.5:3.5:7", metavar="MIN:MAX:STEPS",
                       help="grid of positive imaginary parts (default "
                       "0.5:3.5:7); --im=MIN:MAX:STEPS also works")
    p_cau.add_argument("--closed", action="store_true",
                       help="also evaluate the s=1, t->0 closed form and the difference")
    p_cau.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


# -- moments -----------------------------------------------------------------


def _cmd_moments(args) -> int:
    if args.nmax < 0:
        print("error: --nmax must be >= 0", file=sys.stderr)
        return 2
    engines = ENGINE_NAMES if args.engine == "all" else (args.engine,)
    if code := _engine_limit_exit(engines, args.nmax, args.force):
        return code

    s, t = _st_values(args, ONE, ZERO, S, T)
    tables = [_ENGINE_TABLES[name](args.nmax, s, t) for name in engines]
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
    if args.nmax < 1:
        print("error: --nmax must be >= 1", file=sys.stderr)
        return 2
    # l = 1, s = 1, t -> 0 substituted into one Jacobi walk over the integers;
    # cfree_moments, the first-block recursion at s = 1, t -> 0, is the tests'
    # oracle for these values
    values = moments.motzkin_walk(args.nmax, 1, 1, 0)[1:]
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
    if args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return 2
    if not args.list and (args.stats or args.force):
        print("error: --stats and --force apply only with --list", file=sys.stderr)
        return 2
    if args.list and args.format == "csv":
        print("error: --list has no csv format; use plain or json", file=sys.stderr)
        return 2
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
        if code := _engine_limit_exit(("nc",), args.n, args.force):
            return code
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
    if args.check is not None:
        try:
            word = words.OperatorWord.parse(args.check)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            blocks = json.loads(args.from_partition)
            if not (isinstance(blocks, list) and all(isinstance(b, list) for b in blocks)):
                raise ValueError("expected a JSON array of arrays")
            n = sum(len(b) for b in blocks)
            p = partitions.NCPartition(n, blocks)
        except (ValueError, TypeError) as exc:
            print(f"error: invalid partition: {exc}", file=sys.stderr)
            return 2
        word = words.OperatorWord.from_partition(p)

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
    if args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return 2
    if not (args.dump or args.relations):
        print("error: nothing to do; pass --dump and/or --relations", file=sys.stderr)
        return 2
    if args.relations and args.n < 2:
        print("error: --relations needs --n >= 2", file=sys.stderr)
        return 2
    status = 0
    if args.dump:
        if args.dump == "poisson":
            matrix = fock.poisson_matrix(args.n)
        else:
            creation, annihilation, scalar, intermediate = fock.build_generators(args.n)
            matrix = {"creation": creation, "annihilation": annihilation,
                      "scalar": scalar, "intermediate": intermediate}[args.dump]
        print(json.dumps({"operator": args.dump, "dim": matrix.dim,
                          "entries": matrix.to_json_obj()}, indent=2))
    if args.relations:
        report = fock.check_relations(args.n)
        ok = all(report.values())
        if args.format == "json":
            print(json.dumps({"n": args.n, "relations": report, "all_hold": ok}))
        else:
            for name, holds in report.items():
                print(f"{name}: {'ok' if holds else 'FAILED'}")
            print("ALL RELATIONS HOLD" if ok else "RELATION CHECK FAILED")
        if not ok:
            status = 1
    return status


# -- cauchy -----------------------------------------------------------------------


def _parse_range(text: str):
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise ValueError(f"expected MIN:MAX:STEPS, got {text!r}") from None
    if steps < 1:
        raise ValueError("STEPS must be >= 1")
    grid = [lo] if steps == 1 else [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    # nan <= 0 is false, so a nan would pass every later range check
    if not all(math.isfinite(v) for v in (lo, hi, *grid)):
        raise ValueError(f"MIN, MAX and the grid points must be finite, got {text!r}")
    return grid


def _cmd_cauchy(args) -> int:
    try:
        res = _parse_range(args.re)
        ims = _parse_range(args.im)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if any(v <= 0 for v in ims):
        print("error: imaginary parts must be positive", file=sys.stderr)
        return 2
    if args.depth < 1:
        print("error: --depth must be >= 1", file=sys.stderr)
        return 2
    try:
        lam = float(args.lam)
        s, t = _st_values(args, 1.0, 0.0,
                          1.0 if args.s is None else float(args.s),
                          1.0 if args.t is None else float(args.t))
    except OverflowError:
        print("error: --lam, --s and --t must lie within the float range", file=sys.stderr)
        return 2
    if args.closed and not (s == 1.0 and t == 0.0):
        print("error: --closed requires s = 1 and t -> 0 (--s-one --t-zero)",
              file=sys.stderr)
        return 2

    # lam, s, t and depth are fixed for the command, so the coefficients are
    # built once; each point is what analytic.cauchy_cf(z, ...) returns
    rows = []
    try:
        alphas, omegas = analytic.jacobi_floats(lam, s, t, args.depth)
        for im in ims:
            for re in res:
                z = complex(re, im)
                g = analytic.continued_fraction(z, alphas, omegas)
                row = [re, im, g.real, g.imag]
                if args.closed:
                    gc = analytic.cauchy_cfree_closed(z, lam)
                    row += [gc.real, gc.imag, abs(g - gc)]
                rows.append(row)
    except analytic.DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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


_COMMANDS = {
    "moments": _cmd_moments,
    "sequence": _cmd_sequence,
    "partitions": _cmd_partitions,
    "words": _cmd_words,
    "fock": _cmd_fock,
    "cauchy": _cmd_cauchy,
}


_parser = None  # built by the first main call; parsing leaves it unchanged


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        try:
            args = _parser.parse_args(argv)
            code = _COMMANDS[args.command](args)
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
