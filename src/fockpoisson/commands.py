"""The bodies of the fockpoisson commands that cli.build_parser dispatches
to: each takes the parsed arguments, computes, prints and returns 0, 1 or 3,
and refuses input that argparse cannot check alone through args.error.
Imports run one way: cli imports this module, and this module nothing of
cli.

Only moments --engine nc|all and partitions --list list partitions; counts
come from a recursion.  The one cost guard is a CLI rule, checked before any
work and lifted for one run by --force: each engine has a largest n in
ENGINE_NMAX_LIMITS (nc 12, blockwise 28, jacobi 36, operator 40), moments
--nmax past the limit of any chosen engine is refused, and so is partitions
--list --n past the nc limit, partitions --n past COUNT_N_LIMIT (57) for the
counts, sequence --nmax past SEQUENCE_NMAX_LIMIT (6,000), fock --n past
FOCK_N_LIMIT (600), and a cauchy --depth, number of grid points or depth
times grid points past its limit in CAUCHY_LIMITS.

Listings and tables stream row by row: partitions --list writes each member
as it is enumerated, and moments each row as it renders it, its JSON in
json.dumps(indent=2)'s layout written directly.  The tables, their --at
values and the engines' agreement are computed before the first byte.
"""

from __future__ import annotations

import json
import math
import sys

from . import analytic, fock, moments, partitions
from .partitions import Family

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
# 0.14 to 0.22 s (nc, six runs; 1.8 to 2.4 s for partitions --list, 3.8 to
# 4 s with --stats), 8 s (blockwise, 58 MB RSS), 5.9 to 6.1 s (jacobi,
# 213 MB) and 6.7 to 9.5 s (operator, 414 MB) on a 2-vCPU VM with Python
# 3.11, three runs each, and the cost grows by about a fifth (jacobi,
# operator), three quarters (blockwise) or threefold (nc) per row: jacobi
# --nmax 40 ran for 17 s at 406 MB, nc --nmax 13 for 0.34 to 0.43 s.
ENGINE_NMAX_LIMITS = {"nc": 12, "blockwise": 28, "jacobi": 36, "operator": 40}

# Largest n that partitions counts without --force, with or without
# --count-by-blocks.  The first-block recursion costs most for --family NC:
# a count took 7.7 to 9.4 s at n = 57 and 10.3 to 11.4 s at 58 (17 MB RSS),
# the other families at most 1.2 s at 57, on a 2-vCPU VM with Python 3.11.
COUNT_N_LIMIT = 57

# Largest --depth, number of grid points and depth times grid points (the
# keys, as a refusal names them) that cauchy evaluates without --force.  A
# generic (s, t), here s = t = 0.9999, walks every level of every point,
# about 0.11 us each, and a point costs about 4 us and 370 bytes more:
# depth 1,000,000 took 0.8 s at 115 MB on one point (about 100 bytes a
# level) and 7.3 s on 50; depth 5,000 on 10,000 points 5.9 s at 20 MB; depth
# 80 on 250,000 points 3.3 s at 105 MB (4.3 s at 158 MB for --format json);
# one run each on a 2-vCPU VM with Python 3.11.
CAUCHY_LIMITS = {"depth": 1_000_000, "grid points": 250_000,
                 "depth * grid points": 50_000_000}

# Largest sequence --nmax without --force.  Its values grow about threefold
# per row, so the walk's n^2 / 4 integer steps act on up to n / 2 digits:
# --nmax 4,000, 5,000, 6,000 and 7,000 took 2.1, 3.8, 7.1 to 7.5 and 9.5 s
# end to end at 30, 35, 41 and 49 MB peak RSS, and 9,000 took 24 s, one run
# each (three at 6,000) on a 2-vCPU VM with Python 3.11.7.
SEQUENCE_NMAX_LIMIT = 6000

# Largest fock --n without --force.  The tables are dense, so memory grows
# like n^2, and so does time: --relations applies each product of generators
# to the n basis vectors, and each apply reads n rows.  --relations took
# 1.6-2.0 s at 25 MB at n = 400, 3.0-3.5 s at 38 MB at 600 and 4.4-5.2 s at
# 55 MB at 800; --dump poisson 0.2-0.3, 0.4-0.6 and 0.6-1.0 s at 31, 51 and
# 78 MB; two runs each on a 2-vCPU VM with Python 3.11.
FOCK_N_LIMIT = 600

_json_str = json.encoder.encode_basestring_ascii  # json.dumps's own string encoder


def _points(lo: float, hi: float, steps: int, indices=None) -> list:
    """The points of the grid MIN:MAX:STEPS, or those at the given indices."""
    return [lo if steps == 1 else lo + (hi - lo) * i / (steps - 1)
            for i in indices or range(steps)]


def _limit_exit(name: str, limit: int, n: int, force: bool, size: str = "n") -> int:
    """0 if n, the run's size by the measure size, is within the engine
    name's limit or force is set; else report the limit and return 3."""
    if force or n <= limit:
        return 0
    print(f"error: {size} = {n} exceeds the {name} engine's limit {limit}; "
          f"its cost grows steeply with {size}", file=sys.stderr)
    print("pass --force to override the limit for this run", file=sys.stderr)
    return 3


# -- moments -----------------------------------------------------------------


def run_moments(args) -> int:
    engines = ENGINE_NAMES if args.engine == "all" else (args.engine,)
    lowest = min(engines, key=ENGINE_NMAX_LIMITS.get)
    if code := _limit_exit(lowest, ENGINE_NMAX_LIMITS[lowest], args.nmax, args.force):
        return code

    tables = [_ENGINE_TABLES[name](args.nmax, args.s, args.t) for name in engines]
    agree = all(table[1:] == tables[0][1:] for table in tables)
    at = args.at
    # (n, m_n, m_n at --at or None), all computed before the first byte and
    # rendered row by row by each format below
    rows = [(n, poly, None if at is None else poly.eval(*at))
            for n, poly in enumerate(tables[0][1:], 1)]

    if args.format == "plain":
        for n, poly, value in rows:
            print(f"m_{n} = {poly}" + ("" if value is None else f" = {value}"))
        if args.engine == "all":
            print("ENGINES AGREE" if agree else "ENGINE DISAGREEMENT")
        elif not rows:
            print()
    elif args.format == "csv":
        print("n,moment" + ("" if at is None else ",value"))
        for n, poly, value in rows:
            print(f'{n},"{poly}"' + ("" if value is None else f",{value}"))
    else:
        _write_json_table(args.engine, rows, agree if args.engine == "all" else None)
    return 0 if agree else 1


def _write_json_table(engine, rows, agree):
    """The moments JSON document, byte for byte what json.dumps(indent=2)
    makes of {"engine", "rows": [{"n", "moment", "terms", "value"?}],
    "engines_agree"?}, with each row's terms as MultiPoly.to_json_terms
    gives them, written one row at a time; agree None leaves out
    engines_agree."""
    write = sys.stdout.write
    write(f'{{\n  "engine": {_json_str(engine)},\n  "rows": [')
    lead = "\n"
    for n, poly, value in rows:
        # el is an int, or json's float text for a half unit
        terms = ",\n".join([
            f'        {{\n          "el": {repr(el2 / 2) if el2 & 1 else el2 >> 1},\n'
            f'          "es": {es},\n          "et": {et},\n          "coeff": "{c}"\n        }}'
            for (el2, es, et), c in poly.terms()])
        terms = f"[\n{terms}\n      ]" if terms else "[]"
        value = "" if value is None else f',\n      "value": {_json_str(str(value))}'
        write(f'{lead}    {{\n      "n": {n},\n      "moment": {_json_str(str(poly))},\n'
              f'      "terms": {terms}{value}\n    }}')
        lead = ",\n"
    write("\n  ]" if rows else "]")
    if agree is not None:
        write(f',\n  "engines_agree": {json.dumps(agree)}')
    write("\n}\n")


def run_sequence(args) -> int:
    if code := _limit_exit("sequence", SEQUENCE_NMAX_LIMIT, args.nmax, args.force):
        return code
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


def run_partitions(args) -> int:
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
        # each member is written as it is enumerated; str of a list of ints
        # is its json.dumps text, and without the spaces its compact text
        as_json = args.format == "json"
        lead = "["
        for p in partitions.enumerate_family(args.n, family):
            blocks = p.to_json_obj()
            if args.stats:
                st = p.stats()
                w = moments.weight(p, st)
            if as_json:
                sys.stdout.write(lead + (
                    f'{{"blocks": {blocks}, "depths": {list(st.block_depths)}, '
                    f'"td1": {st.td1}, "td2": {st.td2}, "weight": {_json_str(str(w))}}}'
                    if args.stats else str(blocks)))
                lead = ", "
            else:
                blocks = str(blocks).replace(" ", "")
                print(f"{blocks} depths={list(st.block_depths)} td1={st.td1} td2={st.td2} "
                      f"weight={w}" if args.stats else blocks)
        if as_json:
            print("[]" if lead == "[" else "]")
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


def run_words(args) -> int:
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
        print(f"partition: {str(info['partition']).replace(' ', '')}")
        print(f"cards: {' '.join(info['cards'])}")
        print(f"weight: {info['weight']}")
        if args.cards:
            print(info["drawing"])
    return 0


# -- fock ------------------------------------------------------------------------


def run_fock(args) -> int:
    if not (args.dump or args.relations):
        args.error("nothing to do; pass --dump and/or --relations")
    if args.relations and args.n < 2:
        args.error("--relations needs --n >= 2")
    if code := _limit_exit("fock", FOCK_N_LIMIT, args.n, args.force):
        return code
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


def run_cauchy(args) -> int:
    if args.closed and not (args.s == 1.0 and args.t == 0.0):
        args.error("--closed requires s = 1 and t -> 0 (--s-one --t-zero)")
    points = args.re[2] * args.im[2]  # the STEPS of the two grids
    for size, n in {"depth": args.depth, "grid points": points,
                    "depth * grid points": args.depth * points}.items():
        if code := _limit_exit("cauchy", CAUCHY_LIMITS[size], n, args.force, size):
            return code

    # lam, s, t and depth are fixed for the command, so the coefficients and
    # the start of their repeated tail are found once; each point is what
    # analytic.cauchy_cf(z, ...) returns.  A value past the float range
    # refuses its point before anything prints.
    rows = []
    try:
        alphas, omegas = analytic.jacobi_floats(args.lam, args.s, args.t, args.depth)
        start = analytic.run_start(alphas, omegas)
        res = _points(*args.re)
        for im in _points(*args.im):
            for re in res:
                z = complex(re, im)
                g = analytic.continued_fraction(z, alphas, omegas, start)
                row = (re, im, g.real, g.imag)
                if args.closed:
                    gc = analytic.cauchy_cfree_closed(z, args.lam)
                    row += (gc.real, gc.imag, abs(g - gc))
                if not all(map(math.isfinite, row)):
                    raise analytic.DomainError(f"a value is not finite at z = {z}")
                rows.append(row)
    except analytic.DomainError as exc:
        args.error(str(exc))

    header = ["re_z", "im_z", "re_g", "im_g"]
    if args.closed:
        header += ["re_g_closed", "im_g_closed", "abs_diff"]
    if args.format == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows]))
    else:
        template = ",".join(["%.17g"] * len(header))
        print("\n".join([",".join(header)] + [template % row for row in rows]))
    return 0
