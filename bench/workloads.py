"""The benchmark's workloads: fixed CLI item lists built from a seed, each
item with a check of its output by a route other than the one timed.

The seed draws only inputs: words and partitions, --at rationals, Cauchy
parameters and grid offsets.  Item sizes are fixed, so seeds change shapes
and values, not the amount of work.  See README.md for why each workload
exists and which layers it stresses.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference as ref

WORKLOADS = ("combinatorial", "recurrence", "cauchy")

# A generic point for polynomial identity checks of printed moment tables.
POINT = (7, 11, 13)
CAUCHY_DEPTH = 200
GRID_STEPS = 15
WORD_CALLS = 100  # of each kind: --from-partition --cards and --check
LAURENT_SAMPLES = 64
LAURENT_NMAX = 6


class CheckFailed(Exception):
    """An item's output disagrees with the benchmark's reference route."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Item:
    """One CLI call.  ``check(out, outputs, run_cli)`` raises on a wrong
    output; ``outputs`` maps item names to this pass's stdout and
    ``run_cli(argv) -> (exit_code, stdout)`` allows extra probing calls."""

    name: str
    argv: tuple
    check: Callable


def build(workload: str, seed: int):
    """The item list of a workload for a seed; same seed, same items."""
    rng = random.Random(f"{workload}:{seed}")
    return {
        "combinatorial": _combinatorial,
        "recurrence": _recurrence,
        "cauchy": _cauchy,
    }[workload](rng)


# -- shared parsing -------------------------------------------------------


def _moment_rows(out: str, nmax: int):
    """[(poly_text, value_text or None)] for m_1..m_nmax of a plain table."""
    rows = []
    for n, line in enumerate(out.splitlines()[:nmax], start=1):
        head, _, rest = line.partition(" = ")
        expect(head == f"m_{n}", f"row {n} reads {line[:40]!r}")
        poly, _, value = rest.partition(" = ")
        rows.append((poly, value or None))
    expect(len(rows) == nmax, f"expected {nmax} rows, got {len(rows)}")
    return rows


def _check_moments_at_point(rows, point) -> None:
    exact = ref.moments_at(len(rows), *point)
    for n, (poly, _) in enumerate(rows, start=1):
        got = ref.eval_poly(ref.parse_poly(poly), *point)
        expect(got == exact[n], f"m_{n} at {point} is {got}, expected {exact[n]}")


def _grid_arg(flag: str, lo: float, hi: float) -> str:
    # The '=' form: argparse reads a separate negative value as an option.
    return f"--{flag}={lo}:{hi}:{GRID_STEPS}"


def _csv_rows(out: str, header: str):
    lines = out.splitlines()
    expect(lines and lines[0] == header, f"unexpected CSV header {lines[:1]}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    expect(len(rows) == GRID_STEPS * GRID_STEPS, f"expected a 15x15 grid, got {len(rows)}")
    return rows


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# -- combinatorial ----------------------------------------------------------


def _combinatorial(rng):
    items = [
        Item("moments-all-10", ("moments", "--engine", "all", "--nmax", "10"),
             _check_engines_agree),
        Item("sequence-10", ("sequence", "--nmax", "10"), _check_sequence),
    ]
    for family in ("NC12_INNER", "ALMOST_INTERVAL"):
        items.append(Item(
            f"count-by-blocks-{family}-10",
            ("partitions", "--n", "10", "--count-by-blocks", "--family", family),
            _count_by_blocks_check(10, family),
        ))
    items.append(Item("list-stats-8",
                      ("partitions", "--n", "8", "--list", "--stats", "--format", "json"),
                      _list_stats_check(8)))
    for i in range(2 * WORD_CALLS):
        n = 12 + (i // 2) % 29  # sizes 12..40, the same for every seed
        word = ref.random_word(rng, n)
        if i % 2 == 0:
            blocks = ref.blocks_of(word)
            text = json.dumps(blocks, separators=(",", ":"))
            items.append(Item(f"words-partition-{i}",
                              ("words", "--from-partition", text, "--cards"),
                              _word_check(word)))
        else:
            if rng.random() < 0.2:  # a letter swapped in: usually not admissible
                k = rng.randrange(n)
                word = word[:k] + rng.choice("CAMK") + word[k + 1:]
            items.append(Item(f"words-check-{i}", ("words", "--check", word),
                              _word_check(word)))
    return items


def _check_engines_agree(out, outputs, run_cli):
    lines = out.splitlines()
    expect(lines[-1] == "ENGINES AGREE", f"last line is {lines[-1]!r}")
    _check_moments_at_point(_moment_rows(out, 10), POINT)


def _check_sequence(out, outputs, run_cli):
    values = [int(v) for v in out.split()]
    expect(values == ref.moments_at(10, 1, 1, 0)[1:], f"sequence reads {values}")


def _count_by_blocks_check(n, family):
    def check(out, outputs, run_cli):
        lines = [line.split() for line in out.splitlines()]
        expect(lines[-1][0] == "total", "missing total line")
        counts = [int(c) for k, c in lines[:-1]]
        expected = ref.family_counts_by_blocks(n, family)
        expect(counts == expected, f"counts {counts}, expected {expected}")
        expect(int(lines[-1][1]) == sum(counts), "total is not the sum of the counts")
        if family == "NC":
            expect(sum(counts) == ref.catalan(n), "NC counts do not sum to Catalan(n)")
    return check


def _list_stats_check(n):
    def check(out, outputs, run_cli):
        entries = json.loads(out)
        expect(len(entries) == ref.catalan(n), f"{len(entries)} partitions listed")
        seen = set()
        for e in entries:
            blocks = e["blocks"]
            key = tuple(tuple(b) for b in blocks)
            expect(key not in seen, f"{blocks} listed twice")
            seen.add(key)
            expect(sorted(x for b in blocks for x in b) == list(range(1, n + 1)),
                   f"{blocks} is not a partition of [{n}]")
            expect(ref.is_noncrossing(blocks), f"{blocks} is crossing")
            depths, td1, td2 = ref.depth_stats(blocks)
            expect((e["depths"], e["td1"], e["td2"]) == (depths, td1, td2),
                   f"stats of {blocks}")
            expect(e["weight"] == ref.weight_str(blocks), f"weight of {blocks}")
    return check


def _word_check(word):
    """Round trip word -> partition -> word, levels, cards and weight."""
    def check(out, outputs, run_cli):
        fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        expect(fields["word"] == word, f"word echoed as {fields['word']!r}")
        expect(fields["levels"].split() == [str(v) for v in ref.levels_of(word)], "levels")
        ok = ref.admissible(word)
        expect(fields["admissible"] == ("yes" if ok else "no"), "admissibility")
        if not ok:
            return
        blocks = json.loads(fields["partition"])
        expect(blocks == ref.blocks_of(word), f"partition {blocks}")
        expect(ref.word_of(blocks) == word, "partition does not map back to the word")
        expect(fields["cards"].split() == ref.card_labels(word), "card labels")
        expect(fields["weight"] == ref.weight_str(blocks), f"weight {fields['weight']}")
    return check


# -- recurrence -------------------------------------------------------------


def _rational(rng, lo, hi, den):
    return Fraction(rng.randint(lo, hi), den)


def _recurrence(rng):
    at = (_rational(rng, 1, 12, 4), _rational(rng, 1, 8, 8), _rational(rng, 1, 8, 8))
    return [
        Item("jacobi-18", ("moments", "--engine", "jacobi", "--nmax", "18"),
             _table_check(18)),
        Item("operator-16", ("moments", "--engine", "operator", "--nmax", "16"),
             _table_check(16, same_as="jacobi-18")),
        Item("jacobi-16-cfree-at",
             ("moments", "--engine", "jacobi", "--nmax", "16", "--s-one", "--t-zero",
              "--at", ",".join(map(str, at))),
             _cfree_at_check(16, at[0])),
        Item("fock-relations-12", ("fock", "--n", "12", "--relations"), _check_relations),
    ]


def _table_check(nmax, same_as=None):
    def check(out, outputs, run_cli):
        rows = _moment_rows(out, nmax)
        _check_moments_at_point(rows, POINT)
        if same_as is not None:
            other = _moment_rows(outputs[same_as], nmax)
            expect(rows == other, f"rows differ from {same_as}")
    return check


def _cfree_at_check(nmax, lam):
    def check(out, outputs, run_cli):
        rows = _moment_rows(out, nmax)
        exact = ref.moments_at(nmax, lam, 1, 0)
        limit = ref.moments_at(nmax, POINT[0], 1, 0)
        for n, (poly, value) in enumerate(rows, start=1):
            terms = ref.parse_poly(poly)
            expect(all(es == et == 0 for _, es, et in terms), f"m_{n} keeps s or t")
            expect(ref.eval_poly(terms, POINT[0], 1, 0) == limit[n], f"m_{n} polynomial")
            expect(Fraction(value) == exact[n], f"m_{n} value {value}, expected {exact[n]}")
    return check


def _check_relations(out, outputs, run_cli):
    lines = out.splitlines()
    expect(lines[-1] == "ALL RELATIONS HOLD", f"last line is {lines[-1]!r}")
    expect(len(lines) > 1 and all(line.endswith(": ok") for line in lines[:-1]),
           "a relation is not reported ok")


# -- cauchy -----------------------------------------------------------------


def _cauchy(rng):
    def grid():
        re_lo = -2 + rng.randint(-8, 8) / 16
        im_lo = round(0.05 + rng.randint(0, 5) / 100, 2)
        return (_grid_arg("re", re_lo, re_lo + 7), _grid_arg("im", im_lo, round(im_lo + 3, 2)))

    def lam():
        return _rational(rng, 2, 8, 4)

    depth = ("--depth", str(CAUCHY_DEPTH))
    lg, sg, tg = lam(), _rational(rng, 1, 8, 8), _rational(rng, 1, 8, 8)
    lc, lb = lam(), lam()
    return [
        Item("cauchy-generic",
             ("cauchy", "--lam", str(lg), "--s", str(sg), "--t", str(tg), *depth, *grid()),
             _generic_check(lg, sg, tg)),
        Item("cauchy-cfree-closed",
             ("cauchy", "--lam", str(lc), "--s-one", "--t-zero", "--closed", *depth, *grid()),
             _cfree_check(lc)),
        Item("cauchy-boolean",
             ("cauchy", "--lam", str(lb), "--s-zero", "--t-zero", *depth, *grid()),
             _boolean_check(lb)),
    ]


def _generic_check(lam, s, t):
    fl, fs, ft = float(lam), float(s), float(t)

    def check(out, outputs, run_cli):
        for x, y, gr, gi in _csv_rows(out, "re_z,im_z,re_g,im_g"):
            want = ref.cauchy_cf(complex(x, y), fl, fs, ft, CAUCHY_DEPTH)
            expect(_close(complex(gr, gi), want, 1e-9), f"G({x}+{y}i)")
        # Moments read off G on a circle well outside the support must be
        # the exact moments at the same (l, s, t).
        radius = 2 * (fl + 1 + 2 * math.sqrt(fl))
        values = []
        for z in ref.circle_points(radius, LAURENT_SAMPLES):
            code, text = run_cli(("cauchy", "--lam", str(lam), "--s", str(s), "--t", str(t),
                                  "--depth", str(CAUCHY_DEPTH),
                                  f"--re={z.real!r}:{z.real!r}:1",
                                  f"--im={z.imag!r}:{z.imag!r}:1"))
            expect(code == 0, f"cauchy at {z} exited {code}")
            _, _, gr, gi = map(float, text.splitlines()[1].split(","))
            values.append(complex(gr, gi))
        got = ref.laurent_moments(values, radius, LAURENT_SAMPLES, LAURENT_NMAX)
        exact = ref.moments_at(LAURENT_NMAX, lam, s, t)
        for n in range(LAURENT_NMAX + 1):
            expect(abs(got[n] - exact[n]) <= 1e-13 * radius ** (n + 1),
                   f"Laurent m_{n} = {got[n]}, exact {float(exact[n])}")
    return check


def _cfree_check(lam):
    fl = float(lam)

    def check(out, outputs, run_cli):
        header = "re_z,im_z,re_g,im_g,re_g_closed,im_g_closed,abs_diff"
        for x, y, gr, gi, cr, ci, diff in _csv_rows(out, header):
            z, g, gc = complex(x, y), complex(gr, gi), complex(cr, ci)
            cf = ref.cauchy_cf(z, fl, 1.0, 0.0, CAUCHY_DEPTH)
            expect(_close(g, cf, 1e-9), f"G({z})")
            expect(_close(gc, ref.cauchy_cfree(z, fl), 1e-9), f"closed form at {z}")
            expect(abs(diff - abs(g - gc)) <= 1e-12, f"abs_diff column at {z}")
            # The truncation error at this depth, read off by doubling it.
            trunc = abs(cf - ref.cauchy_cf(z, fl, 1.0, 0.0, 2 * CAUCHY_DEPTH))
            expect(diff <= 2 * trunc + 1e-9, f"|G - closed| = {diff} at {z}")
    return check


def _boolean_check(lam):
    fl = float(lam)

    def check(out, outputs, run_cli):
        for x, y, gr, gi in _csv_rows(out, "re_z,im_z,re_g,im_g"):
            z = complex(x, y)
            expect(_close(complex(gr, gi), ref.cauchy_boolean(z, fl), 1e-9), f"G({z})")
    return check
