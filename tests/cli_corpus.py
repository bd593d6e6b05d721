"""A committed corpus of CLI calls, one sha256 per named group.

GROUPS maps a group name to its argv list, generated deterministically.
Each call runs in process through cli.main; its record is argv, exit code,
stdout and stderr, and a group's digest is the sha256 of its records in
order.  A refused usage (exit 2) is recorded by its last stderr line, the
`fockpoisson <cmd>: error: ...` line: argparse's usage line above it wraps
at the terminal width and its layout differs between Python versions.

tests/cli_corpus.json holds the digests, and tests/test_cli_corpus.py
recomputes them.  After an intended output change, regenerate the file and
name the changed groups in CHANGES.md:

    PYTHONPATH=src python tests/cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from fockpoisson.cli import main
from fockpoisson.commands import ENGINE_NAMES
from fockpoisson.partitions import Family

DIGESTS = Path(__file__).with_name("cli_corpus.json")

# the nine limit-flag pairs: each of s and t as a variable, at one, at zero
ST_FLAGS = [(*s, *t) for s in ((), ("--s-one",), ("--s-zero",))
            for t in ((), ("--t-one",), ("--t-zero",))]
_AT = "--at=3/2,1/3,2/5"


def _moments(engine):
    calls = [("moments", "--engine", engine, "--nmax", str(n), *flags)
             for n in range(9) for flags in ST_FLAGS]
    calls += [("moments", "--engine", engine, "--nmax", str(n), *flags, *at, "--format", fmt)
              for n in (1, 5) for flags in ST_FLAGS for at in ((), (_AT,))
              for fmt in ("plain", "json", "csv")]
    if engine in ("jacobi", "operator"):  # rows past the s = 2**(2n) digit width of n <= 8
        calls += [("moments", "--engine", engine, "--nmax", n, *flags)
                  for n, flags in (("16", ()), ("16", ("--t-zero",)), ("16", ("--s-one",)),
                                   ("24", ("--t-zero",)), ("24", ("--s-one",)))]
    return calls


def _partitions():
    calls = []
    for family in Family:
        base = ("partitions", "--family", family.name)
        for n in range(1, 11):
            for fmt in ("plain", "json", "csv"):
                calls.append((*base, "--n", str(n), "--format", fmt))
                calls.append((*base, "--n", str(n), "--count-by-blocks", "--format", fmt))
        for n in range(1, 8):
            for fmt in ("plain", "json"):
                calls.append((*base, "--n", str(n), "--list", "--format", fmt))
                calls.append((*base, "--n", str(n), "--list", "--stats", "--format", fmt))
    return calls


def _words():
    checks = ("C", "CA", "CMCKAA", "CCCAMAA", "CKKAMCA", "AC", "CCA", "M", "K")
    blocks = ("[[1]]", "[[1,2]]", "[[1,3],[2]]", "[[1,7],[2,5,6],[3,4]]",
              "[[1,4],[2],[3],[5,6]]", "[[1,2,3,4]]")
    calls = []
    for source in [("--check", w) for w in checks] + [("--from-partition", b) for b in blocks]:
        for extra in ((), ("--cards",), ("--degenerate", "--cards")):
            for fmt in ("plain", "json"):
                calls.append(("words", *source, *extra, "--format", fmt))
    return calls


def _fock():
    matrices = ("poisson", "creation", "annihilation", "scalar", "intermediate")
    dumps = [("fock", "--n", str(n), "--dump", m) for n in range(1, 8) for m in matrices]
    relations = [("fock", "--n", str(n), "--relations", "--format", fmt)
                 for n in range(2, 13) for fmt in ("plain", "json")]
    relations += [("fock", "--n", "4", "--dump", "poisson", "--relations", "--format", fmt)
                  for fmt in ("plain", "json")]
    return dumps, relations


def _cauchy():
    grid = ("--re=-1:2:4", "--im=0.5:1.5:3")
    legs = [(), ("--s-zero", "--t-zero"), ("--s-one", "--t-zero", "--closed"),
            ("--s=1/2", "--t=1/3"), ("--lam=5/2", "--s-one", "--t-one")]
    return [("cauchy", *grid, "--depth", depth, *leg, "--format", fmt)
            for depth in ("1", "40") for leg in legs for fmt in ("csv", "json")]


_REFUSED_USAGE = [
    ("moments", "--nmax", "-1"),
    ("moments", "--nmax", "x"),
    ("moments", "--at", "1,2"),
    ("moments", "--at", "1,2,x"),
    ("moments", "--s-one", "--s-zero"),
    ("sequence", "--nmax", "0"),
    ("partitions", "--n", "0"),
    ("partitions", "--n", "4", "--stats"),
    ("partitions", "--n", "3", "--list", "--format", "csv"),
    ("words", "--check", "CXA"),
    ("words", "--from-partition", "[[1,3],[2,4]]"),
    ("words", "--from-partition", "{}"),
    ("fock", "--n", "3"),
    ("fock", "--n", "1", "--relations"),
    ("fock", "--n", "0", "--dump", "poisson"),
    ("cauchy", "--im=-1:1:3"),
    ("cauchy", "--re=1:2:0"),
    ("cauchy", "--re=nan:1:2"),
    ("cauchy", "--closed"),
    ("cauchy", "--lam=-1", "--s-one", "--t-zero"),
    ("cauchy", "--s=1e999"),
]

_REFUSED_LIMIT = [
    ("moments", "--nmax", "13"),
    *[("moments", "--engine", engine, "--nmax", str(limit + 1))
      for engine, limit in (("nc", 12), ("blockwise", 28), ("jacobi", 36), ("operator", 40))],
    ("partitions", "--n", "13", "--list"),
    ("partitions", "--n", "58"),
    ("partitions", "--n", "58", "--count-by-blocks"),
    ("cauchy", "--depth", "1000001", "--re=0:1:1", "--im=1:1:1"),
    ("cauchy", "--depth", "1", "--re=0:1:1000", "--im=1:2:251"),
    ("cauchy", "--depth", "1", "--re=0:1:100000000", "--im=1:1:1"),
    ("cauchy", "--depth", "1000", "--re=0:1:500", "--im=1:2:101"),
    ("fock", "--n", "601", "--relations"),
    ("fock", "--n", "601", "--dump", "poisson"),
]

_dumps, _relations = _fock()
GROUPS = {
    **{f"moments-{engine}": _moments(engine) for engine in (*ENGINE_NAMES, "all")},
    "sequence": [("sequence", "--nmax", str(n), "--format", fmt)
                 for n in range(1, 40) for fmt in ("plain", "json")],
    "partitions": _partitions(),
    "words": _words(),
    "fock-dump": _dumps,
    "fock-relations": _relations,
    "cauchy": _cauchy(),
    "refused-usage": _REFUSED_USAGE,
    "refused-limit": _REFUSED_LIMIT,
}


def record(argv) -> str:
    """argv, exit code, stdout and stderr of one in-process call, as JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    err = err.getvalue()
    if code == 2:
        err = err.splitlines()[-1]
    return json.dumps([list(argv), code, out.getvalue(), err])


def digest(group: str) -> str:
    h = hashlib.sha256()
    for argv in GROUPS[group]:
        h.update(record(argv).encode())
        h.update(b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    digests = {group: digest(group) for group in GROUPS}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"{sum(map(len, GROUPS.values()))} calls in {len(GROUPS)} groups -> {DIGESTS}",
          file=sys.stderr)
