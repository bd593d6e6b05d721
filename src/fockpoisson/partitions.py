"""Set partitions, non-crossing partitions, and their depth statistics.

Partitions of [n] = {1, ..., n} are stored as tuples of blocks, each block a
strictly increasing tuple of integers, blocks ordered by their minimum.  The
statistics attached to a non-crossing partition are the per-block depths
(number of blocks strictly nesting the block), their total td1, and the
intermediate-element total td2 = sum over blocks of size >= 3 of
(size - 2) * depth.

The enumerator and block_sums recurse on the block containing the first
element; the gaps between its consecutive elements are partitioned
independently, one level deeper.  The enumerator lazily lists each
non-crossing partition once in a fixed order, with no size cap (NC(n) grows
like Catalan(n); the CLI guards its listings); block_sums adds up per-block
weights without listing any, and so counts the families.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .poly import LAM


class SetPartition:
    """A partition of {1..n} into disjoint nonempty blocks."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks):
        blocks = tuple(tuple(b) for b in blocks)
        seen = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            if any(type(x) is not int for x in b):
                raise ValueError(f"block {b} has an element that is not an integer")
            if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
                raise ValueError(f"block {b} is not strictly increasing")
            seen.update(b)
        if len(seen) != sum(len(b) for b in blocks):
            raise ValueError("blocks are not pairwise disjoint")
        if seen != set(range(1, n + 1)):
            raise ValueError(f"blocks do not cover 1..{n}")
        self.n = n
        self.blocks = tuple(sorted(blocks, key=lambda b: b[0]))

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        inner = ",".join("[" + ",".join(map(str, b)) + "]" for b in self.blocks)
        return f"{type(self).__name__}([{inner}])"

    def to_json_obj(self):
        return [list(b) for b in self.blocks]


def is_noncrossing(p: SetPartition) -> bool:
    """True iff no two blocks interleave as b1 < c1 < b2 < c2."""
    blocks = p.blocks
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            merged = sorted(
                [(x, 0) for x in blocks[i]] + [(x, 1) for x in blocks[j]]
            )
            alternations = 1
            for k in range(1, len(merged)):
                if merged[k][1] != merged[k - 1][1]:
                    alternations += 1
            if alternations >= 4:
                return False
    return True


class NCPartition(SetPartition):
    """A non-crossing partition; the constructor rejects crossing input."""

    __slots__ = ()

    def __init__(self, n: int, blocks):
        super().__init__(n, blocks)
        if not is_noncrossing(self):
            raise ValueError(f"partition {self.blocks} is crossing")

    @classmethod
    def _trusted(cls, n: int, blocks) -> "NCPartition":
        # Fast path for the enumerator, which produces canonical blocks.
        obj = cls.__new__(cls)
        obj.n = n
        obj.blocks = blocks
        return obj

    def stats(self) -> "PartitionStats":
        return stats(self)


@dataclass(frozen=True)
class PartitionStats:
    """Depth statistics of a non-crossing partition, in block order."""

    block_depths: tuple
    td1: int
    td2: int
    inner_flags: tuple


def stats(p: NCPartition) -> PartitionStats:
    """Block depths by interval containment, and the totals td1, td2.

    For a non-crossing partition the blocks nesting B are exactly those whose
    first/last elements bracket B's interval, so depth is a pairwise interval
    test rather than a per-element cover count.
    """
    spans = [(b[0], b[-1]) for b in p.blocks]
    depths = []
    for fb, lb in spans:
        d = 0
        for fc, lc in spans:
            if fc < fb and lb < lc:
                d += 1
        depths.append(d)
    td1 = sum(depths)
    td2 = sum(
        (len(b) - 2) * d for b, d in zip(p.blocks, depths) if len(b) >= 3
    )
    return PartitionStats(
        block_depths=tuple(depths),
        td1=td1,
        td2=td2,
        inner_flags=tuple(d >= 1 for d in depths),
    )


def _gap_partitions(gaps, idx):
    """Lazily combine independent partitions of each gap, in gap order."""
    if idx == len(gaps):
        yield ()
        return
    for head in _nc_blocks(gaps[idx]):
        for tail in _gap_partitions(gaps, idx + 1):
            yield head + tail


def _nc_blocks(elems):
    """Yield non-crossing partitions of the sorted label tuple as block tuples.

    The block containing the first element is chosen outright; every other
    block must fall entirely inside one gap between its consecutive elements,
    so the gaps are partitioned independently.  Gap spans increase left to
    right, which keeps the emitted blocks ordered by minimum with no sorting.
    """
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for size in range(len(rest) + 1):
        for chosen in combinations(range(len(rest)), size):
            block = (first,) + tuple(rest[i] for i in chosen)
            gaps = []
            prev = -1
            for i in chosen:
                if i > prev + 1:
                    gaps.append(rest[prev + 1 : i])
                prev = i
            if prev + 1 < len(rest):
                gaps.append(rest[prev + 1 :])
            for combo in _gap_partitions(gaps, 0):
                yield (block,) + combo


def enumerate_nc(n: int):
    """Yield every non-crossing partition of [n] once, in a fixed order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for blocks in _nc_blocks(tuple(range(1, n + 1))):
        yield NCPartition._trusted(n, blocks)


class Family(Enum):
    """Restrictions on which blocks may be inner (depth >= 1)."""

    NC = "NC"
    INTERVAL = "INTERVAL"
    ALMOST_INTERVAL = "ALMOST_INTERVAL"
    NC12_INNER = "NC12_INNER"


# Blocks at depth 0 are unrestricted; an inner block of size k must pass
# its family's test.
_INNER_OK = {
    Family.NC: lambda k: True,
    Family.INTERVAL: lambda k: False,
    Family.ALMOST_INTERVAL: lambda k: k == 1,
    Family.NC12_INNER: lambda k: k <= 2,
}


def enumerate_family(n: int, family: Family):
    """Yield the members of the requested restricted family of NC(n)."""
    ok = _INNER_OK[family]
    for p in enumerate_nc(n):
        if all(d == 0 or ok(len(b)) for b, d in zip(p.blocks, stats(p).block_depths)):
            yield p


def block_sums(n: int, weight):
    """[W(0), ..., W(n)]: W(m) sums, over NC(m), the product over blocks of
    weight(size, depth), a ring element that mixes with int (int, MultiPoly).

    The block holding a region's first point has size k at the region's
    depth d; its k - 1 gaps are regions at depth d + 1 and the points after
    it a region at depth d, which has at most n - 2d points.
    """
    inner = [1]  # regions at depth d + 1, by number of points
    for d in range(n // 2, -1, -1):
        size = n - 2 * d
        ws = [weight(k, d) for k in range(1, size + 1)]
        kmax = max((k for k, w in enumerate(ws, 1) if w), default=0)
        # chain[m]: the first block's k points and its k - 1 gaps, m points in all
        chain = [0, 1] + [0] * (size - 1)
        span = [0] * (size + 1)
        for k, w in enumerate(ws[:kmax], 1):
            if k > 1:
                chain = [0] + [sum(chain[m - g - 1] * inner[g]
                                   for g in range(min(m - 1, len(inner)))
                                   if chain[m - g - 1] and inner[g])
                               for m in range(1, size + 1)]
            if w:
                for m in range(k, size + 1):
                    if chain[m]:
                        span[m] += w * chain[m]
        region = [1] + [0] * size
        for m in range(1, size + 1):
            region[m] = sum(span[j] * region[m - j] for j in range(1, m + 1) if span[j])
        inner = region
    return inner


def family_sums(n: int, family: Family):
    """[F(0), ..., F(n)]: F(m) sums l^blocks over the family's members of NC(m)."""
    ok = _INNER_OK[family]
    return block_sums(n, lambda k, d: LAM if d == 0 or ok(k) else 0)


def count_by_blocks(n: int, family: Family):
    """Counts of family members with exactly k blocks, for k = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = family_sums(n, family)[n]
    return [total.coefficient(el=k) for k in range(1, n + 1)]
