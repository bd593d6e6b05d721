"""Set partitions, non-crossing partitions, and their depth statistics.

Partitions of [n] = {1, ..., n} are stored as tuples of blocks, each block a
strictly increasing tuple of integers, blocks ordered by their minimum.  The
statistics attached to a non-crossing partition are the per-block depths
(number of blocks strictly nesting the block), their total td1, and the
intermediate-element total td2 = sum over blocks of size >= 3 of
(size - 2) * depth.

The enumerator and block_sums split a region (a run of labels) at the block
containing its first element; the gaps between that block's consecutive
elements are partitioned independently, one level deeper.  The enumerator
is one depth-first walk with an explicit stack over a queue of pending
regions: each step chooses the first block of the region at the front and
puts its gaps ahead of the regions still waiting.  Each region's choices are
computed once per walk and kept when the region has at most n // 2 points
(those recur often); longer regions generate them lazily (_choices_memo).
It yields each non-crossing partition once in a fixed order, with no size
cap (NC(n) grows like Catalan(n); the CLI guards its listings).  Block depths are read
back from the blocks in one stack sweep (block_depths).  nc_weight_counts
runs the same walk with block_depths' stack carried in its frames, and
counts the partitions by blocks, td1, td2 and trailing singletons without
building any.  block_sums adds up per-block weights without listing any
partition, and so counts the families.
"""

from __future__ import annotations

from collections import namedtuple
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
    """True iff no two blocks interleave as b1 < c1 < b2 < c2.

    One sweep over the elements in increasing order keeps a stack of the
    blocks opened and not yet closed: an element that is not the first of
    its block must belong to the block on top of the stack.
    """
    owner = {x: b for b in p.blocks for x in b}
    open_blocks = []
    for x in sorted(owner):
        b = owner[x]
        if x != b[0] and open_blocks.pop() is not b:
            return False
        if x != b[-1]:
            open_blocks.append(b)
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


class PartitionStats(namedtuple("PartitionStats", "block_depths td1 td2")):
    """Depth statistics of a non-crossing partition, in block order."""

    __slots__ = ()


def block_depths(blocks) -> list:
    """Depth of every block of a non-crossing partition, in block order.

    The blocks nesting B are the earlier blocks (by minimum) that are still
    open at B's first element.  One sweep in block order keeps the last
    elements of the open blocks on a stack, innermost on top: the ends below
    B's first element close, and B's depth is the number left.
    """
    ends, depths = [], []
    for b in blocks:
        first = b[0]
        while ends and ends[-1] < first:
            ends.pop()
        depths.append(len(ends))
        ends.append(b[-1])
    return depths


def stats(p: NCPartition) -> PartitionStats:
    """Block depths from one stack sweep (block_depths), and the totals td1, td2."""
    depths = block_depths(p.blocks)
    td2 = sum((len(b) - 2) * d for b, d in zip(p.blocks, depths) if len(b) >= 3)
    return PartitionStats(
        block_depths=tuple(depths),
        td1=sum(depths),
        td2=td2,
    )


def _region_choices(lo: int, hi: int):
    """Yield the choices (block, gaps) for the first block of the region lo..hi.

    The block holds lo and any subset of lo+1..hi, by size and then
    lexicographically; gaps are the runs between its consecutive elements
    and after its last one, as (lo, hi) regions in increasing order.
    """
    for size in range(hi - lo + 1):
        for chosen in combinations(range(lo + 1, hi + 1), size):
            gaps = []
            prev = lo
            for x in chosen:
                if x > prev + 1:
                    gaps.append((prev + 1, x - 1))
                prev = x
            if prev < hi:
                gaps.append((prev + 1, hi))
            yield (lo, *chosen), tuple(gaps)


def _choices_memo(n: int):
    """A map from a region (lo, hi) of [n] to an iterator over its choices.
    Those of a region of at most n // 2 points are computed once and kept
    (they recur often); longer regions generate them lazily."""
    memo = {}

    def choices(region):
        lo, hi = region
        if hi - lo >= n // 2:
            return _region_choices(lo, hi)
        cached = memo.get(region)
        if cached is None:
            cached = memo[region] = tuple(_region_choices(lo, hi))
        return iter(cached)

    return choices


def enumerate_nc(n: int):
    """Yield every non-crossing partition of [n] once, in a fixed order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    trusted = NCPartition._trusted
    choices_of = _choices_memo(n)
    # frames: (choices left for the region at the front, the regions waiting
    # after it, the blocks chosen before it)
    stack = [(_region_choices(1, n), (), ())]
    while stack:
        choices, waiting, chosen = stack[-1]
        for block, gaps in choices:
            pending = gaps + waiting
            if not pending:
                yield trusted(n, (*chosen, block))
                continue
            stack.append((choices_of(pending[0]), pending[1:], (*chosen, block)))
            break
        else:
            stack.pop()


def nc_weight_counts(n: int) -> dict:
    """{(blocks, td1, td2, tail): count} over NC(n), from enumerate_nc's walk.

    Each frame carries what the blocks chosen before its region give: the
    ends of the blocks still open at the region's first point (block_depths'
    stack, so the region's first block has their number as depth), the
    block count, td1, td2 and tail, the run of trailing singletons at depth
    0.  Blocks come out in order of their first point, so a depth-0
    singleton adds 1 to tail and any other block resets it; at the end,
    tail = j says that the last j points are singletons at depth 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = {}
    choices_of = _choices_memo(n)
    # frames: (choices left for the region at the front, the regions waiting
    # after it, the ends open at its first point, blocks, td1, td2, tail)
    stack = [(_region_choices(1, n), (), (), 0, 0, 0, 0)]
    while stack:
        choices, waiting, ends, k, td1, td2, tail = stack[-1]
        d = len(ends)
        for block, gaps in choices:
            size = len(block)
            nd2 = td2 + (size - 2) * d if size > 2 else td2
            ntail = tail + 1 if size == 1 and not d else 0
            pending = gaps + waiting
            if not pending:
                key = (k + 1, td1 + d, nd2, ntail)
                counts[key] = counts.get(key, 0) + 1
                continue
            region = pending[0]
            lo = region[0]
            opened = (*ends, block[-1])
            while opened and opened[-1] < lo:
                opened = opened[:-1]
            stack.append((choices_of(region), pending[1:], opened, k + 1, td1 + d, nd2, ntail))
            break
        else:
            stack.pop()
    return counts


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
    """Yield the members of the requested restricted family of NC(n); the
    depths are swept only for a partition with a block that may not be inner."""
    ok = _INNER_OK[family]
    for p in enumerate_nc(n):
        blocks = p.blocks
        if all(ok(len(b)) for b in blocks) or all(
                d == 0 or ok(len(b)) for b, d in zip(blocks, block_depths(blocks))):
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
