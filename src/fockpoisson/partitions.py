"""Non-crossing partitions and their depth statistics.

NCPartition is the one partition class.  A partition of [n] = {1, ..., n} is
stored as a tuple of blocks, each block a strictly increasing tuple of
integers, blocks ordered by their minimum.  Its constructor validates a
partition where it comes in from outside (the CLI, a library caller) and
refuses crossing blocks; the enumerator and OperatorWord.to_partition build
canonical blocks themselves and skip that check (NCPartition._trusted).
is_noncrossing(blocks) takes the blocks of any set partition.  The
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
is a second, separate enumeration of NC(n): one sweep over the points with
is_noncrossing's stack of open blocks, which counts the partitions by
blocks, td1, td2 and trailing singletons without building any.  block_sums
adds up per-block weights without listing any partition, and
count_by_blocks counts with it the families: a Family is its inner-block
cap, the most points a block at depth >= 1 may have.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from itertools import combinations

from .poly import LAM


def is_noncrossing(blocks) -> bool:
    """True iff no two of the blocks, a partition of [n], interleave as
    b1 < c1 < b2 < c2.

    One sweep over the elements in increasing order keeps a stack of the
    blocks opened and not yet closed: an element that is not the first of
    its block must belong to the block on top of the stack.
    """
    owner = {x: b for b in blocks for x in b}
    open_blocks = []
    for x in sorted(owner):
        b = owner[x]
        if x != b[0] and open_blocks.pop() is not b:
            return False
        if x != b[-1]:
            open_blocks.append(b)
    return True


class NCPartition:
    """A non-crossing partition of {1..n} into disjoint nonempty blocks; the
    constructor validates outside input and rejects crossing blocks."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks):
        if n < 0:
            raise ValueError("n must be >= 0")
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
        if not is_noncrossing(self.blocks):
            raise ValueError(f"partition {self.blocks} is crossing")

    @classmethod
    def _trusted(cls, n: int, blocks) -> "NCPartition":
        # For the package's own builders, whose blocks are canonical tuples.
        obj = cls.__new__(cls)
        obj.n = n
        obj.blocks = blocks
        return obj

    def __eq__(self, other):
        if not isinstance(other, NCPartition):
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
    """{(blocks, td1, td2, tail): count} over NC(n), from one sweep over the
    points 1..n that visits each member once, merging no two of them.

    The sweep keeps is_noncrossing's stack of open blocks as its height h: a
    point is a singleton, opens a block, or joins the innermost open block
    as a middle or last point.  A block's depth is h at its first point, so
    a new block, singleton or opened, adds h to td1, and a middle point adds
    h - 1 to td2.  No move leaves more blocks open than points after it.
    tail is the run of trailing points that are singletons at depth 0: at
    the end, tail = j says that the last j points are such singletons.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = {}
    # frames: (the next point x, open blocks h, blocks, td1, td2, tail)
    stack = [(1, 0, 0, 0, 0, 0)]
    push, pop = stack.append, stack.pop
    while stack:
        x, h, k, td1, td2, tail = pop()
        if x == n:  # a singleton at depth 0, or the last open block's end
            key = (k, td1, td2, 0) if h else (k + 1, td1, td2, tail + 1)
            counts[key] = counts.get(key, 0) + 1
            continue
        left, x = n - x, x + 1
        if h <= left:
            push((x, h, k + 1, td1 + h, td2, 0 if h else tail + 1))
            if h < left:
                push((x, h + 1, k + 1, td1 + h, td2, 0))
            if h:
                push((x, h, k, td1, td2 + h - 1, 0))
        if h:
            push((x, h - 1, k, td1, td2, 0))
    return counts


class Family(Enum):
    """A family of NC(n) is its inner-block cap: the most points a block at
    depth >= 1 may have; blocks at depth 0 are unrestricted."""

    NC = math.inf
    INTERVAL = 0
    ALMOST_INTERVAL = 1
    NC12_INNER = 2


def enumerate_family(n: int, family: Family):
    """Yield the members of NC(n) whose inner blocks have at most family.value
    points; the depths are swept only for a partition with a larger block."""
    cap = family.value
    for p in enumerate_nc(n):
        blocks = p.blocks
        if max(map(len, blocks)) <= cap or all(
                d == 0 or len(b) <= cap for b, d in zip(blocks, block_depths(blocks))):
            yield p


def block_sums(n: int, weight):
    """[W(0), ..., W(n)]: W(m) sums, over NC(m), the product over blocks of
    weight(size, depth), a ring element that mixes with int (int, MultiPoly).

    The block holding a region's first point has size k at the region's
    depth d; its k - 1 gaps are regions at depth d + 1 and the points after
    it a region at depth d, which has at most n - 2d points.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
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


def count_by_blocks(n: int, family: Family):
    """Counts of family members with exactly k blocks, for k = 1..n: the
    coefficients of l^k in the first-block recursion where a block weighs l
    if it is at depth 0 or has at most family.value points, and 0 if not.
    moments.limit_case substitutes (s, t) into the moment recursion instead:
    FREE (s = t = 1) removes no inner block, BOOLEAN (s, t -> 0) every one and
    CFREE (s = 1, t -> 0) those of three or more points, so the tests check
    NC, INTERVAL and NC12_INNER against those rows."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = family.value
    total = block_sums(n, lambda k, d: LAM if d == 0 or k <= cap else 0)[n]
    return [total.coefficient(el=k) for k in range(1, n + 1)]
