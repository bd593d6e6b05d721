import hashlib
import time
import tracemalloc
from collections import Counter, deque
from itertools import islice

import pytest

from fockpoisson.partitions import (
    Family,
    NCPartition,
    SetPartition,
    block_depths,
    block_sums,
    count_by_blocks,
    enumerate_family,
    enumerate_nc,
    is_noncrossing,
    nc_weight_counts,
    stats,
)

from oracles import (
    element_depth,
    has_crossing,
    nc_bruteforce,
    set_partitions_bruteforce,
)


def test_is_noncrossing_examples():
    assert is_noncrossing(SetPartition(6, [[1, 2, 6], [3, 5], [4]]))
    assert not is_noncrossing(SetPartition(4, [[1, 3], [2, 4]]))
    assert is_noncrossing(SetPartition(1, [[1]]))


def test_is_noncrossing_matches_definition():
    for n in range(1, 8):
        for blocks in set_partitions_bruteforce(n):
            p = SetPartition(n, blocks)
            assert is_noncrossing(p) == (not has_crossing(blocks))


def test_set_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2]])  # misses 3
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])  # overlap
    with pytest.raises(ValueError):
        SetPartition(3, [[2, 1], [3]])  # not increasing
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 3], [2], []])  # empty block
    with pytest.raises(ValueError):
        NCPartition(4, [[1, 3], [2, 4]])  # crossing


def test_negative_sizes_are_refused():
    with pytest.raises(ValueError, match="n must be >= 0"):
        SetPartition(-3, [])
    with pytest.raises(ValueError, match="n must be >= 0"):
        NCPartition(-1, [])
    with pytest.raises(ValueError, match="n must be >= 0"):
        block_sums(-1, lambda k, d: 1)
    assert SetPartition(0, []).blocks == ()
    assert block_sums(0, lambda k, d: 1) == [1]


def test_blocks_sorted_by_minimum():
    p = SetPartition(4, [[2, 4], [1], [3]])
    assert p.blocks == ((1,), (2, 4), (3,))


def test_enumerate_nc_small():
    assert [p.blocks for p in enumerate_nc(1)] == [((1,),)]
    assert sum(1 for _ in enumerate_nc(3)) == 5
    assert sum(1 for _ in enumerate_nc(4)) == 14


def test_enumerate_nc_matches_bruteforce():
    for n in range(1, 10):
        got = {p.blocks for p in enumerate_nc(n)}
        expected = set(nc_bruteforce(n))
        assert got == expected
        # each yielded exactly once
        assert sum(1 for _ in enumerate_nc(n)) == len(expected)


def test_enumerate_nc_count_n10_vs_filtered_bruteforce():
    count = sum(
        1
        for blocks in set_partitions_bruteforce(10)
        if is_noncrossing(SetPartition(10, blocks))
    )
    assert sum(1 for _ in enumerate_nc(10)) == count == 16796


# sha256 of repr([p.blocks for p in enumerate_nc(n)]), n = 1..11: the listing
# order that partitions --list prints, pinned across enumerator rewrites.
ENUMERATION_SHA256 = {
    1: "f2cb19bf566e9bf781b8e71a38981c8a1bb826bcc238e08031749d5b9c42af51",
    2: "d62a065017aca1b43367990b13e212936b8dde5d8445e8591b2d6b98a0445650",
    3: "6b16255dd17ae774b375166890d940748cda3e561c833769064667270306001b",
    4: "eb2bbe7e0e12d7e224f01a0d2e427ab068bcdd2229674f5350e12747e872994b",
    5: "ac2fe8c4fbeb662f438fd83e17c921a7d23c989828a1b9c589f35585f526faef",
    6: "02b77df80b4c8c6a85e8d639367a1413d3ce37c182eef2e48df42a6344a60817",
    7: "de8212b27aa70e4eb73a0ecaa6d60fcf17777180c68ec4c5f77698f45ab561c5",
    8: "0f616e0f63c4cd2e9cbd7efbed3dfe9659a07a1064c6f85917ee2cbf27227cef",
    9: "a309920a2889c4cb4bedbfe4a2bdfbf9986ea7a36fa762bc47c427d3c5ba15c9",
    10: "1849ed904c07b3b4de9cc95be4864b43832d0f3553ed0138a58605877c1644cb",
    11: "aa75622b8eb878acbbd7dbaaaa7b8d7d700bc6e45a090c82b70b0841d385d755",
}


def test_enumerate_nc_deterministic_order():
    assert [p.blocks for p in enumerate_nc(4)] == [
        ((1,), (2,), (3,), (4,)), ((1,), (2,), (3, 4)), ((1,), (2, 3), (4,)),
        ((1,), (2, 4), (3,)), ((1,), (2, 3, 4)), ((1, 2), (3,), (4,)), ((1, 2), (3, 4)),
        ((1, 3), (2,), (4,)), ((1, 4), (2,), (3,)), ((1, 4), (2, 3)), ((1, 2, 3), (4,)),
        ((1, 2, 4), (3,)), ((1, 3, 4), (2,)), ((1, 2, 3, 4),),
    ]
    for n, digest in ENUMERATION_SHA256.items():
        listing = repr([p.blocks for p in enumerate_nc(n)])
        assert hashlib.sha256(listing.encode()).hexdigest() == digest, n


def test_enumerate_nc_memory_bound():
    # Only regions of at most n // 2 points keep their first-block choices;
    # keeping every region's held about 6 MB over these 100,000 partitions.
    tracemalloc.start()
    try:
        deque(islice(enumerate_nc(14), 100_000), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_block_depths_match_definitions():
    for n in range(1, 11):
        for p in enumerate_nc(n):
            blocks = p.blocks
            nesting = [sum(1 for c in blocks if c[0] < b[0] and b[-1] < c[-1])
                       for b in blocks]
            depths = block_depths(blocks)
            assert depths == nesting
            assert depths == [element_depth(blocks, b[0]) for b in blocks]


def test_nc_weight_counts_match_the_listing():
    for n in range(1, 11):
        expected = Counter()
        for p in enumerate_nc(n):
            blocks = p.blocks
            depths = block_depths(blocks)
            tail = 0
            for b, d in zip(blocks, depths):
                tail = tail + 1 if len(b) == 1 and d == 0 else 0
            td2 = sum((len(b) - 2) * d for b, d in zip(blocks, depths) if len(b) > 2)
            expected[len(blocks), sum(depths), td2, tail] += 1
        assert nc_weight_counts(n) == expected, n
    # the last j points are singletons at depth 0 exactly when tail >= j
    counts = nc_weight_counts(6)
    assert sum(c for key, c in counts.items() if key[3] >= 2) == 14  # |NC(4)|
    assert counts[6, 0, 0, 6] == 1
    with pytest.raises(ValueError):
        nc_weight_counts(0)


def test_stats_examples():
    st = stats(NCPartition(6, [[1, 2, 6], [3, 5], [4]]))
    assert st.block_depths == (0, 1, 2)
    assert (st.td1, st.td2) == (3, 0)

    st = stats(NCPartition(7, [[1, 7], [2, 5, 6], [3, 4]]))
    assert st.block_depths == (0, 1, 2)
    assert (st.td1, st.td2) == (3, 1)

    st = stats(NCPartition(1, [[1]]))
    assert st.block_depths == (0,)
    assert (st.td1, st.td2) == (0, 0)


def test_depth_constant_within_block():
    # first, last and every intermediate element of a block share one depth
    for n in range(1, 11):
        for p in enumerate_nc(n):
            depths = stats(p).block_depths
            for b, d in zip(p.blocks, depths):
                assert {element_depth(p.blocks, a) for a in b} == {d}


def test_stats_match_element_depths():
    from oracles import weight_exponents

    for n in range(1, 10):
        for p in enumerate_nc(n):
            st = stats(p)
            k, td1, td2 = weight_exponents(p.blocks)
            assert (len(p.blocks), st.td1, st.td2) == (k, td1, td2)


def test_family_interval_n3():
    members = {p.blocks for p in enumerate_family(3, Family.INTERVAL)}
    assert len(members) == 4
    assert ((1, 3), (2,)) not in members


def test_family_n2_all_equal():
    full = {p.blocks for p in enumerate_nc(2)}
    for family in Family:
        assert {p.blocks for p in enumerate_family(2, family)} == full


def test_family_nc12_inner_n4_is_everything():
    assert sum(1 for _ in enumerate_family(4, Family.NC12_INNER)) == 14


def test_family_inclusions():
    for n in range(1, 11):
        interval = {p.blocks for p in enumerate_family(n, Family.INTERVAL)}
        almost = {p.blocks for p in enumerate_family(n, Family.ALMOST_INTERVAL)}
        nc12 = {p.blocks for p in enumerate_family(n, Family.NC12_INNER)}
        full = {p.blocks for p in enumerate_nc(n)}
        assert interval <= almost <= nc12 <= full


def test_count_by_blocks_rows():
    assert count_by_blocks(4, Family.NC12_INNER) == [1, 6, 6, 1]
    assert count_by_blocks(7, Family.NC12_INNER) == [1, 15, 77, 154, 105, 21, 1]
    for family in Family:
        assert count_by_blocks(1, family) == [1]


def test_count_by_blocks_ties_to_moment_at_one():
    from fockpoisson.moments import cfree_moments

    table = cfree_moments(8)
    for n in range(1, 9):
        assert sum(count_by_blocks(n, Family.NC12_INNER)) == table[n].eval(1, 1, 1)


def test_count_by_blocks_matches_enumeration():
    for family in Family:
        for n in range(1, 11):
            counts = [0] * n
            for p in enumerate_family(n, family):
                counts[len(p.blocks) - 1] += 1
            assert count_by_blocks(n, family) == counts, (family, n)


def _nested(blocks):
    """The blocks nested in another block, by the depth of their first point."""
    return [b for b in blocks if element_depth(blocks, b[0]) > 0]


# each family by its definition, on the blocks nested in another
FAMILY_RULES = [
    (Family.NC, lambda nested: True),
    (Family.INTERVAL, lambda nested: not nested),
    (Family.ALMOST_INTERVAL, lambda nested: all(len(b) == 1 for b in nested)),
    (Family.NC12_INNER, lambda nested: all(len(b) <= 2 for b in nested)),
]


@pytest.mark.parametrize("family,rule", FAMILY_RULES, ids=[f.name for f, _ in FAMILY_RULES])
def test_families_match_their_definitions(family, rule):
    for n in range(1, 9):
        members = sorted(blocks for blocks in nc_bruteforce(n) if rule(_nested(blocks)))
        assert sorted(p.blocks for p in enumerate_family(n, family)) == members, n
        counts = [0] * n
        for blocks in members:
            counts[len(blocks) - 1] += 1
        assert count_by_blocks(n, family) == counts, n


def test_counting_never_enumerates(monkeypatch, capsys):
    from fockpoisson import cli, moments, partitions
    from fockpoisson.moments import LimitCase

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    for module, name in ((partitions, "_region_choices"), (partitions, "enumerate_nc"),
                         (partitions, "enumerate_family"), (partitions, "nc_weight_counts"),
                         (moments, "nc_weight_counts")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        moments.moment_nc(3)  # the guard bites on the enumerating engine
    assert moments.moment_blockwise(10) == moments.moment_jacobi(10)
    for family in Family:
        assert sum(count_by_blocks(10, family)) > 0
    assert moments.cfree_moments(10)[10].eval(1, 1, 1) == 10958
    assert [moments.limit_case(8, case)[8].eval(1, 1, 1) for case in LimitCase] == [
        1430, 128, 1147]  # FREE, BOOLEAN, CFREE
    assert cli.main(["partitions", "--n", "12"]) == 0
    assert capsys.readouterr().out == "208012\n"
    assert cli.main(["sequence", "--nmax", "12"]) == 0
    assert cli.main(["moments", "--engine", "blockwise", "--nmax", "8"]) == 0


def test_enumerate_nc_has_no_cap():
    start = time.perf_counter()
    first = next(enumerate_nc(19))
    # a long region's 2^(n-1) block choices are generated lazily, not stored
    assert time.perf_counter() - start < 0.1
    assert first.blocks == tuple((i,) for i in range(1, 20))


def test_json_serialization():
    p = NCPartition(6, [[1, 2, 6], [3, 5], [4]])
    assert p.to_json_obj() == [[1, 2, 6], [3, 5], [4]]
