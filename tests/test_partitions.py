import pytest

from fockpoisson.partitions import (
    Family,
    NCPartition,
    SetPartition,
    count_by_blocks,
    enumerate_family,
    enumerate_nc,
    is_noncrossing,
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


def test_enumerate_nc_deterministic_order():
    first = [p.blocks for p in enumerate_nc(6)]
    second = [p.blocks for p in enumerate_nc(6)]
    assert first == second


def test_stats_examples():
    st = stats(NCPartition(6, [[1, 2, 6], [3, 5], [4]]))
    assert st.block_depths == (0, 1, 2)
    assert (st.td1, st.td2) == (3, 0)
    assert st.inner_flags == (False, True, True)

    st = stats(NCPartition(7, [[1, 7], [2, 5, 6], [3, 4]]))
    assert st.block_depths == (0, 1, 2)
    assert (st.td1, st.td2) == (3, 1)

    st = stats(NCPartition(1, [[1]]))
    assert st.block_depths == (0,)
    assert (st.td1, st.td2) == (0, 0)
    assert st.inner_flags == (False,)


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
        assert sum(count_by_blocks(n, Family.NC12_INNER)) == table.m[n].eval(1, 1, 1)


def test_count_by_blocks_matches_enumeration():
    for family in Family:
        for n in range(1, 11):
            counts = [0] * n
            for p in enumerate_family(n, family):
                counts[len(p.blocks) - 1] += 1
            assert count_by_blocks(n, family) == counts, (family, n)


def test_counting_never_enumerates(monkeypatch, capsys):
    from fockpoisson import cli, moments, partitions
    from fockpoisson.moments import LimitCase

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated")

    for module, name in ((partitions, "_nc_blocks"), (partitions, "enumerate_nc"),
                         (partitions, "enumerate_family"), (moments, "enumerate_nc")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        moments.moment_nc(3)  # the guard bites on the enumerating engine
    assert moments.moment_blockwise(10) == moments.moment_jacobi(10)
    for family in Family:
        assert sum(count_by_blocks(10, family)) > 0
    assert moments.cfree_moments(10).m[10].eval(1, 1, 1) == 10958
    assert [moments.limit_case(8, case).m[8].eval(1, 1, 1) for case in LimitCase] == [
        1430, 128, 1147]  # FREE, BOOLEAN, CFREE
    assert cli.main(["partitions", "--n", "12"]) == 0
    assert capsys.readouterr().out == "208012\n"
    assert cli.main(["sequence", "--nmax", "12"]) == 0
    assert cli.main(["moments", "--engine", "blockwise", "--nmax", "8"]) == 0


def test_enumerate_nc_has_no_cap():
    assert next(enumerate_nc(19)).blocks == tuple((i,) for i in range(1, 20))


def test_json_serialization():
    p = NCPartition(6, [[1, 2, 6], [3, 5], [4]])
    assert p.to_json_obj() == [[1, 2, 6], [3, 5], [4]]
