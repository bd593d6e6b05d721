"""The four immutable record types: PartitionStats, JacobiParams, MomentTable
and Card.  Each is a namedtuple subclass with no instance dict; these tests
pin how they construct, compare, hash, print and refuse assignment."""

import pickle

import pytest

from fockpoisson.moments import JacobiParams, MomentTable, jacobi, moment_table
from fockpoisson.partitions import NCPartition, PartitionStats, stats
from fockpoisson.poly import LAM, ONE, S
from fockpoisson.words import Card

RECORDS = [
    (PartitionStats, {"block_depths": (0, 1), "td1": 1, "td2": 0},
     "PartitionStats(block_depths=(0, 1), td1=1, td2=0)"),
    (JacobiParams, {"alpha": (1, 2), "omega": (1, 1)},
     "JacobiParams(alpha=(1, 2), omega=(1, 1))"),
    (MomentTable, {"n_max": 1, "m": (ONE, LAM)},
     "MomentTable(n_max=1, m=(MultiPoly(1), MultiPoly(l)))"),
    (Card, {"kind": "A", "level": 2},
     "Card(kind='A', level=2)"),
]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaviour(cls, fields, text):
    rec = cls(**fields)
    for name, value in fields.items():
        assert getattr(rec, name) == value
    assert repr(rec) == text

    twin = cls(**fields)
    assert rec == twin and not rec != twin and hash(rec) == hash(twin)
    assert len({rec, twin}) == 1
    assert pickle.loads(pickle.dumps(rec)) == rec

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert not hasattr(rec, "__dict__")


def test_records_differ_by_value():
    assert PartitionStats((0, 1), 1, 0) != PartitionStats((0, 1), 1, 1)
    assert Card("A", 2) != Card("A", 3)
    assert Card("A", 2) != Card("M", 2)
    assert jacobi(3) != jacobi(3, s=ONE)
    assert moment_table(3, "jacobi") == moment_table(3, "operator")


def test_records_from_the_library():
    assert repr(stats(NCPartition(2, [[1, 2]]))) == \
        "PartitionStats(block_depths=(0,), td1=0, td2=0)"
    assert repr(stats(NCPartition(3, [[1, 3], [2]]))) == \
        "PartitionStats(block_depths=(0, 1), td1=1, td2=0)"
    jp = jacobi(2)
    assert jp.alpha == (LAM, LAM * S + ONE) and jp.omega == (LAM, LAM * S)
    assert Card("K", 1).label() == "K1"


def test_moment_table_copies_keep_the_checks():
    table = MomentTable(n_max=1, m=(ONE, LAM))
    assert table._replace(m=(ONE, S)) == MomentTable(1, (ONE, S))
    with pytest.raises(ValueError, match="table length"):
        table._replace(n_max=2)
    with pytest.raises(ValueError, match=r"m\[0\] must be 1"):
        MomentTable._make((1, (LAM, LAM)))
