import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fockpoisson
from fockpoisson import analytic
from fockpoisson.cli import main
from fockpoisson.moments import cfree_moments, jacobi, motzkin_walk
from fockpoisson.partitions import Family

from cli_corpus import ST_FLAGS
from oracles import continued_fraction_plain

MOMENTS_CFREE_PLAIN = """\
m_1 = l
m_2 = l^2 + l
m_3 = l^3 + 3*l^2 + l
m_4 = l^4 + 6*l^3 + 6*l^2 + l
m_5 = l^5 + 10*l^4 + 20*l^3 + 9*l^2 + l
m_6 = l^6 + 15*l^5 + 50*l^4 + 44*l^3 + 12*l^2 + l
m_7 = l^7 + 21*l^6 + 105*l^5 + 154*l^4 + 77*l^3 + 15*l^2 + l
ENGINES AGREE
"""


# cauchy --depth 200 on --re=-1:1:3 --im=0.5:1.5:3, one generic and one limit leg
CAUCHY_GENERIC_CSV = """\
re_z,im_z,re_g,im_g
-1,0.5,-0.4729848929134427,-0.16683307141666129
0,0.5,-0.40548641404729024,-0.64062885874033726
1,0.5,-0.03443909972281449,-0.66514063330370776
-1,1,-0.36019892346598426,-0.22820926201170033
0,1,-0.28347920433894497,-0.47066599205190884
1,1,-0.042012386664145376,-0.53117235059801637
-1,1.5,-0.27565922907260998,-0.23831986958671442
0,1.5,-0.20776675391404684,-0.38432831995374239
1,1.5,-0.052071508715685638,-0.44066626259914321
"""

CAUCHY_S_ZERO_CSV = """\
re_z,im_z,re_g,im_g
-1,0.5,-0.56216216216216219,-0.22702702702702707
0,0.5,-0.23529411764705876,-1.0588235294117647
1,0.5,0,-0.40000000000000002
-1,1,-0.40000000000000002,-0.29999999999999993
0,1,-0.19999999999999998,-0.59999999999999998
1,1,0,-0.5
-1,1.5,-0.28717948717948716,-0.29743589743589743
0,1.5,-0.15999999999999998,-0.45333333333333331
1,1.5,0,-0.46153846153846156
"""


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_usage_error(result, command, message):
    """argparse's usage error: exit 2, nothing on stdout, the command's usage
    line first and its error line, holding message, last."""
    code, out, err = result
    lines = err.splitlines()
    assert code == 2 and out == ""
    assert lines[0].startswith(f"usage: fockpoisson {command} ")
    assert lines[-1].startswith(f"fockpoisson {command}: error: ") and message in lines[-1]


def test_moments_all_engines_cfree_table(capsys):
    code, out, _ = run(capsys, "moments", "--nmax", "7", "--engine", "all",
                       "--s-one", "--t-zero", "--format", "plain")
    assert code == 0
    assert out == MOMENTS_CFREE_PLAIN


def test_moments_single_engine_with_eval(capsys):
    code, out, _ = run(capsys, "moments", "--nmax", "3", "--engine", "jacobi",
                       "--at", "1,1,1")
    assert code == 0
    assert out.splitlines() == [
        "m_1 = l = 1",
        "m_2 = l^2 + l = 2",
        "m_3 = l^3 + l^2*s + 2*l^2 + l = 5",
    ]


def test_moments_json_roundtrip(capsys):
    code, out, _ = run(capsys, "moments", "--nmax", "4", "--engine", "all",
                       "--s-one", "--t-zero", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["engines_agree"] is True
    row = payload["rows"][3]
    assert row["n"] == 4
    assert row["moment"] == "l^4 + 6*l^3 + 6*l^2 + l"
    assert row["terms"][0] == {"el": 4, "es": 0, "et": 0, "coeff": "1"}


def test_moments_csv(capsys):
    code, out, _ = run(capsys, "moments", "--nmax", "2", "--engine", "nc",
                       "--format", "csv", "--at", "2,1,1")
    assert code == 0
    assert out.splitlines() == ['n,moment,value', '1,"l",2', '2,"l^2 + l",6']


# sha256 of the stdout of moments --engine jacobi, from the walk in s itself
JACOBI_GOLDENS = [
    (("--nmax", "20"), "eb73a14d794830d5442dc8d9392c25aff13ae7cd4903d952a64005492bbceaa2"),
    (("--nmax", "20", "--format", "csv"),
     "a076c80119cb77aa494bd6af6aee2e72a3ce383d78b01540ad9aabcbb8681770"),
    (("--nmax", "20", "--format", "json"),
     "3d61076a76bea5786a1e1b6b73f724348dd9b763a43d2f969afeacd6177058b0"),
    (("--nmax", "16", "--s-one", "--t-zero", "--at", "5/2,1,0"),
     "6be323105ec9df045f5d4c3bcee7227e471a6fbc88415d9465848ad4457344e0"),
]


@pytest.mark.parametrize("argv, digest", JACOBI_GOLDENS, ids=["plain", "csv", "json", "cfree-at"])
def test_moments_jacobi_golden_sha256(capsys, argv, digest):
    code, out, _ = run(capsys, "moments", "--engine", "jacobi", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of moments --engine nc and all, as the per-row
# listing printed them before one walk over NC(nmax) gave every row
NC_GOLDENS = [
    (("--engine", "nc", "--nmax", "12", "--format", "plain"),
     "54b02bcc9d8ca53242e4bd1a78fb71ee0943feff50b2fa9a4cb710dcdc915dfb"),
    (("--engine", "all", "--nmax", "10", "--format", "plain"),
     "1b9d26e83ecf6e99dff395ad6f1a1f1f5b5acedf8b8c1ddd00272c019576fecb"),
    (("--engine", "nc", "--nmax", "12", "--format", "csv"),
     "d66fe63a92654401d4a4d007e46619556986c50c6b611373d6e7f156d4455741"),
    (("--engine", "all", "--nmax", "10", "--format", "csv"),
     "8c94e59b1e64eb8f7f0ffcfa47204fb1f5040e4570f4787894eafdb1a2c65448"),
    (("--engine", "nc", "--nmax", "12", "--format", "json"),
     "026f9bd7ac44fd55a9a63af0bc243b19b3d1ffde94a2420b6fe26630ff214d11"),
    (("--engine", "all", "--nmax", "10", "--format", "json"),
     "c6a674e5b77a94513a2a5d5b3a1dfcc69055a0ce8a5452ca88ba95373947f8ab"),
]


@pytest.mark.parametrize("argv, digest", NC_GOLDENS,
                         ids=["-".join(argv[1::2]) for argv, _ in NC_GOLDENS])
def test_moments_nc_golden_sha256(capsys, argv, digest):
    code, out, _ = run(capsys, "moments", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of partitions --n 9 --list [--stats] for every family
PARTITIONS_LIST_GOLDENS = {
    ("NC", False, "plain"):
        "ee1804cbf152e230066c6b29124b5fd8433362f268cfd158b5f4d8138721a362",
    ("NC", True, "plain"):
        "f65601a9f42c9afe2f918e7bce05f0d7674ff403114bad03596120a4832b2b2f",
    ("NC", False, "json"):
        "a5bee1df416aafcf5e4278374cc276895c8a6ab39b76156a0331749d0ef6d56d",
    ("NC", True, "json"):
        "319f7eaf466d815893610ae15dfa4ebc9b77644ed4f1907f51b979863510fa90",
    ("INTERVAL", False, "plain"):
        "4c304e5588cd346e41c4b45f62b64ecae9e156c86e120a14798f28e18974f9a5",
    ("INTERVAL", True, "plain"):
        "076f86b7a017c60fe6e0fd05c2d53f201fd15f518ac2c6601d21375add8995cf",
    ("INTERVAL", False, "json"):
        "c4502579819d6bef2774dca5dbb35ae8f46af3fda24d7abf443ebdfa5a39e235",
    ("INTERVAL", True, "json"):
        "5a18a8eee1725b2e3a004d2b3d618672378550bfff9302552f9e8b5f9b1b8b22",
    ("ALMOST_INTERVAL", False, "plain"):
        "0858232572e30df6a6f328c6e8a2d3c4194667cf634c311e2ff4a23e6423e25e",
    ("ALMOST_INTERVAL", True, "plain"):
        "397c10ba49e46580172dd10c61332d8e943dd6c469a836acd97a36244be1c004",
    ("ALMOST_INTERVAL", False, "json"):
        "89aac7ff6de561f4eadcb3cc6e8d29254ffa30afa2fc795231563b915722acbd",
    ("ALMOST_INTERVAL", True, "json"):
        "90687bccd1eeb6cd324c779799ee2b01be1756936f1b9874016af3ea9ffcddf1",
    ("NC12_INNER", False, "plain"):
        "54eb78e9c2456f04fa4380a1b0cbdc11bc42127f07a6edbb8cb85ebe836ae405",
    ("NC12_INNER", True, "plain"):
        "d5e354d0274dda6dae519578c8d451a38a4b56c13a479ee78ed6747811ee7f6f",
    ("NC12_INNER", False, "json"):
        "bbf6c075ee6cdc4f64e51c168ddec5046cdd4c9deabc59ea481ca3d12c3ab991",
    ("NC12_INNER", True, "json"):
        "b2f062acbccf9942aefb8915fcaa3d0a464cb90ece284b19bce71fc889ed0e23",
}


@pytest.mark.parametrize("family, with_stats, fmt", PARTITIONS_LIST_GOLDENS)
def test_partitions_list_golden_sha256(capsys, family, with_stats, fmt):
    argv = ["partitions", "--n", "9", "--list", "--family", family, "--format", fmt]
    code, out, _ = run(capsys, *argv, *(["--stats"] if with_stats else []))
    assert code == 0
    digest = PARTITIONS_LIST_GOLDENS[family, with_stats, fmt]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sequence(capsys):
    code, out, _ = run(capsys, "sequence", "--nmax", "10")
    assert code == 0
    assert out == "1 2 5 14 41 123 374 1147 3538 10958\n"


def test_sequence_beyond_enumeration_cap(capsys):
    code, out, _ = run(capsys, "sequence", "--nmax", "25")
    assert code == 0
    table = cfree_moments(25)
    expected = [table[n].eval(1, 1, 1) for n in range(1, 26)]
    assert [int(v) for v in out.split()] == expected


def test_sequence_json(capsys):
    code, out, _ = run(capsys, "sequence", "--nmax", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"values": [1, 2, 5, 14, 41], "matches_reference": True}


@pytest.fixture
def int_digit_limit():
    """Sets Python's limit on int/str conversion digits; restored after the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_a_value_past_4300_digits_prints_in_full(capsys, int_digit_limit):
    int_digit_limit(4300)  # the interpreter's default
    code, out, _ = run(capsys, "moments", "--engine", "jacobi", "--nmax", "1",
                       "--at", "1e5000,1,1")
    assert code == 0
    assert out == "m_1 = l = 1" + "0" * 5000 + "\n"


def test_sequence_prints_past_the_int_digit_limit(capsys, int_digit_limit):
    expected = motzkin_walk(1400, jacobi(701, 1, 1, 0))[1:]
    assert len(str(expected[-1])) == 697
    int_digit_limit(640)
    code, out, _ = run(capsys, "sequence", "--nmax", "1400")
    assert code == 0
    assert [int(v) for v in out.split()] == expected


def test_words_check_plain(capsys):
    code, out, _ = run(capsys, "words", "--check", "CMCKAA")
    assert code == 0
    assert out.splitlines() == [
        "word: CMCKAA",
        "levels: 0 1 1 2 2 1",
        "admissible: yes",
        "partition: [[1,2,6],[3,5],[4]]",
        "cards: C0 M1 C1 K2 A2 A1",
        "weight: l^3*s^3",
    ]


def test_words_inadmissible(capsys):
    code, out, _ = run(capsys, "words", "--check", "AC")
    assert code == 0
    lines = out.splitlines()
    assert "admissible: no" in lines
    assert not any(line.startswith("weight") for line in lines)


def test_words_degenerate_and_cards(capsys):
    code, out, _ = run(capsys, "words", "--check", "CCCAMAA", "--degenerate", "--cards")
    assert code == 0
    assert "weight: l^3*s^3" in out
    assert "N2" in out
    assert "\\___/" in out


def test_words_from_partition(capsys):
    code, out, _ = run(capsys, "words", "--from-partition", "[[1,7],[2,5,6],[3,4]]")
    assert code == 0
    assert "word: CCCAMAA" in out
    assert "weight: l^3*s^3*t" in out


def test_words_json(capsys):
    code, out, _ = run(capsys, "words", "--check", "CMCKAA", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["admissible"] is True
    assert payload["partition"] == [[1, 2, 6], [3, 5], [4]]
    assert payload["weight"] == "l^3*s^3"
    assert payload["weight_terms"] == [{"el": 3, "es": 3, "et": 0, "coeff": "1"}]


def test_words_bad_input(capsys):
    code, _, err = run(capsys, "words", "--check", "CXA")
    assert code == 2 and "invalid word letter" in err
    code, _, err = run(capsys, "words", "--from-partition", "[[1,3],[2,4]]")
    assert code == 2 and "crossing" in err


@pytest.mark.parametrize("blocks", ['{}', '""', '{"ab": 1}', "[1,2]", "[[1],2]", "null"])
def test_words_partition_json_must_be_an_array_of_arrays(capsys, blocks):
    code, out, err = run(capsys, "words", "--from-partition", blocks)
    assert code == 2 and out == ""
    assert "expected a JSON array of arrays" in err


def test_words_empty_partition(capsys):
    code, out, _ = run(capsys, "words", "--from-partition", "[]")
    assert code == 0
    assert "admissible: yes" in out


@pytest.mark.parametrize("blocks", ["[[1.0,2.0],[3.0]]", "[[true]]"])
def test_words_non_integer_partition_elements(capsys, blocks):
    code, out, err = run(capsys, "words", "--from-partition", blocks)
    assert code == 2 and out == ""
    assert "not an integer" in err


def test_partitions_count_and_list(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "4")
    assert code == 0 and out == "14\n"
    code, out, _ = run(capsys, "partitions", "--n", "4", "--family", "NC12_INNER",
                       "--count-by-blocks")
    assert code == 0
    assert out.splitlines() == ["1 1", "2 6", "3 6", "4 1", "total 14"]
    code, out, _ = run(capsys, "partitions", "--n", "3", "--list")
    assert code == 0
    assert out.splitlines()[0] == "[[1],[2],[3]]"
    assert len(out.splitlines()) == 5


def test_partitions_list_stats_and_json(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "3", "--list", "--stats",
                       "--format", "json")
    assert code == 0
    items = json.loads(out)
    assert len(items) == 5
    nested = next(i for i in items if i["blocks"] == [[1, 3], [2]])
    assert nested["depths"] == [0, 1]
    assert nested["td1"] == 1 and nested["td2"] == 0
    assert nested["weight"] == "l^2*s"


def test_partitions_csv_counts(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "3", "--count-by-blocks",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["blocks,count", "1,1", "2,3", "3,1"]


def test_partitions_count_csv(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,family,count", "4,NC,14"]
    code, text, _ = run(capsys, "partitions", "--n", "4", "--format", "json")
    assert code == 0
    assert json.loads(text) == {"n": 4, "family": "NC", "count": 14}  # same keys


@pytest.mark.parametrize("extra", [(), ("--stats",)], ids=["list", "list-stats"])
def test_partitions_list_has_no_csv(capsys, extra):
    result = run(capsys, "partitions", "--n", "3", "--list", *extra, "--format", "csv")
    assert_usage_error(result, "partitions", "--list has no csv format")


def test_partitions_cap_exit_code(capsys):
    code, _, err = run(capsys, "partitions", "--n", "19", "--list")
    assert code == 3
    assert "--force" in err


def test_partitions_list_stats_sweeps_each_partition_once(capsys, monkeypatch):
    # NCPartition.stats reaches partitions.stats and weight reaches
    # moments.stats: the CLI hands weight the stats it already has
    from fockpoisson import moments, partitions

    calls = []

    def counted(original):
        def wrapper(p):
            calls.append(p)
            return original(p)
        return wrapper

    monkeypatch.setattr(partitions, "stats", counted(partitions.stats))
    monkeypatch.setattr(moments, "stats", counted(moments.stats))
    code, out, _ = run(capsys, "partitions", "--n", "5", "--list", "--stats")
    assert code == 0 and len(out.splitlines()) == 42
    assert len(calls) == 42


@pytest.fixture
def no_engines(monkeypatch):
    """Make the enumerator, every moment engine, the Fock matrices and the
    continued fraction raise if called."""
    from fockpoisson import fock, moments, partitions

    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran")

    for module, name in ((partitions, "enumerate_nc"), (partitions, "enumerate_family"),
                         (partitions, "nc_weight_counts"), (moments, "nc_weight_counts"),
                         (moments, "moment_nc"), (moments, "nc_moments"),
                         (moments, "moment_blockwise"), (moments, "blockwise_moments"),
                         (moments, "moment_jacobi"), (moments, "motzkin_walk"),
                         (fock, "vacuum_moment"), (fock, "vacuum_moments"),
                         (fock, "build_generators"), (fock, "poisson_matrix"),
                         (fock, "check_relations"), (analytic, "continued_fraction")):
        monkeypatch.setattr(module, name, refuse)
    return monkeypatch


@pytest.mark.parametrize("argv", [
    ("moments", "--nmax", "19"),
    ("moments", "--engine", "nc", "--nmax", "19"),
    ("partitions", "--n", "19", "--list"),
    ("partitions", "--n", "13", "--list"),
])
def test_enumeration_cap_refuses_before_any_engine(capsys, no_engines, argv):
    code, out, err = run(capsys, *argv)
    n = next(arg for arg in argv if arg.isdigit())
    assert code == 3 and out == ""
    assert f"n = {n} exceeds the nc engine's limit 12" in err and "--force" in err


def test_enumeration_cap_skips_engines_that_do_not_list(capsys, no_engines):
    from fockpoisson import moments
    from fockpoisson.poly import MultiPoly

    no_engines.setattr(moments, "moment_jacobi", lambda n, s, t: MultiPoly.const(n))
    code, out, _ = run(capsys, "moments", "--engine", "jacobi", "--nmax", "19")
    assert code == 0
    assert out.splitlines()[-1] == "m_19 = 19"


ENGINE_LIMITS = [("nc", 12), ("blockwise", 28), ("jacobi", 36), ("operator", 40)]


@pytest.mark.parametrize("engine,limit", ENGINE_LIMITS)
def test_engine_limit_refuses_before_any_work(capsys, no_engines, engine, limit):
    code, out, err = run(capsys, "moments", "--engine", engine, "--nmax", str(limit + 1))
    assert code == 3 and out == ""
    assert f"n = {limit + 1} exceeds the {engine} engine's limit {limit}" in err
    assert "--force" in err


def _cheap_engines(monkeypatch):
    """Replace the engines by tables whose row n is the constant n."""
    from fockpoisson import fock, moments
    from fockpoisson.poly import MultiPoly

    def table(nmax, *args):
        return [MultiPoly.const(n) for n in range(nmax + 1)]

    monkeypatch.setattr(moments, "nc_moments", table)
    monkeypatch.setattr(moments, "moment_jacobi", lambda n, s, t: MultiPoly.const(n))
    monkeypatch.setattr(moments, "blockwise_moments", table)
    monkeypatch.setattr(fock, "vacuum_moments", table)


@pytest.mark.parametrize("engine,limit", ENGINE_LIMITS)
def test_engine_limit_admits_its_limit_and_force(capsys, no_engines, engine, limit):
    _cheap_engines(no_engines)
    for argv in (("--nmax", str(limit)), ("--nmax", str(limit + 1), "--force")):
        code, out, _ = run(capsys, "moments", "--engine", engine, *argv)
        assert code == 0
        assert out.splitlines()[-1] == f"m_{argv[1]} = {argv[1]}"


def test_engine_limits_are_documented_and_above_the_benchmark():
    from fockpoisson import cli

    limits = cli.ENGINE_NMAX_LIMITS
    assert limits == dict(ENGINE_LIMITS)
    # bench/workloads.py runs moments --engine all --nmax 10, jacobi --nmax 18,
    # operator --nmax 16 and partitions --n 8 --list
    assert all(limit >= 10 for limit in limits.values())
    assert limits["jacobi"] >= 18 and limits["operator"] >= 16
    doc = " ".join(cli.__doc__.split())
    assert "(nc 12, blockwise 28, jacobi 36, operator 40)" in doc


def test_engine_all_meets_the_lowest_limit(capsys, no_engines):
    code, out, err = run(capsys, "moments", "--nmax", "13")
    assert code == 3 and out == ""
    assert "n = 13 exceeds the nc engine's limit 12" in err


def test_partitions_list_admits_the_nc_limit_and_force(capsys, monkeypatch):
    from fockpoisson import partitions

    listed = []

    def fake_family(n, family):
        listed.append(n)
        return iter([partitions.NCPartition(n, [list(range(1, n + 1))])])

    monkeypatch.setattr(partitions, "enumerate_family", fake_family)
    for argv in (("--n", "12"), ("--n", "13", "--force")):
        code, out, _ = run(capsys, "partitions", *argv, "--list")
        n = int(argv[1])
        assert code == 0
        assert out == json.dumps([list(range(1, n + 1))], separators=(",", ":")) + "\n"
    assert listed == [12, 13]


@pytest.mark.parametrize("mode", [(), ("--count-by-blocks",)])
def test_partitions_count_limit_refuses_before_the_recursion(capsys, monkeypatch, mode):
    from fockpoisson import cli, partitions

    def refuse(*args, **kwargs):
        raise AssertionError("block_sums ran")

    monkeypatch.setattr(partitions, "block_sums", refuse)
    n = cli.COUNT_N_LIMIT + 1
    code, out, err = run(capsys, "partitions", "--n", str(n), *mode)
    assert code == 3 and out == ""
    assert err == (f"error: n = {n} exceeds the count engine's limit {cli.COUNT_N_LIMIT}; "
                   "its cost grows steeply with n\n"
                   "pass --force to override the limit for this run\n")


def test_partitions_count_admits_its_limit_and_force(capsys):
    from fockpoisson import cli

    # the interval partitions of [n] are the 2**(n - 1) compositions of n,
    # C(n - 1, k - 1) of them with k blocks
    limit = cli.COUNT_N_LIMIT
    assert limit >= 19  # README counts partitions --n 19; the benchmark --n 10
    for argv in (("--n", str(limit)), ("--n", str(limit + 1), "--force")):
        n = int(argv[1])
        code, out, _ = run(capsys, "partitions", *argv, "--family", "INTERVAL")
        assert code == 0 and out == f"{2 ** (n - 1)}\n"
        code, out, _ = run(capsys, "partitions", *argv, "--family", "INTERVAL",
                           "--count-by-blocks", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == [f"{k},{math.comb(n - 1, k - 1)}"
                                        for k in range(1, n + 1)]


def test_partitions_count_beyond_enumeration_cap(capsys):
    code, out, _ = run(capsys, "partitions", "--n", "19")
    assert code == 0
    assert out == "1767263190\n"  # Catalan(19)


def test_fock_relations_and_dump(capsys):
    code, out, _ = run(capsys, "fock", "--n", "6", "--relations")
    assert code == 0
    assert out.splitlines()[-1] == "ALL RELATIONS HOLD"
    assert sum(1 for line in out.splitlines() if line.endswith(": ok")) == 7

    code, out, _ = run(capsys, "fock", "--n", "2", "--dump", "poisson")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 3
    assert payload["entries"][0][0] == "l"
    assert payload["entries"][1][0] == "l^(1/2)"
    assert payload["entries"][1][1] == "l*s + 1"

    code, _, err = run(capsys, "fock", "--n", "3")
    assert code == 2 and "nothing to do" in err


def test_fock_usage_error_before_any_output(capsys):
    result = run(capsys, "fock", "--n", "1", "--dump", "creation", "--relations")
    assert_usage_error(result, "fock", "--relations needs --n >= 2")
    assert result[2].endswith("\nfockpoisson fock: error: --relations needs --n >= 2\n")

    code, out, _ = run(capsys, "fock", "--n", "1", "--dump", "creation")
    assert code == 0 and json.loads(out)["dim"] == 2


@pytest.mark.parametrize("mode", [("--relations",), ("--dump", "poisson"),
                                  ("--dump", "creation", "--relations")])
def test_fock_limit_refuses_before_any_matrix(capsys, no_engines, mode):
    from fockpoisson import cli

    n = cli.FOCK_N_LIMIT + 1
    code, out, err = run(capsys, "fock", "--n", str(n), *mode)
    assert code == 3 and out == ""
    assert err == (f"error: n = {n} exceeds the fock engine's limit {cli.FOCK_N_LIMIT}; "
                   "its cost grows steeply with n\n"
                   "pass --force to override the limit for this run\n")


def test_fock_limit_admits_its_limit_and_force(capsys, monkeypatch):
    from fockpoisson import cli

    monkeypatch.setattr(cli, "FOCK_N_LIMIT", 3)
    for argv in (("--n", "3"), ("--n", "4", "--force")):
        code, out, _ = run(capsys, "fock", *argv, "--dump", "poisson")
        assert code == 0 and json.loads(out)["dim"] == int(argv[1]) + 1
    assert run(capsys, "fock", "--n", "4", "--relations")[0] == 3


def test_fock_dump_and_relations_are_one_json_document(capsys):
    code, out, _ = run(capsys, "fock", "--n", "2", "--dump", "scalar", "--relations",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["operator", "dim", "entries", "n", "relations", "all_hold"]
    _, dump, _ = run(capsys, "fock", "--n", "2", "--dump", "scalar")
    _, relations, _ = run(capsys, "fock", "--n", "2", "--relations", "--format", "json")
    assert payload == {**json.loads(dump), **json.loads(relations)}


JSON_COMMANDS = [
    ("moments", "--nmax", "3"),
    ("sequence", "--nmax", "4"),
    ("partitions", "--n", "4"),
    ("partitions", "--n", "4", "--list"),
    ("partitions", "--n", "4", "--count-by-blocks"),
    ("words", "--check", "CMA"),
    ("fock", "--n", "2", "--dump", "poisson"),
    ("fock", "--n", "2", "--relations"),
    ("fock", "--n", "2", "--dump", "scalar", "--relations"),
    ("cauchy", "--depth", "5", "--re=0:1:2", "--im=1:2:2"),
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=[" ".join(a) for a in JSON_COMMANDS])
def test_json_output_is_one_document(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    json.loads(out)


@pytest.mark.parametrize("engine", ["nc", "blockwise", "jacobi", "operator", "all"])
def test_moments_json_is_the_json_modules_layout(capsys, engine):
    """The moments JSON, written row by row, is json.dumps(indent=2)'s text."""
    for flags in ST_FLAGS:
        for nmax in range(9):
            for at in ((), ("--at=3/2,1/3,2/5",)):
                argv = ("moments", "--engine", engine, "--nmax", str(nmax), *flags, *at,
                        "--format", "json")
                code, out, _ = run(capsys, *argv)
                assert code == 0
                assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_moments_json_layout_of_half_units_and_zero(capsys, monkeypatch):
    """el of a half unit is json's float text, and a zero row has no terms."""
    from fockpoisson import cli
    from fockpoisson.poly import LAM, ONE, S, SQRT_LAM, T, ZERO

    table = [ONE, SQRT_LAM, ZERO, 3 * SQRT_LAM * LAM * S + T - 2 * LAM]
    monkeypatch.setitem(cli._ENGINE_TABLES, "nc", lambda nmax, s, t: table[:nmax + 1])
    code, out, _ = run(capsys, "moments", "--engine", "nc", "--nmax", "3",
                       "--at=9/4,1/2,1/3", "--format", "json")
    assert code == 0
    assert out == json.dumps({"engine": "nc", "rows": [
        {"n": n, "moment": str(poly), "terms": poly.to_json_terms(),
         "value": str(poly.eval(Fraction(9, 4), Fraction(1, 2), Fraction(1, 3)))}
        for n, poly in enumerate(table[1:], 1)]}, indent=2) + "\n"
    assert '"el": 0.5,' in out and '"el": 1.5,' in out and '"terms": [],' in out


@pytest.mark.parametrize("family", [f.name for f in Family])
def test_partitions_list_json_is_the_json_modules_layout(capsys, family):
    """The listing, written member by member, is json.dumps's one line."""
    for n in range(1, 9):
        for stats in ((), ("--stats",)):
            argv = ("partitions", "--family", family, "--n", str(n), "--list", *stats,
                    "--format", "json")
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out == json.dumps(json.loads(out)) + "\n", argv


class _Discard:
    """A stdout that keeps nothing of what it is given."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("argv, limit", [
    (("partitions", "--n", "10", "--list", "--stats", "--format", "json"), 1 << 20),
    (("moments", "--engine", "operator", "--nmax", "16", "--format", "json"), 4 << 20),
], ids=["partitions", "moments"])
def test_listings_and_tables_stream(monkeypatch, argv, limit):
    """Written row by row, a listing holds one member at a time and a table
    one row's text: partitions --n 10 peaked at 19.6 MB and moments --nmax
    16 at 8.8 MB when each document was built whole before printing."""
    import tracemalloc

    from fockpoisson import cli

    monkeypatch.setattr(cli, "_parser", cli.build_parser())
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        code = cli.main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < limit, peak


def test_cauchy_csv_grid(capsys):
    code, out, _ = run(capsys, "cauchy", "--lam", "1", "--s-one", "--t-zero",
                       "--closed", "--re", "3:3:1", "--im", "1:2:2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "re_z,im_z,re_g,im_g,re_g_closed,im_g_closed,abs_diff"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 3.0 and float(first[1]) == 1.0
    assert abs(float(first[6])) < 1e-12


def test_cauchy_json_and_validation(capsys):
    code, out, _ = run(capsys, "cauchy", "--lam", "2", "--s", "1/2", "--t", "1/4",
                       "--re", "0:1:2", "--im", "1:1:1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert rows[0]["im_g"] < 0  # Herglotz

    code, _, err = run(capsys, "cauchy", "--lam", "1", "--closed")
    assert code == 2 and "--closed requires" in err
    code, _, err = run(capsys, "cauchy", "--im", "0:1:2")
    assert code == 2 and "positive" in err
    code, _, err = run(capsys, "cauchy", "--re", "oops")
    assert code == 2


@pytest.mark.parametrize("params, expected", [
    (("--lam", "3/2", "--s", "3/8", "--t", "5/8"), CAUCHY_GENERIC_CSV),
    (("--s-zero", "--t", "1/3"), CAUCHY_S_ZERO_CSV),
], ids=["generic", "s-zero"])
def test_cauchy_golden_csv(capsys, params, expected):
    code, out, _ = run(capsys, "cauchy", *params, "--depth", "200",
                       "--re=-1:1:3", "--im=0.5:1.5:3")
    assert code == 0
    assert out == expected


# the benchmark's three cauchy shapes, on a 15 x 15 grid as in its items
CAUCHY_SHAPES = [
    (("--lam", "3/2", "--s", "3/8", "--t", "5/8"), 1.5, 0.375, 0.625),
    (("--lam", "5/4", "--s-one", "--t-zero", "--closed"), 1.25, 1.0, 0.0),
    (("--lam", "7/4", "--s-zero", "--t-zero"), 1.75, 0.0, 0.0),
]


@pytest.mark.parametrize("params, lam, s, t", CAUCHY_SHAPES,
                         ids=["generic", "cfree-closed", "boolean"])
def test_cauchy_values_equal_cauchy_cf(capsys, params, lam, s, t):
    argv = ("cauchy", *params, "--depth", "200", "--re=-2.25:4.75:15", "--im=0.07:3.07:15")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    header, *lines = out.splitlines()
    csv_rows = [dict(zip(header.split(","), map(float, line.split(",")))) for line in lines]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    json_rows = json.loads(out)
    assert len(csv_rows) == len(json_rows) == 225
    for rows in (csv_rows, json_rows):
        for row in rows:
            z = complex(row["re_z"], row["im_z"])
            g = analytic.cauchy_cf(z, lam, s, t, 200)
            assert (row["re_g"], row["im_g"]) == (g.real, g.imag)
            if "--closed" in params:
                gc = analytic.cauchy_cfree_closed(z, lam)
                assert (row["re_g_closed"], row["im_g_closed"]) == (gc.real, gc.imag)
                assert row["abs_diff"] == abs(g - gc)


# the CLI exits each point's repeated tail at its fixed point; every printed
# value must be the plain loop's to the last bit, whose %.17g text it is
@pytest.mark.parametrize("params, lam, s, t", CAUCHY_SHAPES,
                         ids=["generic", "cfree-closed", "boolean"])
def test_cauchy_deep_fraction_equals_the_plain_loop(capsys, params, lam, s, t):
    code, out, _ = run(capsys, "cauchy", *params, "--depth", "5000",
                       "--re=-2.25:4.75:8", "--im=0.07:3.07:8")
    assert code == 0
    lines = out.splitlines()[1:]
    alphas, omegas = analytic.jacobi_floats(lam, s, t, 5000)
    assert len(lines) == 64
    for line in lines:
        z = complex(*map(float, line.split(",")[:2]))
        g = continued_fraction_plain(z, alphas, omegas)
        want = [z.real, z.imag, g.real, g.imag]
        if "--closed" in params:
            gc = analytic.cauchy_cfree_closed(z, lam)
            want += [gc.real, gc.imag, abs(g - gc)]
        assert line == ",".join(f"{v:.17g}" for v in want)


def test_cauchy_builds_the_coefficients_once(capsys, monkeypatch):
    calls = []
    build = analytic.jacobi_floats

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(analytic, "jacobi_floats", counted)
    code, out, _ = run(capsys, "cauchy", "--lam", "2", "--s", "1/2", "--t", "1/4",
                       "--depth", "50", "--re=-1:1:5", "--im=0.5:2.5:5")
    assert code == 0 and len(out.splitlines()) == 26
    assert calls == [(2.0, 0.5, 0.25, 50)]


@pytest.mark.parametrize("argv", [("--im=nan:1:2",), ("--re=nan:1:2",), ("--im=inf:inf:1",),
                                  ("--re=-1e308:1e308:3",)],
                         ids=["im-nan", "re-nan", "im-inf", "re-overflow"])
def test_cauchy_refuses_non_finite_grids(capsys, argv):
    assert_usage_error(run(capsys, "cauchy", *argv), "cauchy", "must be finite")


# a negative value reaches the domain check in the --flag=VALUE form only;
# argparse reads a separate -1/2 as an option
@pytest.mark.parametrize("argv", [("--lam", "0"), ("--s", "2"), ("--lam=-1/2",), ("--t=-1/2",)],
                         ids=["lam-0", "s-2", "lam-negative", "t-negative"])
def test_cauchy_domain_error_before_any_point(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(analytic, "continued_fraction", refuse)
    message = "lambda must be positive" if argv[0].startswith("--lam") else "must lie in [0, 1]"
    assert_usage_error(run(capsys, "cauchy", *argv), "cauchy", message)


@pytest.mark.parametrize("flag", ["--lam", "--s", "--t"])
def test_cauchy_refuses_values_beyond_the_float_range(capsys, flag):
    result = run(capsys, "cauchy", flag, "1e400", "--re", "0:1:1", "--im", "1:1:1")
    assert_usage_error(result, "cauchy", f"argument {flag}: must lie within the float range")


# the closed form past the float range (lambda^2, z^2, a denominator that
# underflows to zero, products that overflow to nan) and a continued
# fraction that divides by a subnormal
CAUCHY_POINT_ERRORS = [
    (("--lam", "1e200", "--s-one", "--t-zero", "--closed"),
     "the closed form leaves the float range at z = (-2+0.5j)"),
    (("--re=1e300:1e300:1", "--im=1:1:1", "--s-one", "--t-zero", "--closed"),
     "the closed form leaves the float range at z = (1e+300+1j)"),
    (("--lam", "1e-300", "--re=0:0:1", "--im=1e-300:1e-300:1", "--s-one", "--t-zero",
      "--closed"), "the closed form leaves the float range at z = 1e-300j"),
    (("--re=1:1:1", "--im=5e-324:5e-324:1", "--depth", "1"),
     "a value is not finite at z = (1+5e-324j)"),
    (("--re=1:1:1", "--im=5e-324:5e-324:1", "--depth", "1", "--format", "json"),
     "a value is not finite at z = (1+5e-324j)"),
    (("--re=1e308:1e308:1", "--im=1e308:1e308:1", "--s-one", "--t-zero", "--closed"),
     "the closed form leaves the float range at z = (1e+308+1e+308j)"),
]


@pytest.mark.parametrize("argv, message", CAUCHY_POINT_ERRORS,
                         ids=["lam-overflow", "z-overflow", "denominator-zero", "g-infinite-csv",
                              "g-infinite-json", "closed-nan"])
def test_cauchy_point_outside_the_float_range_is_a_usage_error(capsys, argv, message):
    assert_usage_error(run(capsys, "cauchy", *argv), "cauchy", message)


def test_cauchy_zero_values_equal_limit_flags(capsys):
    grid = ("--re=-1:1:3", "--im=0.5:1.5:3")
    values = run(capsys, "cauchy", "--lam", "1", "--s", "0", "--t", "0", *grid)
    flags = run(capsys, "cauchy", "--lam", "1", "--s-zero", "--t-zero", *grid)
    assert values[0] == 0
    assert values == flags


def test_cauchy_negative_range_start_in_equals_form(capsys):
    default = run(capsys, "cauchy")
    typed = run(capsys, "cauchy", "--re=-2:4:7")
    assert default[0] == 0
    assert typed == default


# (argv, the measure past its limit in cli.CAUCHY_LIMITS, its value)
CAUCHY_PAST_LIMITS = [
    (("--depth", "1000001", "--re=0:1:1", "--im=1:1:1"), "depth", 1_000_001),
    (("--depth", "1", "--re=0:1:1000", "--im=1:2:251"), "grid points", 251_000),
    (("--depth", "1000", "--re=0:1:500", "--im=1:2:101"), "depth * grid points", 50_500_000),
]


@pytest.mark.parametrize("argv, size, value", CAUCHY_PAST_LIMITS,
                         ids=["depth", "points", "work"])
def test_cauchy_limits_refuse_before_any_work(capsys, no_engines, argv, size, value):
    from fockpoisson import cli

    def refuse(*args):
        raise AssertionError("the coefficients were built")

    no_engines.setattr(analytic, "jacobi_floats", refuse)
    limit = cli.CAUCHY_LIMITS[size]
    code, out, err = run(capsys, "cauchy", *argv)
    assert code == 3 and out == ""
    assert err == (f"error: {size} = {value} exceeds the cauchy engine's limit {limit}; "
                   f"its cost grows steeply with {size}\n"
                   "pass --force to override the limit for this run\n")


# --depth 5 on 3 x 3 points is at each limit set to 5, 9 or 45 in turn
@pytest.mark.parametrize("size, limit", [("depth", 5), ("grid points", 9),
                                         ("depth * grid points", 45)],
                         ids=["depth", "points", "work"])
def test_cauchy_limits_admit_their_limits_and_force(capsys, monkeypatch, size, limit):
    from fockpoisson import cli

    monkeypatch.setitem(cli.CAUCHY_LIMITS, size, limit)
    at_limit = run(capsys, "cauchy", "--depth", "5", "--re=0:1:3", "--im=1:2:3")
    assert at_limit[0] == 0 and len(at_limit[1].splitlines()) == 10
    past = ("--depth", "6", "--re=0:1:3", "--im=1:2:4")
    assert run(capsys, "cauchy", *past)[0] == 3
    code, out, _ = run(capsys, "cauchy", *past, "--force")
    assert code == 0 and len(out.splitlines()) == 13


def test_cauchy_limits_are_above_the_tests_and_the_benchmark():
    from fockpoisson import cli

    assert cli.CAUCHY_LIMITS == {"depth": 1_000_000, "grid points": 250_000,
                                 "depth * grid points": 50_000_000}
    # the largest runs: --depth 5000 on 8 x 8 points above, and the
    # benchmark's --depth 200 on 15 x 15
    for depth, points in ((5000, 64), (200, 225)):
        assert depth <= cli.CAUCHY_LIMITS["depth"]
        assert points <= cli.CAUCHY_LIMITS["grid points"]
        assert depth * points <= cli.CAUCHY_LIMITS["depth * grid points"]


def test_cauchy_grid_is_not_listed_before_the_limits(capsys, monkeypatch):
    """A grid past the points limit is refused before its points exist: the
    300,000 floats of --re would take about 9 MB."""
    import tracemalloc

    from fockpoisson import cli

    monkeypatch.setattr(cli, "_parser", cli.build_parser())
    tracemalloc.start()
    try:
        code = cli.main(["cauchy", "--depth", "1", "--re=0:1:300000", "--im=1:1:1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and capsys.readouterr().out == ""
    assert peak < 1 << 20, peak


def _grid_listed(text, positive=False):
    """The grid's points, listed and checked one by one, or None where the
    rule refuses it: the oracle of cli._grid's check of the end points."""
    lo, hi, steps = text.split(":")
    lo, hi, steps = float(lo), float(hi), int(steps)
    grid = [lo] if steps == 1 else [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    if not all(math.isfinite(v) for v in (lo, hi, *grid)):
        return None
    if positive and any(v <= 0 for v in grid):
        return None
    return grid


def test_cauchy_grid_check_equals_listing_every_point():
    """Rounding is monotone, so the first and last points bound the rest:
    cli._grid refuses exactly the grids with a point that is not finite (or
    not positive), and cli._points lists the same floats."""
    import argparse
    import random

    from fockpoisson import cli

    rng = random.Random(7)
    edges = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 5e-324, 1e308, -1e308, 1.7976931348623157e308,
             -1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.5, 3.0]
    texts = [f"{lo!r}:{hi!r}:{steps}" for lo in edges for hi in edges for steps in (1, 2, 3, 7)]
    texts += [f"{rng.uniform(-1, 1) * 10 ** rng.randint(-320, 308)!r}:"
              f"{rng.uniform(-1, 1) * 10 ** rng.randint(-320, 308)!r}:{rng.randint(1, 40)}"
              for _ in range(3000)]
    for text in texts:
        for positive in (False, True):
            try:
                got = cli._points(*cli._grid(text, positive))
            except argparse.ArgumentTypeError:
                got = None
            want = _grid_listed(text, positive)
            assert (got is None) == (want is None), text
            assert got is None or list(map(repr, got)) == list(map(repr, want)), text


def test_engine_disagreement_exits_one(capsys, monkeypatch):
    import fockpoisson.cli as cli
    from fockpoisson.poly import MultiPoly

    broken = dict(cli._ENGINE_TABLES)
    # wrong on purpose
    broken["jacobi"] = lambda nmax, s, t: [MultiPoly.const(n) for n in range(nmax + 1)]
    monkeypatch.setattr(cli, "_ENGINE_TABLES", broken)
    code, out, _ = run(capsys, "moments", "--nmax", "2", "--engine", "all")
    assert code == 1
    assert "ENGINE DISAGREEMENT" in out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--engine", "wat"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--nmax", "3", "--s", "1/2"])  # values are cauchy's only
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    for argv in (["cauchy", "--s-o"],  # no prefix matching
                 ["sequence", "--nmax", "3", "--force"]):  # counting has no cap
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    for argv in (["cauchy", "--s", "1/2", "--s-one"],  # mutually exclusive
                 ["partitions", "--n", "4", "--list", "--count-by-blocks"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "partitions", "--n", "4", "--stats")  # only with --list
    assert code == 2 and out == ""
    assert "only with --list" in err


# inputs refused by a rule on one or two arguments, or by the cauchy domain,
# with their messages
COMMAND_INPUT_ERRORS = [
    (("moments", "--nmax", "-1"), "argument --nmax: must be >= 0"),
    (("sequence", "--nmax", "0"), "argument --nmax: must be >= 1"),
    (("partitions", "--n", "0"), "argument --n: must be >= 1"),
    (("partitions", "--n", "4", "--stats"), "--stats applies only with --list"),
    (("partitions", "--n", "3", "--list", "--format", "csv"), "--list has no csv format"),
    (("words", "--check", "CXA"), "argument --check: invalid word letter 'X'"),
    (("words", "--from-partition", "[[1,3],[2,4]]"),
     "argument --from-partition: invalid partition: partition ((1, 3), (2, 4)) is crossing"),
    (("fock", "--n", "0", "--relations"), "argument --n: must be >= 1"),
    (("fock", "--n", "3"), "nothing to do; pass --dump and/or --relations"),
    (("fock", "--n", "1", "--dump", "poisson", "--relations"), "--relations needs --n >= 2"),
    (("cauchy", "--re", "oops"), "argument --re: expected MIN:MAX:STEPS, got 'oops'"),
    (("cauchy", "--re", "0:1:0"), "argument --re: STEPS must be >= 1"),
    (("cauchy", "--im=-1:1:3"), "argument --im: imaginary parts must be positive"),
    (("cauchy", "--depth", "0"), "argument --depth: must be >= 1"),
    (("cauchy", "--t", "1e400"), "argument --t: must lie within the float range"),
    (("cauchy", "--s-zero", "--closed"), "--closed requires s = 1 and t -> 0"),
    (("cauchy", "--lam", "-2"), "lambda must be positive, got -2.0"),
]


@pytest.mark.parametrize("argv, message", COMMAND_INPUT_ERRORS,
                         ids=[" ".join(argv) for argv, _ in COMMAND_INPUT_ERRORS])
def test_command_input_errors_are_usage_errors_before_any_engine(capsys, no_engines,
                                                                 argv, message):
    assert_usage_error(run(capsys, *argv), argv[0], message)


def test_words_check_of_the_empty_word(capsys):
    # the empty word is falsy, but a word all the same
    code, out, _ = run(capsys, "words", "--check", "")
    assert code == 0
    assert out.splitlines() == ["word: ", "levels: ", "admissible: yes", "partition: []",
                                "cards: ", "weight: 1"]


def test_malformed_at_is_a_usage_error(capsys):
    for at in ("1,2", "1,x,2", "1/0,1,1"):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--nmax", "3", "--at", at])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --at" in err


def test_negative_lambda_at_needs_the_equals_form(capsys):
    code, out, _ = run(capsys, "moments", "--nmax", "2", "--engine", "jacobi", "--at=-4,1,1")
    assert code == 0
    assert "m_2 = l^2 + l = 12\n" in out
    # argparse reads a separate -4,1,1 as an option
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--nmax", "2", "--engine", "jacobi", "--at", "-4,1,1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_engines_are_the_library_tables():
    import fockpoisson.cli as cli
    from fockpoisson import moments

    assert cli.ENGINE_NAMES == tuple(moments.ENGINE_TABLES)
    assert set(cli.ENGINE_NMAX_LIMITS) == set(cli.ENGINE_NAMES)


def test_per_row_jacobi_override_matches_one_walk():
    # the one fork between cli._ENGINE_TABLES and moments.ENGINE_TABLES
    import fockpoisson.cli as cli
    from fockpoisson import moments
    from fockpoisson.poly import ONE, S, T, ZERO

    for s in (S, ONE, ZERO):
        for t in (T, ONE, ZERO):
            assert (cli._ENGINE_TABLES["jacobi"](16, s, t)
                    == moments.ENGINE_TABLES["jacobi"](16, s, t))


def test_determinism(capsys):
    first = run(capsys, "moments", "--nmax", "5", "--engine", "all")
    second = run(capsys, "moments", "--nmax", "5", "--engine", "all")
    assert first == second
    a = run(capsys, "cauchy", "--lam", "1", "--re=-1:1:3", "--im", "1:2:2")
    b = run(capsys, "cauchy", "--lam", "1", "--re=-1:1:3", "--im", "1:2:2")
    assert a == b


def _alone(argv):
    """(exit code, stdout) of the call as the only one in a fresh interpreter."""
    src = str(Path(fockpoisson.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "fockpoisson.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("calls", [
    (("cauchy", "--s-one", "--t-zero", "--closed"), ("cauchy",)),
    (("moments", "--nmax", "3", "--s-one"), ("moments", "--nmax", "3")),
    (("moments", "--engine", "wat"), ("moments", "--nmax", "3")),
])
def test_main_calls_in_one_process_match_each_call_alone(capsys, monkeypatch, calls):
    from fockpoisson import cli

    monkeypatch.setattr(cli, "_parser", None)  # the first call builds the parser
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert (code, capsys.readouterr().out) == _alone(argv), argv
    assert cli._parser is not None


def test_closed_stdout_pipe_exits_quietly():
    """`fockpoisson ... | head` ends with exit 141 and nothing on stderr, help
    text and streamed listings and tables included.  The read end is closed
    before the command starts, so every write fails; or the reader closes it
    after the first line, so the break comes mid-stream."""
    src = str(Path(fockpoisson.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv in (("fock", "--n", "3", "--dump", "poisson"), ("sequence", "--nmax", "3"),
                     ("--help",), ("moments", "--help"),
                     ("partitions", "--n", "6", "--list", "--stats", "--format", "json"),
                     ("moments", "--engine", "jacobi", "--nmax", "5", "--format", "json")):
            proc = subprocess.run([sys.executable, "-m", "fockpoisson.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=120, env=env)
            assert (proc.returncode, proc.stderr) == (141, ""), argv
    finally:
        os.close(write_end)
    # outputs of 840 kB and 570 kB, far past what the pipe and the first read hold
    for argv in (("moments", "--engine", "operator", "--nmax", "16", "--format", "json"),
                 ("partitions", "--n", "10", "--list")):
        with subprocess.Popen([sys.executable, "-m", "fockpoisson.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, ""), argv


def test_cli_import_loads_no_introspection_modules():
    """Importing the CLI and building its parser loads none of the modules
    behind dataclasses; site may have loaded some before, so only the
    modules new to sys.modules count."""
    src = str(Path(fockpoisson.__file__).resolve().parents[1])
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import fockpoisson.cli\n"
            "fockpoisson.cli.build_parser()\n"
            "print(*sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, env={**os.environ, "PYTHONPATH": src})
    loaded = set(proc.stdout.split())
    assert {"fockpoisson.cli", "fockpoisson.moments"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}
