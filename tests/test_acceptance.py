"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints one PASS line (visible with pytest -s or in captured output);
an assertion failure is the corresponding FAIL.  Tolerances are pinned here
and nowhere else: exact (tolerance zero) for everything computed in integer
or rational arithmetic, the stated float bounds for the analytic layer, and
the stated wall-clock budgets for the two enumeration-heavy criteria.
"""

import random
import time
from fractions import Fraction

from fockpoisson import analytic, fock, moments, words
from fockpoisson.moments import LimitCase
from fockpoisson.partitions import enumerate_nc
from fockpoisson.poly import MultiPoly

from oracles import (
    admissible_words_dfs,
    det_fraction,
    interval_count_bruteforce,
    laurent_moments,
    nc_bruteforce,
    quadratic_residual,
)


def mono(el, es=0, et=0):
    return MultiPoly.term(1, el=el, es=es, et=et)


def row_poly(coeffs_ascending):
    """Moment row from the coefficients of l^1, l^2, ... ascending."""
    return MultiPoly({(2 * k, 0, 0): c for k, c in enumerate(coeffs_ascending, 1)})


def test_criterion_01_triple_engine_identity():
    start = time.monotonic()
    nc, blockwise, jacobi, operator = (
        moments.moment_table(10, e) for e in ("nc", "blockwise", "jacobi", "operator"))
    for n in range(0, 11):
        reference = nc[n]
        assert blockwise[n] == reference
        assert jacobi[n] == reference
        assert operator[n] == reference
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: four engines identical for n = 0..10 "
          f"({elapsed:.1f}s)")


def test_criterion_02_moment_table_rows():
    expected = {
        1: row_poly([1]),
        2: row_poly([1, 1]),
        3: row_poly([1, 3, 1]),
        4: row_poly([1, 6, 6, 1]),
        5: row_poly([1, 9, 20, 10, 1]),
        6: row_poly([1, 12, 44, 50, 15, 1]),
        7: row_poly([1, 15, 77, 154, 105, 21, 1]),
    }
    table = moments.cfree_moments(7)
    for n in range(1, 8):
        assert table[n] == expected[n]
    assert str(table[7]) == (
        "l^7 + 21*l^6 + 105*l^5 + 154*l^4 + 77*l^3 + 15*l^2 + l"
    )
    print("\nACCEPTANCE 2 PASS: conditionally free moment rows m_1..m_7 exact")


def test_criterion_03_lambda_one_sequence():
    start = time.monotonic()
    table = moments.cfree_moments(10)
    values = [table[n].eval(1, 1, 1) for n in range(1, 11)]
    assert values == [1, 2, 5, 14, 41, 123, 374, 1147, 3538, 10958]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS: lambda = 1 sequence n = 1..10 exact "
          f"({elapsed:.1f}s)")


def test_criterion_04_worked_examples():
    word_a = words.OperatorWord.parse("CMCKAA")
    assert word_a.to_partition().blocks == ((1, 2, 6), (3, 5), (4,))
    assert word_a.arrangement().total_weight == mono(3, es=3)

    word_b = words.OperatorWord.parse("CCCAMAA")
    assert word_b.to_partition().blocks == ((1, 7), (2, 5, 6), (3, 4))
    assert word_b.arrangement().total_weight == mono(3, es=3, et=1)
    assert word_b.arrangement(degenerate_t=True).total_weight == mono(3, es=3)
    print("\nACCEPTANCE 4 PASS: worked word examples map to stated "
          "partitions and weights")


def test_criterion_05_free_and_boolean_limits():
    free = moments.limit_case(6, LimitCase.FREE)
    for n in range(1, 7):
        assert free[n].eval(1, 1, 1) == len(nc_bruteforce(n))
    assert [free[n].eval(1, 1, 1) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]

    boolean = moments.limit_case(6, LimitCase.BOOLEAN)
    for n in range(1, 7):
        count = interval_count_bruteforce(n)
        assert count == 2 ** (n - 1)
        assert boolean[n].eval(1, 1, 1) == count
    print("\nACCEPTANCE 5 PASS: free limit gives Catalan numbers, boolean "
          "limit gives powers of two")


def test_criterion_06_orthogonality_suite():
    table = moments.moment_table(12, "jacobi")
    polys = moments.ortho_polys(6)
    for i in range(7):
        for j in range(7):
            value = moments.moment_functional(polys[i] * polys[j], table)
            if i != j:
                assert value == MultiPoly.zero()
            else:
                assert value == mono(i, es=i * (i - 1) // 2)
    print("\nACCEPTANCE 6 PASS: orthogonality and norms exact for "
          "degrees <= 6")


def test_criterion_07_bijection_suite():
    for n in range(1, 10):
        nc = list(enumerate_nc(n))
        for p in nc:
            w = words.OperatorWord.from_partition(p)
            assert w.is_admissible()
            assert w.to_partition().blocks == p.blocks
        admissible = admissible_words_dfs(n)
        assert len(admissible) == len(nc)
        for text in admissible:
            w = words.OperatorWord.parse(text)
            assert words.OperatorWord.from_partition(w.to_partition()) == w
    print("\nACCEPTANCE 7 PASS: word/partition bijection and counts for "
          "n <= 9")


def test_criterion_08_commutation_report():
    report = fock.check_relations(6)
    assert len(report) == 7
    assert all(report.values()), report
    print("\nACCEPTANCE 8 PASS: all seven commutation relations hold at N = 6")


def test_criterion_09_analytic_consistency():
    start = time.monotonic()
    diff = abs(
        analytic.cauchy_cf(3j, 1.0, 1.0, 0.0, 80)
        - analytic.cauchy_cfree_closed(3j, 1.0)
    )
    assert diff < 1e-9

    rng = random.Random(20260809)
    for _ in range(50):
        z = complex(rng.uniform(-3, 5), rng.uniform(0.5, 4.0))
        lam = rng.uniform(0.25, 4.0)
        g = analytic.cauchy_cfree_closed(z, lam)
        assert quadratic_residual(z, lam, g) < 1e-10

    # the l = 1 sequence from the closed form's large-|z| expansion
    got = laurent_moments(lambda z: analytic.cauchy_cfree_closed(z, 1.0), 10.0, 6)
    assert len(got) == 7
    for val, expected in zip(got, [1, 1, 2, 5, 14, 41, 123]):
        assert abs(val - expected) < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 9 PASS: continued fraction, closed form and "
          f"its series consistent ({elapsed:.2f}s)")


def test_criterion_10_hankel_positivity():
    rng = random.Random(31415926)
    table = moments.moment_table(8, "jacobi")
    for _ in range(50):
        lam = Fraction(rng.randint(1, 64), 16)   # (0, 4]
        s = Fraction(rng.randint(1, 16), 16)     # (0, 1]
        t = Fraction(rng.randint(1, 16), 16)
        ms = [table[k].eval(lam, s, t) for k in range(9)]
        hankel = [[ms[i + j] for j in range(5)] for i in range(5)]
        assert det_fraction(hankel) > 0
    print("\nACCEPTANCE 10 PASS: Hankel determinants positive at 50 exact "
          "rational parameter triples")
