import random
from fractions import Fraction
from math import comb

import pytest

from fockpoisson import fock, moments, partitions
from fockpoisson.commands import CFREE_SEQUENCE_REFERENCE
from fockpoisson.moments import (
    DegreeOutOfRangeError,
    LimitCase,
    XPoly,
    blockwise_moments,
    cfree_moments,
    jacobi,
    jacobi_moments,
    limit_case,
    moment_blockwise,
    moment_functional,
    moment_jacobi,
    moment_nc,
    moment_table,
    motzkin_walk,
    nc_moments,
    ortho_polys,
    weight,
)
from fockpoisson.partitions import (
    Family,
    NCPartition,
    block_depths,
    block_sums,
    count_by_blocks,
    enumerate_nc,
    nc_weight_counts,
)
from fockpoisson.poly import LAM, ONE, S, T, ZERO, MultiPoly

from oracles import det_fraction, interval_count_bruteforce, nc_bruteforce


def mono(el, es=0, et=0):
    return MultiPoly.term(1, el=el, es=es, et=et)


# rows of the s = 1, t -> 0 moment list, coefficients of l^1..l^n ascending
CFREE_ROWS = {
    1: [1],
    2: [1, 1],
    3: [1, 3, 1],
    4: [1, 6, 6, 1],
    5: [1, 9, 20, 10, 1],
    6: [1, 12, 44, 50, 15, 1],
    7: [1, 15, 77, 154, 105, 21, 1],
}


def cfree_row_poly(n):
    return MultiPoly({(2 * k, 0, 0): c for k, c in enumerate(CFREE_ROWS[n], 1)})


def test_jacobi_parameters():
    jp = jacobi(4)
    assert jp.alpha[0] == LAM
    assert jp.alpha[1] == mono(1, es=1) + ONE  # l*s + t^0
    assert jp.alpha[2] == mono(1, es=2) + mono(0, et=1)
    assert jp.omega[0] == LAM
    assert jp.omega[1] == mono(1, es=1)
    assert jp.omega[3] == mono(1, es=3)
    with pytest.raises(ValueError):
        jacobi(0)


def test_ortho_polys_base_cases():
    polys = ortho_polys(6)
    assert polys[0].coeffs == (ONE,)
    assert polys[1].coeffs == (-LAM, ONE)
    for p in polys:
        assert p.is_monic()
        assert p.degree == polys.index(p)


def test_ortho_poly_c2():
    # direct expansion of (x - (l*s + 1))(x - l) - l
    c2 = ortho_polys(2)[2]
    assert c2.coeffs == (mono(2, es=1), -(LAM + mono(1, es=1) + ONE), ONE)


def test_ortho_poly_c2_cfree_limit():
    # at s = 1, t -> 0 the recurrence reads (x - (l + 1))(x - l) - l
    c2 = ortho_polys(2)[2]
    limit_coeffs = [c.specialize_one(s=True).specialize_zero(kill_t=True) for c in c2.coeffs]
    assert limit_coeffs == [LAM**2, -(2 * LAM + ONE), ONE]


def test_moment_jacobi_rows():
    assert moment_jacobi(0) == ONE
    assert moment_jacobi(1) == LAM
    assert moment_jacobi(3) == LAM**3 + (2 * ONE + S) * LAM**2 + LAM
    m4_limit = moment_jacobi(4).specialize_one(s=True).specialize_zero(kill_t=True)
    assert m4_limit == cfree_row_poly(4)
    with pytest.raises(ValueError, match="n must be >= 0"):
        moment_jacobi(-1)


def test_moment_nc_rows():
    assert moment_nc(0) == ONE
    assert moment_nc(2) == LAM**2 + LAM
    assert moment_nc(6).eval(1, 1, 1) == 132
    m5_limit = moment_nc(5).specialize_one(s=True).specialize_zero(kill_t=True)
    assert m5_limit.eval(1, 1, 1) == 41


def _listing_moment(n, s=S, t=T):
    """m_n from NC(n) listed, each partition's depths swept by block_depths
    and the counts weighed with ring powers: one row per listing."""
    if n == 0:
        return ONE
    counts = {}
    for p in enumerate_nc(n):
        depths = block_depths(p.blocks)
        td2 = sum((len(b) - 2) * d for b, d in zip(p.blocks, depths) if len(b) > 2)
        key = (len(p.blocks), sum(depths), td2)
        counts[key] = counts.get(key, 0) + 1
    return sum((c * LAM**k * s**es * t**et for (k, es, et), c in counts.items()), ZERO)


def test_nc_moments_equal_the_per_row_listing_sums():
    assert nc_moments(9) == [_listing_moment(n) for n in range(10)]
    assert nc_moments(9, ONE, ZERO) == [_listing_moment(n, ONE, ZERO) for n in range(10)]


def test_nc_moments_match_blockwise_under_every_substitution(monkeypatch):
    walks = {}

    def walk_once(n):  # the walk does not depend on s and t
        if n not in walks:
            walks[n] = nc_weight_counts(n)
        return walks[n]

    monkeypatch.setattr(moments, "nc_weight_counts", walk_once)
    for s in (S, ONE, ZERO):
        for t in (T, ONE, ZERO):
            assert nc_moments(12, s, t) == blockwise_moments(12, s, t), (s, t)
            assert nc_moments(5, s, t) == blockwise_moments(5, s, t), (s, t)
    assert list(walks) == [12, 5]


def test_nc_moments_use_no_other_engine(monkeypatch):
    expected = blockwise_moments(9)

    def refuse(*args, **kwargs):
        raise AssertionError("the nc table used another engine")

    # with the listing's region walk gone too, the nc table is its own
    # enumeration of NC(n): nothing it calls is shared with another engine
    for module, name in ((partitions, "_region_choices"), (partitions, "_choices_memo"),
                         (partitions, "enumerate_nc"), (partitions, "block_sums"),
                         (moments, "block_sums"), (moments, "motzkin_walk"),
                         (moments, "jacobi"), (fock, "poisson_matrix")):
        monkeypatch.setattr(module, name, refuse)
    assert nc_moments(9) == expected


def test_nc_moments_weigh_other_values_with_ring_products():
    s, t = 2 * S + ONE, T * T
    assert nc_moments(7, s, t) == blockwise_moments(7, s, t)
    assert nc_moments(0) == [ONE] and nc_moments(1) == [ONE, LAM]
    with pytest.raises(ValueError):
        nc_moments(-1)


def test_moment_blockwise_equals_nc():
    for n in range(0, 9):
        assert moment_blockwise(n) == moment_nc(n)


def test_moment_blockwise_equals_jacobi_beyond_enumeration():
    for n in (14, 16):
        assert moment_blockwise(n) == moment_jacobi(n)


def test_engines_agree_at_n20():
    # every row of the one-walk tables, against moment_jacobi row by row
    rows = [moment_jacobi(k) for k in range(21)]
    assert fock.vacuum_moments(20) == rows
    assert blockwise_moments(20) == rows
    assert motzkin_walk(20, jacobi(11)) == rows


def test_catalan_bounds_every_moment_coefficient():
    # the premise of moment_jacobi's s = 2**(2n): the coefficients of m_n sum
    # to m_n(1, 1, 1) = Catalan(n) < 4**n, so no base-4**n digit carries
    for n in range(1, 41):
        catalan = comb(2 * n, n) // (n + 1)
        assert motzkin_walk(n, jacobi(n // 2 + 1, 1, 1, 1))[n] == catalan < 4**n


@pytest.mark.parametrize("t", [T, ONE, ZERO], ids=["t", "t-one", "t-zero"])
def test_moment_jacobi_reads_back_the_direct_walk(t):
    m = moment_jacobi(22, S, t)
    assert m == motzkin_walk(22, jacobi(12, LAM, S, t))[22]
    # the read-back's degree bound covers every term it wrote
    assert all(m.coefficient(el2 // 2, es, et) == c for (el2, es, et), c in m.terms())


def test_moment_table_reads_back_every_row_with_one_width():
    assert moment_table(20, "jacobi") == motzkin_walk(20, jacobi(11))


def test_motzkin_walk_over_fractions():
    # the walk's unit is alpha[0] ** 0, here Fraction(1); moment_jacobi
    # evaluated at the same point is the check
    lam, s, t = Fraction(9, 4), Fraction(2, 7), Fraction(5, 11)
    jp = jacobi(7, lam, s, t)
    walk = motzkin_walk(12, jp)
    assert type(walk[0]) is Fraction
    for n in range(13):
        assert motzkin_walk(n, jp)[n] == walk[n] == moment_jacobi(n).eval(lam, s, t)


def test_motzkin_walk_refuses_too_few_coefficients():
    # 7 steps reach level 3: alpha_1..alpha_4 and omega_1..omega_3
    alpha, omega = jacobi(4)
    assert motzkin_walk(7, (alpha, omega[:3])) == jacobi_moments(7)
    for short in ((alpha[:3], omega), (alpha, omega[:2]), ((), ())):
        with pytest.raises(ValueError, match="a walk of 7 steps needs 4 alphas and 3 omegas"):
            motzkin_walk(7, short)
    with pytest.raises(ValueError, match="n must be >= 0"):
        motzkin_walk(-1, (alpha, omega))


def test_motzkin_walk_over_ints_is_the_cfree_sequence():
    assert tuple(motzkin_walk(10, jacobi(6, 1, 1, 0))[1:]) == CFREE_SEQUENCE_REFERENCE


@pytest.mark.parametrize("s, t", [(ONE, ZERO), (ZERO, ZERO)], ids=["cfree", "boolean"])
def test_engines_agree_at_n24_in_the_limits(s, t):
    a = moment_jacobi(24, s, t)
    assert fock.vacuum_moment(24, s, t) == a
    assert moment_blockwise(24, s, t) == a


SUBSTITUTIONS = [(s, t) for s in (S, ONE, ZERO) for t in (T, ONE, ZERO) if (s, t) != (S, T)]


@pytest.mark.parametrize("s, t", SUBSTITUTIONS)
def test_tables_match_moment_jacobi_under_substitution(s, t):
    rows = [moment_jacobi(k, s, t) for k in range(13)]
    assert fock.vacuum_moments(12, s, t) == rows
    assert blockwise_moments(12, s, t) == rows


def test_engines_agree_through_n8():
    for n in range(0, 9):
        a = moment_nc(n)
        assert moment_blockwise(n) == a
        assert moment_jacobi(n) == a
        assert fock.vacuum_moment(n) == a


@pytest.mark.parametrize(
    "engine", [moment_nc, moment_blockwise, moment_jacobi, fock.vacuum_moment],
    ids=["nc", "blockwise", "jacobi", "operator"])
def test_substitution_commutes_with_every_engine(engine):
    for n in range(0, 9):
        full = engine(n)
        for s, t in SUBSTITUTIONS:
            expected = full.specialize_zero(kill_s=s == ZERO, kill_t=t == ZERO)
            expected = expected.specialize_one(s=s == ONE, t=t == ONE)
            assert engine(n, s=s, t=t) == expected, (n, s, t)


PAIRS = [(S, T), *SUBSTITUTIONS]


def test_no_engine_specializes_after_computing(monkeypatch):
    # every limit is substituted before computing, so no engine needs
    # specialize_zero or specialize_one
    row_functions = [moment_nc, moment_blockwise, moment_jacobi, fock.vacuum_moment]

    def compute():
        tables = [table(n, s, t) for table in moments.ENGINE_TABLES.values()
                  for n in range(9) for s, t in PAIRS]
        rows = [f(n, s, t) for f in row_functions for n in range(9) for s, t in PAIRS]
        return tables, rows

    before = compute()

    def refuse(*args, **kwargs):
        raise AssertionError("a limit was specialized after computing")

    monkeypatch.setattr(MultiPoly, "specialize_zero", refuse)
    monkeypatch.setattr(MultiPoly, "specialize_one", refuse)
    assert compute() == before


def test_vacuum_moment_walks_at_the_substituted_s(monkeypatch):
    seen, build = [], fock.poisson_matrix

    def record(N, s, t):
        seen.append(s)
        return build(N, s, t)

    monkeypatch.setattr(fock, "poisson_matrix", record)
    for n in (1, 6, 9):
        for t in (T, ONE, ZERO):
            for row in (lambda: fock.vacuum_moment(n, S, t),
                        lambda: fock.vacuum_moments(n, S, t)[n]):
                seen.clear()
                assert row() == moment_jacobi(n, S, t)
                assert seen == [2 ** (2 * n)] and type(seen[0]) is int, (n, t)
        seen.clear()
        assert fock.vacuum_moment(n, ONE, T) == moment_jacobi(n, ONE, T)
        assert seen == [ONE], n


def test_weight_helper():
    p = NCPartition(7, [[1, 7], [2, 5, 6], [3, 4]])
    assert weight(p) == mono(3, es=3, et=1)


def test_moment_table_validation():
    t1 = moment_table(6, "jacobi")
    t2 = moment_table(6, "jacobi")
    assert t1 == t2
    assert t1[0] == ONE and t1[1] == LAM
    with pytest.raises(ValueError):
        moment_table(3, "nope")


@pytest.mark.parametrize("engine", list(moments.ENGINE_TABLES))
def test_every_engine_table_keeps_the_contract(engine):
    table = moments.ENGINE_TABLES[engine]
    for s in (S, ONE, ZERO):
        for t in (T, ONE, ZERO):
            assert table(0, s, t) == [ONE]
    with pytest.raises(ValueError, match="n must be >= 0"):
        table(-1, S, T)


def _walk_at_s(n, s, t, engine):
    """[m_0, ..., m_n] of one engine walked at s, built straight from the
    primitives, with no digits read back."""
    if engine == "blockwise":
        return [ONE, *block_sums(n, lambda k, d: LAM * s**d * t ** (max(k - 2, 0) * d))[1:]]
    if engine == "jacobi":
        return motzkin_walk(n, jacobi(n // 2 + 1, LAM, s, t))
    P = fock.poisson_matrix(n // 2 + 1, s, t).entries
    levels = range(n // 2 + 1)
    return motzkin_walk(n, ([P[k][k] for k in levels],
                            [P[k + 1][k] * P[k][k + 1] for k in levels]))


# each table that walks at s = 2**(2n): its public function, the primitive
# that its s reaches, and l * s read off a call of that primitive (a block of
# size 2 at depth 1 weighs l * s)
S_PROBES = {
    "jacobi": (jacobi_moments, moments, "jacobi", lambda kmax, lam, s, t: lam * s),
    "operator": (fock.vacuum_moments, fock, "poisson_matrix", lambda N, s, t: LAM * s),
    "blockwise": (blockwise_moments, moments, "block_sums", lambda n, weight: weight(2, 1)),
}


@pytest.mark.parametrize("engine", list(S_PROBES))
def test_substituted_tables_equal_their_plain_walks(engine):
    table = S_PROBES[engine][0]
    for t in (T, ONE, ZERO):
        for n in range(17):
            assert table(n, S, t) == _walk_at_s(n, S, t, engine), (n, t)


@pytest.mark.parametrize("engine", list(S_PROBES))
def test_tables_substitute_s_only_where_digits_read_back(monkeypatch, engine):
    table, module, name, probe = S_PROBES[engine]
    seen, primitive = [], getattr(module, name)

    def record(*args):
        seen.append(probe(*args))
        return primitive(*args)

    monkeypatch.setattr(module, name, record)
    assert table(5) == nc_moments(5)  # the default (S, T)
    passed = [(ONE, T), (ZERO, T), (S + ONE, T), (S, T + ONE)]
    for s, t in [(S, T), (S, ONE), (S, ZERO), *passed]:
        assert table(5, s, t) == nc_moments(5, s, t), (s, t)
        assert moments.ENGINE_TABLES[engine](5, s, t) == nc_moments(5, s, t), (s, t)
    expected = [LAM * (1 << 10)] * 3 + [LAM * s for s, _ in passed]
    assert seen == [LAM * (1 << 10), *(x for x in expected for _ in range(2))]


# nc's 12-row tables are compared with blockwise's above, and
# test_criterion_01 compares its 10-row table with the others
@pytest.mark.parametrize("engine, n_max", [
    ("nc", 9), ("blockwise", 12), ("jacobi", 12), ("operator", 12)])
def test_moment_table_rows_match_moment_jacobi(engine, n_max):
    table = moment_table(n_max, engine)
    assert table == [moment_jacobi(k) for k in range(n_max + 1)]


def test_moment_table_operator_walks_once(monkeypatch):
    walks, products = [], []
    walk, apply = moments.motzkin_walk, fock.FockMatrix.apply

    def counted_walk(n, jp):
        walks.append(n)
        return walk(n, jp)

    def counted_apply(self, vec):
        products.append(vec)
        return apply(self, vec)

    monkeypatch.setattr(moments, "motzkin_walk", counted_walk)
    monkeypatch.setattr(fock.FockMatrix, "apply", counted_apply)
    moment_table(12, "operator")
    assert walks == [12]  # one walk for the table; 12 when built per row
    assert products == []  # the walk reads the matrix entries, it multiplies none


def test_moment_functional_basics():
    table = moment_table(12, "jacobi")
    assert moment_functional(XPoly([ONE]), table) == ONE
    polys = ortho_polys(6)
    assert moment_functional(polys[1] * polys[2], table) == ZERO
    assert moment_functional(polys[2] * polys[2], table) == mono(2, es=1)  # l^2*s
    with pytest.raises(DegreeOutOfRangeError):
        moment_functional(polys[6] * polys[6] * XPoly([ZERO, ONE]), table)


def test_orthogonality_and_norms():
    table = moment_table(12, "jacobi")
    polys = ortho_polys(6)
    for i in range(7):
        for j in range(i + 1, 7):
            assert moment_functional(polys[i] * polys[j], table) == ZERO
    for n in range(7):
        expected = mono(n, es=n * (n - 1) // 2)  # product of omega_1..omega_n
        assert moment_functional(polys[n] * polys[n], table) == expected


@pytest.mark.parametrize("engine, n_max", [("nc", 10), ("blockwise", 12)])
def test_orthogonality_under_the_combinatorial_tables(engine, n_max):
    # nc and blockwise build no Jacobi coefficients, so jacobi() cannot
    # bend these tables to its own polynomials as it can the jacobi table
    table = moment_table(n_max, engine)
    polys = ortho_polys(5)
    for i in range(6):
        for j in range(i + 1, 6):
            assert moment_functional(polys[i] * polys[j], table) == ZERO, (i, j)
    for n in range(6):
        expected = mono(n, es=n * (n - 1) // 2)  # product of omega_1..omega_n
        assert moment_functional(polys[n] * polys[n], table) == expected, n


def test_a_moment_table_is_its_engine_list():
    for engine, table in moments.ENGINE_TABLES.items():
        assert moment_table(6, engine) == table(6, S, T), engine
    for case in LimitCase:
        assert limit_case(6, case) == blockwise_moments(6, *case.value), case
    assert cfree_moments(6) == blockwise_moments(6, ONE, ZERO)
    ms = moment_table(4, "jacobi")
    assert moment_functional(XPoly([ZERO] * 4 + [ONE]), ms) == ms[4]
    with pytest.raises(DegreeOutOfRangeError, match="degree 5 exceeds the table degree 4"):
        moment_functional(XPoly([ZERO] * 5 + [ONE]), ms)


def test_cfree_moment_rows():
    table = cfree_moments(7)
    for n in range(1, 8):
        assert table[n] == cfree_row_poly(n)


def test_cfree_matches_specialized_general_moment():
    table = cfree_moments(10)
    general_table = moment_table(10, "nc")
    for n in range(1, 11):
        general = general_table[n].specialize_one(s=True).specialize_zero(kill_t=True)
        assert table[n] == general


def test_cfree_sequence_at_one():
    table = cfree_moments(8)
    values = [table[n].eval(1, 1, 1) for n in range(1, 9)]
    assert values == [1, 2, 5, 14, 41, 123, 374, 1147]


def test_limit_free_catalan():
    table = limit_case(6, LimitCase.FREE)
    for n in range(1, 7):
        # oracle: count of non-crossing partitions by brute force
        assert table[n].eval(1, 1, 1) == len(nc_bruteforce(n))
    assert table[2] == LAM**2 + LAM
    assert table[3] == LAM**3 + 3 * LAM**2 + LAM  # s folded into coefficients


def test_limit_boolean_powers_of_two():
    table = limit_case(6, LimitCase.BOOLEAN)
    for n in range(1, 7):
        count = interval_count_bruteforce(n)
        assert count == 2 ** (n - 1)
        assert table[n].eval(1, 1, 1) == count


def test_limit_tables_at_n_zero():
    for case in LimitCase:
        assert limit_case(0, case) == [ONE]
        with pytest.raises(ValueError, match="n must be >= 0"):
            limit_case(-1, case)
    assert cfree_moments(0) == [ONE]


def test_limit_cfree_delegates():
    table = limit_case(4, LimitCase.CFREE)
    assert table[4].eval(1, 1, 1) == 14
    assert table[4] == cfree_row_poly(4)


def test_limits_count_their_partition_families():
    # the paper's reading of the limits: substituting (s, t) into the
    # first-block recursion weighs each member of one family by l^blocks
    # and every other partition by 0, so m_n is a count by blocks
    pairs = ((LimitCase.FREE, Family.NC), (LimitCase.BOOLEAN, Family.INTERVAL),
             (LimitCase.CFREE, Family.NC12_INNER))
    for case, family in pairs:
        table = limit_case(12, case)
        for n in range(1, 13):
            counts = count_by_blocks(n, family)
            expected = MultiPoly({(2 * k, 0, 0): c for k, c in enumerate(counts, 1)})
            assert table[n] == expected, (case, n)  # no s or t left


@pytest.mark.parametrize("case,family", [(LimitCase.FREE, Family.NC),
                                         (LimitCase.BOOLEAN, Family.INTERVAL),
                                         (LimitCase.CFREE, Family.NC12_INNER)])
def test_each_limit_keeps_the_inner_blocks_of_its_family(case, family):
    # a block of k points at depth d weighs l * s^d * t^((k-2)*d) in the
    # first-block recursion; at the limit's (s, t) it survives exactly
    # when the family admits it: at depth 0, or with at most its cap points
    s, t = case.value
    for k in range(1, 7):
        for d in range(4):
            w = LAM * s**d * t**(max(k - 2, 0) * d)
            assert bool(w) == (d == 0 or k <= family.value), (k, d)


def test_moment_nonnegativity_and_integral_exponents():
    table = moment_table(10, "nc")
    for n in range(11):
        m = table[n]
        assert m.has_integral_lambda_exponents()
        assert all(coeff > 0 for _, coeff in m.terms())


def test_hankel_positivity_sampled():
    rng = random.Random(20260809)
    table = moment_table(8, "jacobi")
    for _ in range(10):
        lam = Fraction(rng.randint(1, 64), 16)
        s = Fraction(rng.randint(1, 16), 16)
        t = Fraction(rng.randint(1, 16), 16)
        ms = [table[k].eval(lam, s, t) for k in range(9)]
        hankel = [[ms[i + j] for j in range(5)] for i in range(5)]
        assert det_fraction(hankel) > 0


def test_xpoly_behaviour():
    x = XPoly([ZERO, ONE])
    assert (x * x).degree == 2
    assert (x * LAM).coeffs == (ZERO, LAM)
    assert XPoly([ONE, ZERO]).degree == 0
    p = XPoly([LAM, ONE])
    assert str(p) == "x + l"
    assert repr(p) == "XPoly(x + l)"
    assert repr(ortho_polys(1)) == "[XPoly(1), XPoly(x - l)]"
    assert str(XPoly([ONE, 2 * ONE])) == "(2)*x + 1"
    # a bare coefficient or an int is no XPoly: Python's own TypeError
    for other in (ONE, 1):
        with pytest.raises(TypeError):
            XPoly([ONE]) - other
    with pytest.raises(TypeError):
        XPoly([ONE]) * 1
