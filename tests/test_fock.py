import pytest

from fockpoisson.fock import (
    FockMatrix,
    build_generators,
    check_relations,
    poisson_matrix,
    vacuum_moment,
    vacuum_moments,
)
from fockpoisson.moments import jacobi
from fockpoisson.poly import LAM, ONE, SQRT_LAM, S, T, ZERO, MultiPoly

from oracles import identity_rows, nc_bruteforce, weight_exponents


def mono(el, es=0, et=0):
    return MultiPoly.term(1, el=el, es=es, et=et)


def test_generator_entries():
    creation, annihilation, scalar, intermediate = build_generators(1)
    assert annihilation.entry(0, 1) == ONE

    creation, annihilation, scalar, intermediate = build_generators(2)
    assert annihilation.entry(1, 2) == mono(0, es=1)
    assert intermediate.entry(0, 0) == ZERO
    assert intermediate.entry(1, 1) == ONE  # t^0
    assert intermediate.entry(2, 2) == mono(0, et=1)
    assert scalar.entry(0, 0) == ONE
    assert scalar.entry(2, 2) == mono(0, es=2)
    assert creation.entry(1, 0) == ONE
    assert creation.entry(2, 1) == ONE
    # truncation: the top basis vector maps to zero under creation
    assert all(creation.entry(i, 2) == ZERO for i in range(3))


def test_generators_banded():
    creation, annihilation, scalar, intermediate = build_generators(4)
    for i in range(5):
        for j in range(5):
            if i != j + 1:
                assert creation.entry(i, j) == ZERO
            if i != j - 1:
                assert annihilation.entry(i, j) == ZERO
            if i != j:
                assert scalar.entry(i, j) == ZERO
                assert intermediate.entry(i, j) == ZERO


def test_poisson_entries():
    P = poisson_matrix(2)
    assert P.entry(0, 0) == LAM
    assert P.entry(1, 0) == SQRT_LAM
    assert P.entry(1, 1) == ONE + mono(1, es=1)
    assert P.entry(0, 1) == SQRT_LAM
    assert P.entry(1, 2) == SQRT_LAM * mono(0, es=1)
    assert P.entry(2, 2) == mono(0, et=1) + mono(1, es=2)
    assert P.entry(0, 2) == ZERO


def test_vacuum_moments_small():
    assert vacuum_moment(0) == ONE
    assert vacuum_moment(1) == LAM
    assert vacuum_moment(2) == LAM**2 + LAM


def test_vacuum_moment_matches_nc_oracle():
    for n in range(1, 7):
        expected = ZERO
        for blocks in nc_bruteforce(n):
            k, td1, td2 = weight_exponents(blocks)
            expected = expected + mono(k, es=td1, et=td2)
        assert vacuum_moment(n) == expected


PAIRS = [(s, t) for s in (S, ONE, ZERO) for t in (T, ONE, ZERO)]


def test_trimmed_walk_matches_dense_powers():
    # every row of the walk over the coefficients read off the matrix,
    # against the (0,0) entries of the full matrix powers three levels
    # deeper, no level dropped; the powers multiply through apply
    for s, t in PAIRS:
        for n in range(1, 11):
            P = poisson_matrix(n + 3, s, t)
            power, rows = P, [ONE, P.entry(0, 0)]
            for _ in range(n - 1):
                power = power @ P
                rows.append(power.entry(0, 0))
            assert vacuum_moments(n, s, t) == rows, (n, s, t)


@pytest.mark.parametrize("s, t, kmax", [(S, T, 200), *((s, t, 60) for s, t in PAIRS[1:])],
                         ids=str)
def test_entries_are_the_recurrence_coefficients(s, t, kmax):
    # the operator engine's own content: the diagonal is alpha_(k+1) and
    # the product of the two off-diagonal entries omega_(k+1), as polynomials
    P = poisson_matrix(kmax, s, t)
    jp = jacobi(kmax, LAM, s, t)
    for k in range(kmax):
        assert P.entry(k, k) == jp.alpha[k], (k, s, t)
        assert P.entry(k + 1, k) * P.entry(k, k + 1) == jp.omega[k], (k, s, t)


def test_apply_reads_missing_vector_entries_as_zero():
    P = poisson_matrix(5)
    short = [ONE, SQRT_LAM, ZERO, LAM]
    assert P.apply(short) == P.apply(short + [ZERO] * 2)
    assert len(P.apply(short)) == P.dim
    assert P.apply([]) == [ZERO] * P.dim


def test_check_relations():
    assert all(check_relations(5).values())
    report = check_relations(2)
    assert len(report) == 7
    assert all(report.values())


def test_unscaled_adjoint_pair_differs():
    creation, annihilation, _, _ = build_generators(4)
    left = annihilation @ creation
    right = creation @ annihilation
    assert not left.columns_equal(right, range(1, 4))


def test_weighted_symmetry():
    # (P x | y)_s = (x | P y)_s for the s-weighted inner product, i.e.
    # P(i,j) * s^(i(i-1)/2) = P(j,i) * s^(j(j-1)/2) entrywise.
    N = 6
    P = poisson_matrix(N)
    for i in range(N + 1):
        for j in range(N + 1):
            lhs = P.entry(i, j) * mono(0, es=i * (i - 1) // 2)
            rhs = P.entry(j, i) * mono(0, es=j * (j - 1) // 2)
            assert lhs == rhs
    # off-diagonal bands carry exactly the generator table entries
    for m in range(N):
        assert P.entry(m + 1, m) == SQRT_LAM
        assert P.entry(m, m + 1) == SQRT_LAM * mono(0, es=m)


def test_matrix_helpers():
    ident = FockMatrix(identity_rows(3, ONE, ZERO))
    P = poisson_matrix(2)
    assert ident @ P == P
    assert P.apply([ONE, ZERO, ZERO]) == [P.entry(0, 0), P.entry(1, 0), P.entry(2, 0)]
    with pytest.raises(ValueError):
        FockMatrix([[ONE, ZERO]])
    assert P.to_json_obj()[0][0] == "l"


def test_ortho_polys_map_vacuum_to_scaled_basis():
    # C_n(P) applied to the vacuum is lambda^(n/2) times the n-th basis vector
    from fractions import Fraction

    from fockpoisson.moments import ortho_polys

    nmax = 5
    P = poisson_matrix(nmax + 1)
    polys = ortho_polys(nmax)
    powers = [[ONE] + [ZERO] * (nmax + 1)]
    for _ in range(nmax):
        powers.append(P.apply(powers[-1]))
    for n, poly in enumerate(polys):
        vec = [ZERO] * (nmax + 2)
        for k, c in enumerate(poly.coeffs):
            if c:
                vec = [v + c * pk for v, pk in zip(vec, powers[k])]
        for m, component in enumerate(vec):
            expected = MultiPoly.term(1, el=Fraction(n, 2)) if m == n else ZERO
            assert component == expected


def test_moment_polys_have_integral_lambda_and_nonneg_coeffs():
    for n in range(0, 9):
        m = vacuum_moment(n)
        assert m.has_integral_lambda_exponents()
        assert all(coeff > 0 for _, coeff in m.terms())
