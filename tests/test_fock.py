import pytest

from fockpoisson import fock
from fockpoisson.fock import (
    FockMatrix,
    build_generators,
    check_relations,
    poisson_matrix,
    vacuum_moment,
    vacuum_moments,
)
from fockpoisson.moments import jacobi, jacobi_moments
from fockpoisson.poly import LAM, ONE, SQRT_LAM, S, T, ZERO, MultiPoly
from fockpoisson.words import OperatorWord

from oracles import identity_rows, nc_bruteforce, poisson_dense_sum, weight_exponents


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


PAIRS = [(s, t) for s in (S, ONE, ZERO) for t in (T, ONE, ZERO)]


def test_poisson_matrix_is_the_dense_sum_of_the_generators():
    # the paper's definition of P, summed over every entry of the four tables
    for s, t in PAIRS:
        for N in range(1, 9):
            tables = [g.entries for g in build_generators(N, s, t)]
            expected = poisson_dense_sum(*tables, SQRT_LAM, LAM)
            assert poisson_matrix(N, s, t).entries == expected, (N, s, t)


def test_poisson_matrix_sums_on_the_band(monkeypatch):
    # P is summed on its three diagonals from the generators' entries: at most
    # four ring operations per level beyond the generators themselves
    calls = [0]
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(self, other, original=getattr(MultiPoly, name)):
            calls[0] += 1
            return original(self, other)
        monkeypatch.setattr(MultiPoly, name, counted)
    build_generators(200)
    generators, calls[0] = calls[0], 0
    poisson_matrix(200)
    assert 0 < calls[0] - generators <= 4 * 201


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


CRE, ANN, SCALAR, INTER = range(4)


def mutated_generators(which, level, entry):
    # build_generators with one entry replaced: the one that basis vector
    # `level` maps through in generator number `which`
    def build(N, s=S, t=T):
        generators = build_generators(N, s, t)
        i = {CRE: level + 1, ANN: level - 1}.get(which, level)
        generators[which].entries[i][level] = entry
        return generators
    return build


@pytest.mark.parametrize("which, level, entry, failing", [
    (INTER, 1, T, {"inter*cre = t*(cre*inter)", "t*(inter*ann) = ann*inter"}),
    (INTER, 5, T**5, {"inter*cre = t*(cre*inter)", "t*(inter*ann) = ann*inter"}),
    (SCALAR, 0, S, {"ann*cre = scalar", "scalar*cre = s*(cre*scalar)",
                    "s*(scalar*ann) = ann*scalar"}),
    (SCALAR, 5, S**6, {"scalar*cre = s*(cre*scalar)", "s*(scalar*ann) = ann*scalar"}),
    (ANN, 2, S**2, {"ann*cre = scalar", "ann*cre = s*(cre*ann)"}),
    (CRE, 1, MultiPoly.const(2), {"ann*cre = scalar", "ann*cre = s*(cre*ann)"}),
], ids=["intermediate-first", "intermediate-top", "scalar-vacuum", "scalar-top",
        "annihilation", "creation"])
def test_check_relations_reports_a_mutated_entry(monkeypatch, which, level, entry, failing):
    # one wrong generator entry fails exactly the relations that read it on
    # their column range, the first and last columns of each range included;
    # the diagonal pair still commutes
    names = list(check_relations(5))
    monkeypatch.setattr(fock, "build_generators", mutated_generators(which, level, entry))
    report = check_relations(5)
    assert list(report) == names
    assert {name for name, holds in report.items() if not holds} == failing


def test_unscaled_adjoint_pair_differs():
    creation, annihilation, _, _ = build_generators(4)
    left = annihilation @ creation
    right = creation @ annihilation
    assert any(left.entry(i, j) != right.entry(i, j) for j in range(1, 4) for i in range(5))


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


def scaled_steps(generators):
    """letter -> the scaled generator X_x as a function of a vector, applied
    with FockMatrix.apply: X_C = sqrt(l)*creation, X_A = sqrt(l)*annihilation,
    X_M = intermediate and X_K = l*scalar."""
    creation, annihilation, scalar, intermediate = generators
    scaled = {"C": (SQRT_LAM, creation), "A": (SQRT_LAM, annihilation),
              "M": (ONE, intermediate), "K": (LAM, scalar)}
    return {x: (lambda vec, f=f, g=g: [f * y if y else y for y in g.apply(vec)])
            for x, (f, g) in scaled.items()}


def word_expectations(generators, nmax):
    """{letters: <vacuum, X_wn ... X_w1 vacuum>} for every word over C/A/M/K
    of length 1..nmax, the scaled generators applied letter by letter and
    the words sharing their prefixes depth first."""
    steps = scaled_steps(generators)
    values = {}
    stack = [("", [ONE])]
    while stack:
        letters, vec = stack.pop()
        for x, step in steps.items():
            word, out = letters + x, step(vec)
            values[word] = out[0]
            if len(word) < nmax:
                stack.append((word, out))
    return values


def card_weight(letters):
    w = OperatorWord(letters)
    return w.arrangement().total_weight if w.is_admissible() else ZERO


def test_every_word_expectation_is_its_card_weight():
    # the combinatorial moment formula, word by word: the vacuum expectation
    # of an admissible word is its card weight, of any other word zero
    values = word_expectations(build_generators(7), 7)
    assert len(values) == 21844
    assert sum(OperatorWord(w).is_admissible() for w in values) == 625
    assert [w for w, v in values.items() if v != card_weight(w)] == []
    sums = [ZERO] * 8
    for w, v in values.items():
        sums[len(w)] += v
    assert sums[1:] == jacobi_moments(7)[1:]


def test_word_expectations_see_a_mutated_intermediate_entry():
    creation, annihilation, scalar, intermediate = build_generators(7)
    rows = [list(row) for row in intermediate.entries]
    rows[2][2] = T**2  # t^(m-1) at m = 2 becomes t^m
    values = word_expectations((creation, annihilation, scalar, FockMatrix(rows)), 5)
    assert [w for w, v in values.items() if v != card_weight(w)]
