"""Truncated one-mode Fock matrices and vacuum moments of the Poisson operator.

Basis vector m (0 <= m <= N) is the m-fold tensor power of the unit vector,
index 0 being the vacuum.  The four generators act as

    creation:      m -> m+1, entry 1          (top level truncates to 0)
    annihilation:  m -> m-1, entry s^(m-1)    (vacuum -> 0)
    scalar:        m -> m,   entry s^m
    intermediate:  m -> m,   entry t^(m-1) for m >= 1, vacuum -> 0

and the Poisson operator is P = intermediate + sqrt(l)*(creation +
annihilation) + l*scalar, summed on the three diagonals where the generators
have entries.  The operator engine's own content is these entries: P is a
Jacobi operator (Accardi-Bozejko 1998), P[k][k] is alpha_(k+1) and
P[k+1][k] * P[k][k+1] is omega_(k+1) of moments.jacobi, so its vacuum
moments, the (0, 0) entries of its powers, are Motzkin-path sums.
vacuum_moments(n) reads the coefficients off poisson_matrix(n // 2 + 1) at
s = 2**(2n) where moments._s_digits allows it, walks them with
moments.motzkin_walk and reads the rows back; vacuum_moment(n) is its row n.
FockMatrix multiplies only in apply, and check_relations applies each
product of generators to one basis vector at a time.
"""

from __future__ import annotations

from .poly import LAM, ONE, S, SQRT_LAM, T, ZERO, MultiPoly


class FockMatrix:
    """Dense square matrix of MultiPoly entries over the truncated basis."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        dim = len(entries)
        for row in entries:
            if len(row) != dim:
                raise ValueError("matrix must be square")
        self.dim = dim
        self.entries = entries

    def __eq__(self, other):
        if not isinstance(other, FockMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __matmul__(self, other):
        if not isinstance(other, FockMatrix) or other.dim != self.dim:
            return NotImplemented
        return FockMatrix(zip(*map(self.apply, zip(*other.entries))))

    def apply(self, vec):
        """The matrix-vector product over MultiPoly entries, dim entries long.

        vec may be shorter than dim; its missing entries are zero.  Only
        entries where both the matrix and the vector are nonzero are
        multiplied, so a band matrix times a short vector costs the band.
        """
        nonzero = [(j, x) for j, x in enumerate(vec[:self.dim]) if x]
        out = []
        for row in self.entries:
            acc = ZERO
            for j, x in nonzero:
                a = row[j]
                if a:
                    term = a * x
                    acc = acc + term if acc else term
            out.append(acc)
        return out

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.entries[i][j]

    def to_json_obj(self):
        return [[str(x) for x in row] for row in self.entries]


def build_generators(N: int, s=S, t=T):
    """(creation, annihilation, scalar, intermediate) truncated at level N.

    s and t are the variables by default; ONE or ZERO substitute a limit.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    dim = N + 1
    creation, annihilation, scalar, intermediate = tables = [
        [[ZERO] * dim for _ in range(dim)] for _ in range(4)
    ]
    for m in range(dim):
        if m + 1 <= N:
            creation[m + 1][m] = ONE
        if m >= 1:
            annihilation[m - 1][m] = s ** (m - 1)
            intermediate[m][m] = t ** (m - 1)
        scalar[m][m] = s**m
    return tuple(map(FockMatrix, tables))


def poisson_matrix(N: int, s=S, t=T) -> FockMatrix:
    """intermediate + sqrt(l)*(creation + annihilation) + l*scalar, summed on
    the three diagonals that hold the generators' entries."""
    cre, ann, scalar, inter = (g.entries for g in build_generators(N, s, t))
    P = [[ZERO] * (N + 1) for _ in range(N + 1)]
    for m in range(N + 1):
        P[m][m] = inter[m][m] + LAM * scalar[m][m]
        if m < N:
            P[m + 1][m] = SQRT_LAM * cre[m + 1][m]
            P[m][m + 1] = SQRT_LAM * ann[m][m + 1]
    return FockMatrix(P)


def vacuum_moments(n: int, s=S, t=T) -> list:
    """[m_0, ..., m_n], the (0,0) entries of the Poisson operator's powers
    0..n: the walk over poisson_matrix(n // 2 + 1) at moments._s_digits' s."""
    from .moments import _s_digits, motzkin_walk  # moments imports this module
    s_walk, read = _s_digits(n, s, t)
    P = poisson_matrix(n // 2 + 1, s_walk, t).entries
    levels = range(n // 2 + 1)
    jp = [P[k][k] for k in levels], [P[k + 1][k] * P[k][k + 1] for k in levels]
    return [read(m) for m in motzkin_walk(n, jp)]


def vacuum_moment(n: int, s=S, t=T) -> MultiPoly:
    """(0,0) entry of the operator's n-th power: row n of vacuum_moments."""
    return vacuum_moments(n, s, t)[n]


def check_relations(N: int):
    """Verify the generator commutation relations as truncated-matrix identities.

    Each side of a relation is a factor times a product of generators, applied
    right to left to each basis vector e_j of the range where the relation
    holds: products involving creation exclude the top (truncated) column,
    relations that reorder annihilation against a diagonal operator exclude
    the vacuum column, and the two intermediate-operator exchange relations
    additionally exclude the first column on which one side hits m_t's vacuum
    kernel (m_t applied to the vacuum is 0, unlike the scalar operator).
    Returns an ordered mapping from relation name to bool.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    cre, ann, scalar, inter = build_generators(N)

    def column(side, j):
        factor, *product = side
        vec = [ZERO] * j + [ONE]  # e_j
        for generator in reversed(product):
            vec = generator.apply(vec)
        return [factor * x if x else x for x in vec]

    below_top = range(0, N)  # products through creation are exact here
    below_top_pos = range(1, N)
    pos_cols = range(1, N + 1)

    checks = [
        ("ann*cre = scalar", (ONE, ann, cre), (ONE, scalar), below_top),
        ("ann*cre = s*(cre*ann)", (ONE, ann, cre), (S, cre, ann), below_top_pos),
        ("scalar*cre = s*(cre*scalar)", (ONE, scalar, cre), (S, cre, scalar), below_top),
        ("s*(scalar*ann) = ann*scalar", (S, scalar, ann), (ONE, ann, scalar), pos_cols),
        ("inter*cre = t*(cre*inter)", (ONE, inter, cre), (T, cre, inter), below_top_pos),
        ("t*(inter*ann) = ann*inter", (T, inter, ann), (ONE, ann, inter), range(2, N + 1)),
        ("scalar*inter = inter*scalar", (ONE, scalar, inter), (ONE, inter, scalar), pos_cols),
    ]
    return {name: all(column(lhs, j) == column(rhs, j) for j in cols)
            for name, lhs, rhs, cols in checks}
