"""Truncated one-mode Fock matrices and vacuum moments of the Poisson operator.

Basis vector m (0 <= m <= N) is the m-fold tensor power of the unit vector,
index 0 being the vacuum.  The four generators act as

    creation:      m -> m+1, entry 1          (top level truncates to 0)
    annihilation:  m -> m-1, entry s^(m-1)    (vacuum -> 0)
    scalar:        m -> m,   entry s^m
    intermediate:  m -> m,   entry t^(m-1) for m >= 1, vacuum -> 0

and the Poisson operator is P = intermediate + sqrt(l)*(creation +
annihilation) + l*scalar.  The operator engine's own content is these
entries: P is a Jacobi operator (Accardi-Bozejko 1998), P[k][k] is
alpha_(k+1) and P[k+1][k] * P[k][k+1] is omega_(k+1) of moments.jacobi, so
its vacuum moments, the (0, 0) entries of its powers, are Motzkin-path sums.
vacuum_moments(n) reads the coefficients off poisson_matrix(n // 2 + 1) at
s = 2**(2n) where moments._s_digits allows it, walks them with
moments.motzkin_walk and reads the rows back; vacuum_moment(n) is its row n.
FockMatrix multiplies only in apply.
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

    @classmethod
    def zeros(cls, dim: int) -> "FockMatrix":
        return cls([[ZERO] * dim for _ in range(dim)])

    def __eq__(self, other):
        if not isinstance(other, FockMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __add__(self, other):
        if not isinstance(other, FockMatrix) or other.dim != self.dim:
            return NotImplemented
        return FockMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def scale(self, factor: MultiPoly) -> "FockMatrix":
        return FockMatrix([[factor * x for x in row] for row in self.entries])

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

    def columns_equal(self, other: "FockMatrix", columns) -> bool:
        return all(
            self.entries[i][j] == other.entries[i][j]
            for j in columns
            for i in range(self.dim)
        )

    def to_json_obj(self):
        return [[str(x) for x in row] for row in self.entries]


def build_generators(N: int, s=S, t=T):
    """(creation, annihilation, scalar, intermediate) truncated at level N.

    s and t are the variables by default; ONE or ZERO substitute a limit.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    dim = N + 1
    creation = FockMatrix.zeros(dim)
    annihilation = FockMatrix.zeros(dim)
    scalar = FockMatrix.zeros(dim)
    intermediate = FockMatrix.zeros(dim)
    for m in range(dim):
        if m + 1 <= N:
            creation.entries[m + 1][m] = ONE
        if m >= 1:
            annihilation.entries[m - 1][m] = s ** (m - 1)
            intermediate.entries[m][m] = t ** (m - 1)
        scalar.entries[m][m] = s**m
    return creation, annihilation, scalar, intermediate


def poisson_matrix(N: int, s=S, t=T) -> FockMatrix:
    """intermediate + sqrt(l)*(creation + annihilation) + l*scalar."""
    creation, annihilation, scalar, intermediate = build_generators(N, s, t)
    return intermediate + (creation + annihilation).scale(SQRT_LAM) + scalar.scale(LAM)


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

    Each relation is compared column by column on the range where it holds:
    products involving creation exclude the top (truncated) column, relations
    that reorder annihilation against a diagonal operator exclude the vacuum
    column, and the two intermediate-operator exchange relations additionally
    exclude the first column on which one side hits m_t's vacuum kernel
    (m_t applied to the vacuum is 0, unlike the scalar operator).  Returns an
    ordered mapping from relation name to bool.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    creation, annihilation, scalar, intermediate = build_generators(N)
    ann_cre = annihilation @ creation

    below_top = range(0, N)  # products through creation are exact here
    below_top_pos = range(1, N)
    all_cols = range(0, N + 1)
    pos_cols = range(1, N + 1)

    checks = [
        ("ann*cre = scalar", ann_cre, scalar, below_top),
        (
            "ann*cre = s*(cre*ann)",
            ann_cre,
            (creation @ annihilation).scale(S),
            below_top_pos,
        ),
        (
            "scalar*cre = s*(cre*scalar)",
            scalar @ creation,
            (creation @ scalar).scale(S),
            below_top,
        ),
        (
            "s*(scalar*ann) = ann*scalar",
            (scalar @ annihilation).scale(S),
            annihilation @ scalar,
            pos_cols,
        ),
        (
            "inter*cre = t*(cre*inter)",
            intermediate @ creation,
            (creation @ intermediate).scale(T),
            below_top_pos,
        ),
        (
            "t*(inter*ann) = ann*inter",
            (intermediate @ annihilation).scale(T),
            annihilation @ intermediate,
            range(2, N + 1),
        ),
        (
            "scalar*inter = inter*scalar",
            scalar @ intermediate,
            intermediate @ scalar,
            pos_cols,
        ),
    ]
    return {name: lhs.columns_equal(rhs, cols) for name, lhs, rhs, cols in checks}
