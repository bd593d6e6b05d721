"""Truncated one-mode Fock matrices and vacuum moments of the Poisson operator.

Basis vector m (0 <= m <= N) is the m-fold tensor power of the unit vector,
index 0 being the vacuum.  The four generators act as

    creation:      m -> m+1, entry 1          (top level truncates to 0)
    annihilation:  m -> m-1, entry s^(m-1)    (vacuum -> 0)
    scalar:        m -> m,   entry s^m
    intermediate:  m -> m,   entry t^(m-1) for m >= 1, vacuum -> 0

and the Poisson operator is  intermediate + sqrt(l)*(creation + annihilation)
+ l*scalar.  Vacuum moments are the (0, 0) entries of its powers;
vacuum_moments(n) truncates at N = n, which is exact for the n-th moment
because n factors starting from the vacuum never reach level n+1.  The walk
is trimmed further: after k of the n steps, a level above n - k is more
steps down than remain, so nothing there returns to the vacuum, and
vacuum_moments computes only the levels <= min(k, n - k) of its vector.
A path of length k <= n that returns to the vacuum stays within that
window, so the vacuum entry after step k is exactly m_k, and one walk gives
the whole table m_0..m_n.
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

    @classmethod
    def identity(cls, dim: int) -> "FockMatrix":
        m = cls.zeros(dim)
        for i in range(dim):
            m.entries[i][i] = ONE
        return m

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
        n = self.dim
        out = FockMatrix.zeros(n)
        for i in range(n):
            row = self.entries[i]
            for k in range(n):
                a = row[k]
                if not a:
                    continue
                other_row = other.entries[k]
                for j in range(n):
                    b = other_row[j]
                    if b:
                        out.entries[i][j] = out.entries[i][j] + a * b
        return out

    def apply(self, vec, rows=None):
        """The first rows entries (default: all dim) of the matrix-vector
        product over MultiPoly entries; only those rows are computed.

        vec may be shorter than dim; its missing entries are zero.  Only
        entries where both the matrix and the vector are nonzero are
        multiplied, so a band matrix times a short vector costs the band.
        """
        out = []
        for row in self.entries[:rows]:
            acc = ZERO
            for a, x in zip(row, vec):
                if a and x:
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
    0..n truncated at level n, from one walk from the vacuum."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return [ONE]
    P = poisson_matrix(n, s, t)
    vec, table = [ONE], [ONE]
    for k in range(1, n + 1):
        vec = P.apply(vec, min(k, n - k) + 1)
        table.append(vec[0])
    return table


def vacuum_moment(n: int, s=S, t=T) -> MultiPoly:
    """(0,0) entry of the n-th power of the Poisson operator, truncated at level n."""
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

    below_top = range(0, N)  # products through creation are exact here
    below_top_pos = range(1, N)
    all_cols = range(0, N + 1)
    pos_cols = range(1, N + 1)

    checks = [
        ("ann*cre = scalar", annihilation @ creation, scalar, below_top),
        (
            "ann*cre = s*(cre*ann)",
            annihilation @ creation,
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
