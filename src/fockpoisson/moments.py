"""Moment engines, the orthogonal-polynomial recurrence, and the limit cases.

Three independent tables compute the same moments [m_0, ..., m_n], each
m_k a polynomial in l, s and t, from one walk or recursion sized by n:

  * nc_moments        - sums over the non-crossing partitions of
                        l^blocks * s^td1 * t^td2, counted by one sweep over
                        the points of [n] that visits each member of NC(n)
                        once, with the totals in its frames
                        (partitions.nc_weight_counts),
  * blockwise_moments - the same sums as per-block products, a block of
                        size k at depth d weighing l * s^d * t^((k-2)*d),
                        added up by the first-block recursion
                        partitions.block_sums,
  * jacobi_moments    - the Motzkin-path sums over the recurrence
                        coefficients of jacobi(), from one motzkin_walk.

The operator table fock.vacuum_moments is a fourth: the same motzkin_walk
over the coefficients read off the Poisson operator's matrix.  So jacobi
and operator agree through the identities between its entries and jacobi(),
which the tests check as polynomials; nc and blockwise, which walk no
matrix, are the independent checks on the walk.  Exact agreement of all
four is wired into the test suite and the CLI's all-engines mode.
ENGINE_TABLES is the one map from engine name to its table function
(n, s, t) -> [m_0, ..., m_n]; moment_table and the CLI read it.  The
single-row functions moment_nc, moment_blockwise, moment_jacobi and
fock.vacuum_moment give row n of a table.  Every table function raises
ValueError("n must be >= 0") for n < 0 and gives [ONE] for n = 0 from its
walk.  nc_moments reads row n - j off the members of NC(n) whose last j
points are singletons at depth 0, with j blocks fewer.

For s = S and t one of T, ONE, ZERO, jacobi_moments, fock.vacuum_moments
and blockwise_moments each walk with s = 2**(2n) from _s_digits, over
MultiPoly in l and t alone, and read the s exponents back as base-2**(2n)
digits (MultiPoly.s_from_digits); moment_jacobi does so for its one row, and
moment_blockwise and fock.vacuum_moment are their tables' last rows.  The
combinatorial formula makes this exact for all three: m_k is the sum over
NC(k) of l^blocks * s^td1 * t^td2, so every coefficient of m_k is a
nonnegative count, and the counts add up to m_k(1, 1, 1) = Catalan(k) <
4**k <= 4**n.  Substitution is a ring map, so it commutes with any walk,
and no digit carries.  nc counts the s exponents and needs no digits.

Limits are substitutions made before computing: every engine takes the
values of s and t, by default the variables S and T, and ONE or ZERO in
their place gives s = 1, t = 1 or the s -> 0, t -> 0 limit (ZERO**0 is ONE,
so exponent-zero terms survive).  No engine specializes a polynomial after
computing it: the walks compute in the substituted ring, and nc_moments
substitutes into each count of its walk once, as it spreads them into rows
(ONE drops an exponent, ZERO every count with a positive one).  limit_case
and cfree_moments substitute the limit's (s, t) into the first-block
recursion (blockwise_moments).  There each block weighs l or nothing, so a
limit counts the members of a partition family by their blocks; the tests
check that reading against partitions.count_by_blocks.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from . import fock
from .partitions import NCPartition, block_sums, nc_weight_counts, stats
from .poly import LAM, ONE, S, T, ZERO, MultiPoly


class DegreeOutOfRangeError(ValueError):
    """The functional was applied to a polynomial beyond the table's degree."""


# -- Jacobi parameters and orthogonal polynomials ---------------------------


class JacobiParams(namedtuple("JacobiParams", "alpha omega")):
    """Recurrence coefficients; alpha[k-1] is alpha_k, omega[k-1] is omega_k."""

    __slots__ = ()


def jacobi(kmax: int, lam=LAM, s=S, t=T) -> JacobiParams:
    """alpha_1 = l, alpha_k = l*s^(k-1) + t^(k-2) (k >= 2), omega_k = l*s^(k-1).

    The parameters may live in any ring with +, * and ** whose zero
    satisfies 0**0 = 1: MultiPoly (the variables, or ONE/ZERO for the
    limits) or float.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    alpha = [lam] + [lam * s ** (k - 1) + t ** (k - 2) for k in range(2, kmax + 1)]
    omega = [lam * s ** (k - 1) for k in range(1, kmax + 1)]
    return JacobiParams(alpha=tuple(alpha), omega=tuple(omega))


class XPoly:
    """Polynomial in x with MultiPoly coefficients; coeffs[k] multiplies x^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        if not coeffs:
            coeffs = [ZERO]
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == ONE

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return XPoly([other * c for c in self.coeffs])
        if not isinstance(other, XPoly):
            return NotImplemented
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return XPoly(out)

    def __sub__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        pad = lambda cs: list(cs) + [ZERO] * (n - len(cs))
        return XPoly([a - b for a, b in zip(pad(self.coeffs), pad(other.coeffs))])

    def shift_up(self) -> "XPoly":
        """Multiply by x."""
        return XPoly((ZERO,) + self.coeffs)

    def __str__(self):
        chunks = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c and self.degree > 0:
                continue
            xpart = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            body = str(c)
            if xpart and body == "1":
                body = xpart
            elif xpart:
                body = f"({body})*{xpart}"
            chunks.append(body)
        # a chunk opening with a bare minus folds into the join
        return " + ".join(chunks).replace(" + -", " - ")

    def __repr__(self):
        return f"XPoly({self})"


def ortho_polys(nmax: int):
    """Monic orthogonal polynomials C_0 .. C_nmax from the three-term
    recurrence, started at C_{-1} = 0 so that C_1 = x - alpha_1 is a step."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    polys = [XPoly([ZERO]), XPoly([ONE])]  # C_{-1}, C_0
    jp = jacobi(nmax + 1)
    omega = (ZERO, *jp.omega)  # omega_0 meets only C_{-1} = 0
    for n in range(nmax):
        # C_{n+1} = (x - alpha_{n+1}) * C_n - omega_n * C_{n-1}
        recent = polys[-1]
        step = recent.shift_up() - recent * jp.alpha[n]
        polys.append(step - polys[-2] * omega[n])
    return polys[1:]


# -- the three moment engines -----------------------------------------------


def motzkin_walk(n: int, jp) -> list:
    """[m_0, ..., m_n] from one walk over the levels of the Jacobi matrix
    with coefficients jp: a JacobiParams, or any (alpha, omega) pair with at
    least n // 2 + 1 alphas and n // 2 omegas, in a ring whose unit is
    alpha[0] ** 0 (ONE for MultiPoly, 1 for int, Fraction(1) for Fraction).

    m_k is a sum over Motzkin paths from level 0 back to level 0, a step
    weighing alpha[i] at level i, omega[i] down from level i + 1 and 1 up
    (Flajolet 1980).  After step k of n a path is at a level <= k, and it
    can still return only from a level <= n - k, so step k computes levels
    0..min(k, n - k) alone.  The dropped levels carry no path of length
    <= n that ends at 0, so level 0 after step k is exactly m_k, and the walk
    never goes above level n // 2: any truncation at a level >= n // 2 gives
    the same m_0..m_n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    alpha, omega = jp
    if len(alpha) <= n // 2 or len(omega) < n // 2:
        raise ValueError(f"a walk of {n} steps needs {n // 2 + 1} alphas and {n // 2} omegas")
    one = alpha[0] ** 0
    vec, table = [one], [one]
    for k in range(1, n + 1):
        top = len(vec) - 1
        new = []
        for i in range(min(k, n - k) + 1):
            if i > top:  # a level first reached now, by a step up alone
                new.append(vec[i - 1])
                continue
            acc = alpha[i] * vec[i]
            if i > 0:
                acc = acc + vec[i - 1]
            if i < top:
                acc = acc + omega[i] * vec[i + 1]
            new.append(acc)
        vec = new
        table.append(vec[0])
    return table


def _s_digits(n: int, s, t):
    """(s_walk, read): the s that a table function walks with for rows up to
    n >= 0, and the map that reads m_k at (s, t) off row k of that walk.  For
    n > 0, s = S and t one of T, ONE, ZERO, s_walk is 2**(2n) and read is
    s_from_digits(2n) (see the module docstring); otherwise s_walk is s and
    read is the identity.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 0 and s == S and t in (T, ONE, ZERO):
        width = 2 * n
        return 1 << width, lambda p: p.s_from_digits(width)
    return s, lambda p: p


def jacobi_moments(n: int, s=S, t=T) -> list:
    """[m_0, ..., m_n] from the motzkin_walk over jacobi(n // 2 + 1), walked
    at _s_digits' s and read back row by row."""
    s_walk, read = _s_digits(n, s, t)
    return [read(m) for m in motzkin_walk(n, jacobi(n // 2 + 1, LAM, s_walk, t))]


def moment_jacobi(n: int, s=S, t=T) -> MultiPoly:
    """Vacuum moment as the (0,0) entry of the n-th monic Jacobi matrix
    power, walked as in the jacobi table; only row n is read back."""
    s_walk, read = _s_digits(n, s, t)
    return read(motzkin_walk(n, jacobi(n // 2 + 1, LAM, s_walk, t))[n])


def weight(p: NCPartition, st=None) -> MultiPoly:
    """l^(number of blocks) * s^td1 * t^td2; st, if given, is stats(p)."""
    if st is None:
        st = stats(p)
    return MultiPoly.term(1, el=len(p.blocks), es=st.td1, et=st.td2)


def nc_moments(n: int, s=S, t=T) -> list:
    """[m_0, ..., m_n] as weight sums over non-crossing partitions, from one
    sweep that visits each member of NC(n) (partitions.nc_weight_counts).

    A partition of [n] whose last j points are singletons at depth 0 is a
    member of NC(n - j) plus j blocks that nest nothing and sit inside
    nothing, with the same td1 and td2, and every member of NC(n - j)
    arises so once: row n - j sums the counts with tail >= j, with j blocks
    fewer.  Each count is substituted once as it is spread (see the module
    docstring), and other values of s and t weigh the rows with ring products.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return [ONE]
    keep_s, keep_t = s not in (ONE, ZERO), t not in (ONE, ZERO)
    kill_s, kill_t = s == ZERO, t == ZERO
    rows = [{} for _ in range(n + 1)]
    for (k, es, et, tail), c in nc_weight_counts(n).items():
        if kill_s and es or kill_t and et:
            continue
        es, et = es * keep_s, et * keep_t  # ONE and ZERO drop the exponent
        for j in range(tail + 1):
            row, key = rows[n - j], (2 * (k - j), es, et)
            row[key] = row.get(key, 0) + c
    if s in (S, ONE, ZERO) and t in (T, ONE, ZERO):
        return [ONE] + [MultiPoly(row) for row in rows[1:]]
    return [ONE] + [sum((MultiPoly({(el2, 0, 0): c}) * s**es * t**et
                         for (el2, es, et), c in row.items()), ZERO) for row in rows[1:]]


def moment_nc(n: int, s=S, t=T) -> MultiPoly:
    """Vacuum moment as the weight sum over all non-crossing partitions
    (see nc_moments)."""
    return nc_moments(n, s, t)[n]


def blockwise_moments(n: int, s=S, t=T) -> list:
    """[m_0, ..., m_n] as sums of per-block products, from one first-block
    recursion at _s_digits' s: a block of size k at depth d weighs l * s^d * t^((k-2)*d)."""
    s_walk, read = _s_digits(n, s, t)
    ms = block_sums(n, lambda k, d: LAM * s_walk**d * t ** (max(k - 2, 0) * d))
    return [ONE, *map(read, ms[1:])]


def moment_blockwise(n: int, s=S, t=T) -> MultiPoly:
    """Vacuum moment as the sum of per-block products, the blockwise table's last row."""
    return blockwise_moments(n, s, t)[n]


# -- moment tables and the functional ----------------------------------------


# The one map from engine name to table function (n, s, t) -> [m_0, ..., m_n],
# one recursion or walk per table; each but nc walks at s = 2**(2n) itself
# where _s_digits allows it.  Each entry looks its function up at call time, so a
# wrapper bound to the module attribute (tracing, tests) sees every call.
ENGINE_TABLES = {
    "nc": lambda n, s, t: nc_moments(n, s, t),
    "blockwise": lambda n, s, t: blockwise_moments(n, s, t),
    "jacobi": lambda n, s, t: jacobi_moments(n, s, t),
    "operator": lambda n, s, t: fock.vacuum_moments(n, s, t),
}


def moment_table(n_max: int, engine: str = "jacobi") -> list:
    """[m_0, ..., m_n_max] via one engine: its ENGINE_TABLES function at S, T."""
    try:
        table = ENGINE_TABLES[engine]
    except KeyError:
        raise ValueError(f"unknown engine {engine!r}") from None
    return table(n_max, S, T)


def moment_functional(p: XPoly, ms) -> MultiPoly:
    """The linear functional sending x^n to ms[n], applied coefficient-wise."""
    if p.degree >= len(ms):
        raise DegreeOutOfRangeError(
            f"degree {p.degree} exceeds the table degree {len(ms) - 1}"
        )
    acc = ZERO
    for c, m in zip(p.coeffs, ms):
        if c:
            acc = acc + c * m
    return acc


# -- special cases ------------------------------------------------------------


class LimitCase(Enum):
    """A classical limit is its (s, t), ONE or ZERO substituted for each."""

    FREE = (ONE, ONE)
    BOOLEAN = (ZERO, ZERO)
    CFREE = (ONE, ZERO)


def limit_case(nmax: int, case: LimitCase) -> list:
    """[m_0, ..., m_nmax] in one of the three classical limits, from the first-block
    recursion with the limit's (s, t) substituted.  A block weighs l or
    nothing, so m_n counts a partition family by blocks (all non-crossing,
    interval, inner blocks of size <= 2); the tests check it against
    partitions.count_by_blocks."""
    return blockwise_moments(nmax, *case.value)


def cfree_moments(nmax: int) -> list:
    """The s = 1, t -> 0 table [m_0, ..., m_nmax]: m_n = sum over k of l^k
    times the number of non-crossing partitions with k blocks, every inner
    block of size <= 2."""
    return limit_case(nmax, LimitCase.CFREE)
