"""Cross-engine agreement past n = 20, modulo the prime P = 2**61 - 1
(skipped without hypothesis).

motzkin_walk and partitions.block_sums compute in any ring, so both run at
random integer points reduced modulo P.  Their tables are polynomials in
l, s, t of total degree at most n**2 / 2, so a nonzero difference vanishes
at a random point with probability at most n**2 / (2 * P), about 5e-16 for
n = 48 (Schwartz, J. ACM 27, 1980).

Examples are derandomized and bounded, so every run checks the same points.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fockpoisson.moments import jacobi, motzkin_walk  # noqa: E402
from fockpoisson.partitions import block_sums  # noqa: E402

P = 2**61 - 1


class Mod(int):
    """An int reduced modulo P after +, * and **."""

    def __new__(cls, value):
        return super().__new__(cls, value % P)

    def __add__(self, other):
        return Mod(int.__add__(self, other))

    def __mul__(self, other):
        return Mod(int.__mul__(self, other))

    def __pow__(self, exponent):
        return Mod(pow(int(self), exponent, P))

    # int + Mod and int * Mod call these first, Mod being a subclass of int
    __radd__ = __add__
    __rmul__ = __mul__


def test_mod_reduces_after_every_operation():
    a = Mod(P - 1)
    assert a + 2 == 1 and 2 + a == 1
    assert a * a == 1 and 3 * a == P - 3
    assert a**3 == P - 1 and a**0 == 1
    assert all(type(x) is Mod for x in (a + 2, 2 + a, a * a, 3 * a, a**0))


residues = st.integers(0, P - 1).map(Mod)


@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(st.integers(21, 48), residues, residues, residues)
def test_jacobi_walk_equals_the_first_block_recursion(n, l, s, t):
    blockwise = block_sums(n, lambda k, d: l * s**d * t ** (max(k - 2, 0) * d))
    assert motzkin_walk(n, jacobi(n // 2 + 1, l, s, t)) == blockwise
