"""Property tests for MultiPoly's ring structure (skipped without hypothesis).

Examples are derandomized and bounded, so every run checks the same
polynomials.  Exponents mix small values, so that terms merge and cancel,
with values near 2**28, so that packed keys use every field.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fockpoisson.poly import ONE, ZERO, MultiPoly  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)

exponents = st.one_of(st.integers(0, 3), st.integers(2**28 - 3, 2**28))
monomials = st.tuples(exponents, exponents, exponents)
polys = st.dictionaries(monomials, st.integers(-4, 4), max_size=5).map(MultiPoly)
LIMITS = [dict(kill_s=True), dict(kill_t=True), dict(kill_s=True, kill_t=True)]
ONES = [dict(s=True), dict(t=True), dict(s=True, t=True)]


def graded_lex(key):
    el2, es, et = key
    return (el2 + 2 * es + 2 * et, el2, es, et)


def tuple_product(a, b):
    """a * b over (el2, es, et) tuples, the unpacked reference."""
    out = {}
    for (a1, a2, a3), ca in a.terms():
        for (b1, b2, b3), cb in b.terms():
            key = (a1 + b1, a2 + b2, a3 + b3)
            out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


@SETTINGS
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a - a == ZERO and not (a - a)
    assert -(a - b) == b - a


@SETTINGS
@given(polys, polys)
def test_product_matches_the_tuple_product(a, b):
    assert dict((a * b).terms()) == tuple_product(a, b)


@SETTINGS
@given(polys, polys)
def test_specializations_are_ring_homomorphisms(a, b):
    for kw in LIMITS:
        f = lambda p: p.specialize_zero(**kw)  # noqa: E731
        assert f(a * b) == f(a) * f(b)
        assert f(a + b) == f(a) + f(b)
        assert f(ONE) == ONE
    for kw in ONES:
        f = lambda p: p.specialize_one(**kw)  # noqa: E731
        assert f(a * b) == f(a) * f(b)
        assert f(a + b) == f(a) + f(b)
        assert f(ONE) == ONE


@SETTINGS
@given(polys)
def test_terms_round_trip_in_graded_lex_order(p):
    terms = list(p.terms())
    assert MultiPoly(dict(terms)) == p
    keys = [k for k, _ in terms]
    assert keys == sorted(keys, key=graded_lex, reverse=True)
    assert all(c for _, c in terms)
