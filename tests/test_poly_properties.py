"""Property tests for MultiPoly's ring structure, its s-digit read-back and
its text (skipped without hypothesis).

Examples are derandomized and bounded, so every run checks the same
polynomials.  Exponents mix small values, so that terms merge and cancel,
with values near 2**28, so that packed keys use every field.  The text
tests add exponents around 128, where factor text stops being looked up,
and compare with a reference renderer that sorts exponent tuples.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fockpoisson.poly import ONE, ZERO, MultiPoly  # noqa: E402
from oracles import poly_json_terms, poly_text  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)

exponents = st.one_of(st.integers(0, 3), st.integers(2**28 - 3, 2**28))
monomials = st.tuples(exponents, exponents, exponents)
polys = st.dictionaries(monomials, st.integers(-4, 4), max_size=5).map(MultiPoly)
LIMITS = [dict(kill_s=True), dict(kill_t=True), dict(kill_s=True, kill_t=True)]
ONES = [dict(s=True), dict(t=True), dict(s=True, t=True)]
text_exponents = st.one_of(st.integers(0, 3), st.integers(126, 129),
                           st.integers(2**28 - 3, 2**28))
text_monomials = st.tuples(text_exponents, text_exponents, text_exponents)
coeffs = st.one_of(st.sampled_from([1, -1]), st.integers(-(10**30), 10**30))
text_polys = st.dictionaries(text_monomials, coeffs, max_size=6).map(MultiPoly)


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


@st.composite
def s_digit_polys(draw):
    """(w, p): p in l, s and t with coefficients in [1, 2**w)."""
    w = draw(st.integers(1, 12))
    keys = st.tuples(exponents, st.integers(0, 4), exponents)
    return w, MultiPoly(draw(st.dictionaries(keys, st.integers(1, 2**w - 1), max_size=6)))


def s_substituted(p, w):
    """p at s = 2**w, built from its terms."""
    out = {}
    for (el2, es, et), c in p.terms():
        out[el2, 0, et] = out.get((el2, 0, et), 0) + c * 2 ** (w * es)
    return MultiPoly(out)


@SETTINGS
@given(s_digit_polys())
def test_s_from_digits_undoes_s_as_a_power_of_two(wp):
    w, p = wp
    back = s_substituted(p, w).s_from_digits(w)
    assert back == p
    assert all(back.coefficient(Fraction(el2, 2), es, et) == c
               for (el2, es, et), c in p.terms())


@SETTINGS
@given(text_polys)
def test_text_and_json_terms_match_the_reference_renderer(p):
    terms = list(p.terms())
    assert str(p) == poly_text(terms)
    assert p.to_json_terms() == poly_json_terms(terms)


def test_reference_renderer_examples():
    assert str(ZERO) == poly_text([]) == "0" and ZERO.to_json_terms() == []
    p = MultiPoly({(3, 0, 4): -1, (4, 1, 0): 2, (0, 0, 0): -7, (2, 0, 0): 1})
    assert str(p) == poly_text(p.terms()) == "-l^(3/2)*t^4 + 2*l^2*s + l - 7"
    assert p.to_json_terms()[0] == {"el": 1.5, "es": 0, "et": 4, "coeff": "-1"}


def tuple_specialize_one(p, s=False, t=False):
    """p.specialize_one(s=s, t=t) over (el2, es, et) tuples."""
    out = {}
    for (el2, es, et), c in p.terms():
        key = (el2, 0 if s else es, 0 if t else et)
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


@SETTINGS
@given(text_polys, s_digit_polys())
def test_derived_degree_field_follows_every_key_operation(p, wp):
    """Results of specialize_one, specialize_zero and s_from_digits, and
    their products, re-pack from their own terms and render as the
    reference renderer does."""
    w, digits = wp
    made = [s_substituted(digits, w).s_from_digits(w)]
    for kw in ONES:
        made.append(p.specialize_one(**kw))
        assert dict(made[-1].terms()) == tuple_specialize_one(p, **kw)
    made += [p.specialize_zero(**kw) for kw in LIMITS]
    made += [q * made[0] for q in made]
    for q in made:
        assert MultiPoly(dict(q.terms())) == q
        assert str(q) == poly_text(q.terms())
