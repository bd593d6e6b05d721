import random
from fractions import Fraction

import pytest

from fockpoisson.poly import (
    LAM,
    ONE,
    S,
    SQRT_LAM,
    T,
    ZERO,
    MultiPoly,
    NonIntegralLambdaExponentError,
)

from oracles import nc_bruteforce, weight_exponents


def random_poly(rng, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(0, 2 * max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[key] = rng.randint(-5, 5)
    return MultiPoly(terms)


def test_mul_identity():
    p = LAM + 3 * S
    assert ONE * p == p
    assert p * ONE == p


def test_mul_half_exponents_add():
    assert SQRT_LAM * SQRT_LAM == LAM


def test_mul_distributes():
    p = LAM + LAM * LAM
    assert p * S == MultiPoly.term(1, el=1, es=1) + MultiPoly.term(1, el=2, es=1)


def test_mul_zero_and_pow():
    assert (LAM * ZERO) == ZERO
    assert (LAM + ONE) ** 2 == LAM * LAM + 2 * LAM + ONE
    assert LAM**0 == ONE


def test_eval_moment_rows():
    m2 = LAM**2 + LAM
    assert m2.eval(1, 1, 1) == 2
    m3 = LAM**3 + 3 * LAM**2 + LAM
    assert m3.eval(1, 1, 1) == 5
    assert ZERO.eval(7, Fraction(1, 3), 1) == 0


def test_eval_exact_rationals():
    p = LAM * S + T**3
    got = p.eval(Fraction(3, 2), Fraction(1, 3), Fraction(1, 2))
    assert got == Fraction(3, 2) * Fraction(1, 3) + Fraction(1, 8)


def test_eval_half_exponent_needs_exact_sqrt():
    with pytest.raises(NonIntegralLambdaExponentError):
        SQRT_LAM.eval(2, 1, 1)
    assert SQRT_LAM.eval(4, 1, 1) == 2
    assert SQRT_LAM.eval(Fraction(9, 4), 1, 1) == Fraction(3, 2)
    assert (SQRT_LAM**3).eval(4, 1, 1) == 8


def test_eval_takes_exact_rationals_only():
    # text is parsed by the CLI (cli._fraction), not by eval
    with pytest.raises(TypeError):
        (LAM + S).eval("1", 1, 1)


def test_eval_half_exponent_at_negative_lambda():
    # no rational square root: the package's error, not math.isqrt's
    with pytest.raises(NonIntegralLambdaExponentError):
        SQRT_LAM.eval(-4, 1, 1)
    assert (SQRT_LAM**2).eval(-4, 1, 1) == -4  # integral exponents need no root


def test_specialize_zero_from_nc3_weights():
    # oracle: sum the weights over NC(3) by brute force, then set s = 0
    acc = ZERO
    for blocks in nc_bruteforce(3):
        k, td1, td2 = weight_exponents(blocks)
        acc = acc + MultiPoly.term(1, el=k, es=td1, et=td2)
    assert acc == LAM**3 + (2 * ONE + S) * LAM**2 + LAM
    assert acc.specialize_zero(kill_s=True) == LAM**3 + 2 * LAM**2 + LAM


def test_specialize_zero_kills_example_weight():
    w = MultiPoly.term(1, el=3, es=3, et=1)  # l^3*s^3*t
    assert w.specialize_zero(kill_t=True) == ZERO


def test_specialize_zero_noop():
    p = LAM**2 + 5 * LAM
    assert p.specialize_zero(kill_s=True, kill_t=True) == p


def test_specialize_one_merges_terms():
    p = MultiPoly.term(2, el=1, es=3) + MultiPoly.term(1, el=1) + MultiPoly.term(1, el=1, et=2)
    assert p.specialize_one(s=True) == 3 * LAM + MultiPoly.term(1, el=1, et=2)
    assert p.specialize_one(s=True, t=True) == 4 * LAM


def test_s_from_digits_splits_coefficients_and_needs_a_width():
    # 2 + 3*2**4 + 2**12 is 2 + 3*s + s^3 at s = 2**4
    p = MultiPoly.term(2 + 3 * 2**4 + 2**12, el=1, et=2)
    expected = LAM * T**2 * (2 * ONE + 3 * S + S**3)
    assert p.s_from_digits(4) == expected
    with pytest.raises(ValueError):
        p.s_from_digits(0)


def test_render_canonical_order():
    p = LAM**3 + 3 * MultiPoly.term(1, el=2, es=1) + LAM
    assert str(p) == "l^3 + 3*l^2*s + l"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(LAM**2 - 2 * LAM + ONE) == "l^2 - 2*l + 1"
    assert str(-LAM) == "-l"
    assert str(SQRT_LAM * 5) == "5*l^(1/2)"
    assert str(MultiPoly.term(1, el=3, es=3)) == "l^3*s^3"


def test_json_terms():
    p = LAM**2 + 7 * S + SQRT_LAM
    assert p.to_json_terms() == [
        {"el": 2, "es": 0, "et": 0, "coeff": "1"},
        {"el": 0, "es": 1, "et": 0, "coeff": "7"},
        {"el": 0.5, "es": 0, "et": 0, "coeff": "1"},
    ]


def test_coefficient_lookup():
    p = 4 * MultiPoly.term(1, el=2, es=1) + LAM
    assert p.coefficient(el=2, es=1) == 4
    assert p.coefficient(el=1) == 1
    assert p.coefficient(el=5) == 0


def test_integral_lambda_flag():
    assert (LAM**2 + S).has_integral_lambda_exponents()
    assert not SQRT_LAM.has_integral_lambda_exponents()


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultiPoly({(-1, 0, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly.term(1, el=Fraction(1, 3))


def test_mul_commutative_associative_random():
    rng = random.Random(1234)
    for _ in range(200):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_eval_multiplicative_random():
    rng = random.Random(99)
    points = [
        (Fraction(4), Fraction(1, 2), Fraction(1, 3)),
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(9, 4), Fraction(2, 5), Fraction(1, 7)),
    ]
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        for v in points:
            assert (a * b).eval(*v) == a.eval(*v) * b.eval(*v)


def test_specialize_zero_matches_numeric_limit():
    # dropped terms contribute at most 4 * 5 * (25/16)^3 * eps < 1e-4
    rng = random.Random(7)
    eps = Fraction(1, 10**6)
    for _ in range(50):
        p = random_poly(rng)
        x = Fraction(rng.randint(1, 5), 4) ** 2  # exact sqrt exists, x <= 25/16
        limit = p.specialize_zero(kill_s=True, kill_t=True).eval(x, 1, 1)
        approx = p.eval(x, eps, eps)
        assert abs(approx - limit) <= max(Fraction(1), abs(limit)) * Fraction(1, 10**4)


def test_int_and_fraction_lambda_exponents_agree():
    assert MultiPoly.term(3, el=Fraction(4, 2), es=1) == MultiPoly.term(3, el=2, es=1)
    p = MultiPoly.term(5, el=Fraction(3, 2)) + LAM
    assert p.coefficient(el=Fraction(3, 2)) == 5
    assert p.coefficient(el=Fraction(2, 2)) == p.coefficient(el=1) == 1
    with pytest.raises(ValueError):
        p.coefficient(el=Fraction(1, 3))


def test_exponents_past_the_packed_field_overflow():
    with pytest.raises(OverflowError):
        MultiPoly({(2**32, 0, 0): 1})
    with pytest.raises(OverflowError):
        S ** 2**32
    with pytest.raises(OverflowError):
        LAM ** 2**31  # 2**32 half units
    big = S ** 2**31  # no square past the top bit of the exponent
    assert big == MultiPoly.term(1, es=2**31)
    assert str(big) == "s^2147483648"
    assert list(big.terms()) == [((0, 2**31, 0), 1)]


def test_coefficient_of_an_unrepresentable_exponent_is_zero():
    # es = 2**32 would pack to the key of t; no term can have it
    assert T.coefficient(es=2**32) == 0
    assert T.coefficient(es=-1) == 0
    assert T.coefficient(et=1) == 1
