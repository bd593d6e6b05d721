import random
from fractions import Fraction

import pytest

from fockpoisson.analytic import (
    DomainError,
    cauchy_cf,
    cauchy_cfree_closed,
    continued_fraction,
    jacobi_floats,
    run_start,
)
from fockpoisson.moments import jacobi, moment_table

from oracles import h_residual, laurent_moments, quadratic_residual


def sample_params(rng):
    lam = rng.uniform(0.2, 4.0)
    s = rng.uniform(0.05, 1.0)
    t = rng.uniform(0.05, 1.0)
    return lam, s, t


def test_depth_one_is_simple_pole():
    z = 2 + 1j
    assert cauchy_cf(z, 1.5, 0.7, 0.3, 1) == 1 / (z - 1.5)


def test_domain_checks():
    with pytest.raises(DomainError):
        cauchy_cf(1 - 1j, 1.0, 1.0, 1.0, 10)
    with pytest.raises(DomainError):
        cauchy_cf(2 + 0j, 1.0, 1.0, 1.0, 10)
    with pytest.raises(DomainError):
        cauchy_cfree_closed(2 - 1j, 1.0)
    nan = float("nan")
    with pytest.raises(DomainError):
        cauchy_cf(complex(0.0, nan), 1.0, 1.0, 1.0, 10)
    with pytest.raises(DomainError):
        cauchy_cfree_closed(complex(0.0, nan), 1.0)
    with pytest.raises(DomainError):
        cauchy_cf(complex(nan, 1.0), 1.0, 1.0, 1.0, 10)
    with pytest.raises(DomainError):
        cauchy_cfree_closed(1 + float("inf") * 1j, 1.0)
    with pytest.raises(DomainError):
        jacobi_floats(-1.0, 0.5, 0.5, 5)
    with pytest.raises(DomainError):
        jacobi_floats(1.0, 1.5, 0.5, 5)
    with pytest.raises(ValueError):
        cauchy_cf(1j, 1.0, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        continued_fraction(1j, [1.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_lambda_is_refused(lam):
    # nan <= 0 is false, so a positivity test alone lets nan through
    with pytest.raises(DomainError, match="lambda must be finite"):
        jacobi_floats(lam, 0.5, 0.5, 5)
    with pytest.raises(DomainError, match="lambda must be finite"):
        cauchy_cf(1j, lam, 1.0, 1.0, 10)
    with pytest.raises(DomainError, match="lambda must be finite"):
        cauchy_cfree_closed(1j, lam)


# a power past the float range, a denominator that underflows to zero, and
# products that overflow to nan without raising
@pytest.mark.parametrize("z, lam", [(2 + 1j, 1e200), (complex(1e300, 1.0), 1.0), (1e-300j, 1e-300),
                                    (complex(1e308, 1e308), 1.0)],
                         ids=["lam-squared", "z-squared", "denominator-zero", "products-nan"])
def test_closed_form_outside_the_float_range_is_a_domain_error(z, lam):
    with pytest.raises(DomainError, match="leaves the float range"):
        cauchy_cfree_closed(z, lam)


def test_jacobi_floats_limits():
    alphas, omegas = jacobi_floats(1.0, 1.0, 0.0, 5)
    assert alphas == [1.0, 2.0, 1.0, 1.0, 1.0]  # l, l+1, then l (t^k -> 0)
    assert omegas == [1.0, 1.0, 1.0, 1.0]
    alphas, omegas = jacobi_floats(2.0, 0.0, 0.0, 4)
    assert alphas == [2.0, 1.0, 0.0, 0.0]  # boolean: l, then t^0 = 1, then nothing
    assert omegas == [2.0, 0.0, 0.0]  # omega_1 = l * s^0 survives s -> 0


# boolean and c-free repeat (alpha, omega) from level 2, free Poisson from
# level 1; s = 7/8 and s = -0.0 (whose omegas alternate -0.0 and 0.0) leave
# the bottom level alone in its run at depth 200
@pytest.mark.parametrize("s, t, start", [(0.0, 0.0, 2), (1.0, 0.0, 2), (1.0, 1.0, 1),
                                         (0.875, 0.5, 198), (-0.0, 0.0, 198)],
                         ids=["boolean", "cfree", "free", "generic", "s-negative-zero"])
def test_run_start(s, t, start):
    alphas, omegas = jacobi_floats(1.5, s, t, 200)
    assert run_start(alphas, omegas) == start


def test_jacobi_floats_match_the_exact_coefficients():
    alphas, omegas = jacobi_floats(1.5, 0.375, 0.625, 30)
    point = (Fraction(3, 2), Fraction(3, 8), Fraction(5, 8))
    jp = jacobi(30)
    exact = [float(p.eval(*point)) for p in jp.alpha + jp.omega[:29]]
    assert len(alphas) == 30 and len(omegas) == 29
    for got, want in zip(alphas + omegas, exact):
        assert abs(got - want) <= 1e-15 * abs(want)


def test_cf_matches_closed_form():
    assert abs(cauchy_cf(3j, 1.0, 1.0, 0.0, 80) - cauchy_cfree_closed(3j, 1.0)) < 1e-9
    rng = random.Random(5)
    for _ in range(20):
        z = complex(rng.uniform(-2, 4), rng.uniform(0.5, 3.0))
        lam = rng.uniform(0.3, 3.0)
        assert abs(cauchy_cf(z, lam, 1.0, 0.0, 120) - cauchy_cfree_closed(z, lam)) < 1e-8


def test_herglotz_sign():
    rng = random.Random(17)
    for _ in range(100):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.05, 4.0))
        lam, s, t = sample_params(rng)
        assert cauchy_cf(z, lam, s, t, 60).imag < 0
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 4.0))
        assert cauchy_cfree_closed(z, rng.uniform(0.2, 3.0)).imag < 0


def test_truncation_convergence_monotone():
    rng = random.Random(23)
    z = 3j
    for _ in range(10):
        lam, s, t = sample_params(rng)
        gaps = [
            abs(cauchy_cf(z, lam, s, t, k) - cauchy_cf(z, lam, s, t, 2 * k))
            for k in (10, 20, 40, 80)
        ]
        assert all(gaps[i] >= gaps[i + 1] for i in range(len(gaps) - 1))


def test_quadratic_residual_of_closed_form():
    rng = random.Random(31)
    for _ in range(50):
        z = complex(rng.uniform(-3, 5), rng.uniform(0.5, 4.0))
        lam = rng.uniform(0.25, 4.0)
        g = cauchy_cfree_closed(z, lam)
        assert quadratic_residual(z, lam, g) < 1e-10


def test_quadratic_residual_trivia():
    lam = 0.75
    assert quadratic_residual(2 * lam + 1, lam, 0j) == 0.0
    assert quadratic_residual(2 + 1j, 1.0, cauchy_cfree_closed(2 + 1j, 1.0)) < 1e-12
    g = cauchy_cf(2j, 1.0, 1.0, 0.0, 100)
    assert quadratic_residual(2j, 1.0, g) < 1e-6


def test_asymptotic_normalization():
    z = 1e6j
    assert abs(z * cauchy_cfree_closed(z, 1.0) - 1) < 1e-5


def test_closed_form_series_coefficients():
    # moments from the large-|z| expansion of the closed form at lam = 1
    got = laurent_moments(lambda z: cauchy_cfree_closed(z, 1.0), 10.0, 5)
    for val, expected in zip(got, [1, 1, 2, 5, 14, 41]):
        assert abs(val - expected) < 1e-6


def test_h_residual_from_semicircle_cf():
    lam = 1.0
    for z in (3j, 2 + 2j, -1 + 1.5j):
        g_nu = continued_fraction(z, [lam] * 200, [lam] * 199)
        assert h_residual(z, lam, 1 / g_nu) < 1e-8


def test_h_residual_fixed_point_oracle():
    lam = 1.0
    z = complex(lam + 2 * lam**0.5 + 1, 1e-9)
    h = z
    for _ in range(200):
        h = z - lam - lam / h
    assert h_residual(z, lam, h) < 1e-9
    g_nu = continued_fraction(z, [lam] * 300, [lam] * 299)
    assert abs(1 / g_nu - h) < 1e-6


def test_h_residual_negative_control_and_zero():
    assert h_residual(1j, 1.0, 1j) > 0.1
    with pytest.raises(ZeroDivisionError):
        h_residual(1j, 1.0, 0j)


def test_cfree_transform_identity():
    # 1/G(z) = z - lam/(1 - G_ref(z)) against the semicircle reference,
    # i.e. constant conditionally free cumulants lam/(1 - w)
    for lam in (0.5, 1.0, 2.5):
        for z in (3j, 2 + 2j, -1 + 1.5j, 5 + 0.7j):
            g_mu = cauchy_cfree_closed(z, lam)
            g_nu = continued_fraction(z, [lam] * 400, [lam] * 399)
            assert abs(1 / g_mu - (z - lam / (1 - g_nu))) < 1e-12


def test_moment_consistency_with_exact_engine():
    from fractions import Fraction

    table = moment_table(8, "nc")
    rng = random.Random(41)
    for _ in range(5):
        lam, s, t = sample_params(rng)
        got = laurent_moments(lambda z: cauchy_cf(z, lam, s, t, 200), 12.0, 8)
        flam, fs, ft = (Fraction(x) for x in (lam, s, t))
        for n in range(9):
            expected = float(table[n].eval(flam, fs, ft))
            assert abs(got[n] - expected) <= 1e-4 * max(1.0, abs(expected))
