"""Floating-point layer: Cauchy transforms by continued fraction and closed form.

The Cauchy transform of the deformed Poisson distribution is evaluated as a
finite continued fraction over moments.jacobi's recurrence coefficients at
float parameters, bottom-up from a terminal tail z - alpha_depth.  Limits
are the float values 0 and 1 of s and t (with 0.0**0 = 1.0), just as the
exact layer substitutes ZERO and ONE.  cauchy_cf is the single-point
function: it builds the coefficients with jacobi_floats and evaluates one
continued_fraction.  The CLI's cauchy command builds them once per command
and evaluates every grid point with continued_fraction, with the same
result as cauchy_cf at each point.

The s = 1, t -> 0 case also has a closed form: G(z) is a root of

    (z^3 - (1+3L)z^2 + 3L^2 z - L^3) G^2 - (2z^2 - (2+5L)z + 3L^2) G
        + (z - (2L+1)) = 0

namely the one with numerator  2z^2 - (2+5L)z + 3L^2 + L*sqrt((z-L)^2 - 4L),
taken continuous on the upper half-plane; the square root is evaluated as the
product of principal square roots of (z - L -+ 2 sqrt(L)), each of which stays
off the branch cut for Im z > 0.
"""

from __future__ import annotations

import cmath
import math

from .moments import jacobi


class DomainError(ValueError):
    """The evaluation point is outside the function's domain."""


def _check_upper_half_plane(z: complex) -> None:
    # `not z.imag > 0` alone lets a nan real part or an infinite z through
    if not (cmath.isfinite(z) and z.imag > 0):
        raise DomainError(f"z must be a finite point of the upper half-plane, got {z}")


def _check_lambda(lam: float) -> None:
    # nan <= 0 is false, so finiteness is tested first
    if not math.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam}")
    if lam <= 0:
        raise DomainError(f"lambda must be positive, got {lam}")


def jacobi_floats(lam: float, s: float, t: float, depth: int):
    """(alphas, omegas) of the continued fraction as floats; s, t in [0, 1]."""
    _check_lambda(lam)
    if not 0 <= s <= 1 or not 0 <= t <= 1:
        raise DomainError(f"s and t must lie in [0, 1], got s={s}, t={t}")
    jp = jacobi(depth, float(lam), float(s), float(t))
    return list(jp.alpha), list(jp.omega[: depth - 1])


def continued_fraction(z: complex, alphas, omegas) -> complex:
    """1 / (z - a_1 - w_1 / (z - a_2 - ...)), ending in the tail z - a_depth."""
    if len(alphas) != len(omegas) + 1:
        raise ValueError("need one more alpha than omega")
    acc = z - alphas[-1]
    for a, w in zip(reversed(alphas[:-1]), reversed(omegas)):
        acc = z - a - w / acc
    return 1 / acc


def cauchy_cf(z: complex, lam: float, s: float, t: float, depth: int) -> complex:
    """Cauchy transform by depth-truncated continued fraction, Im z > 0.

    Builds the coefficients for this one point; to evaluate many points,
    build them once with jacobi_floats and call continued_fraction per
    point, as the CLI's cauchy command does.
    """
    _check_upper_half_plane(z)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    alphas, omegas = jacobi_floats(lam, s, t, depth)
    return continued_fraction(z, alphas, omegas)


def cauchy_cfree_closed(z: complex, lam: float) -> complex:
    """Closed-form Cauchy transform of the s = 1, t -> 0 distribution."""
    _check_upper_half_plane(z)
    _check_lambda(lam)
    r = 2 * math.sqrt(lam)
    try:
        root = cmath.sqrt(z - lam - r) * cmath.sqrt(z - lam + r)
        numer = 2 * z**2 - (2 + 5 * lam) * z + 3 * lam**2 + lam * root
        denom = 2 * (z**3 - (1 + 3 * lam) * z**2 + 3 * lam**2 * z - lam**3)
        return numer / denom
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"the closed form leaves the float range at z = {z}") from None

