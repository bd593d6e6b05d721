"""Floating-point layer: Cauchy transforms by continued fraction and closed form.

The Cauchy transform of the deformed Poisson distribution is evaluated as a
finite continued fraction over moments.jacobi's recurrence coefficients at
float parameters, bottom-up from a terminal tail z - alpha_depth.  Limits
are the float values 0 and 1 of s and t (with 0.0**0 = 1.0), just as the
exact layer substitutes ZERO and ONE.  cauchy_cf is the single-point
function: it builds the coefficients with jacobi_floats and evaluates one
continued_fraction.  The CLI's cauchy command builds them, and finds
run_start, once per command and evaluates every grid point with
continued_fraction, with the same result as cauchy_cf at each point.

Where the levels at the bottom of the fraction share one (alpha, omega),
each applies the same float map x -> (z - alpha) - omega/x, so once a value
repeats bit for bit every level left in the run returns it: continued_fraction
exits the run there, with the full-depth value byte for byte.  Runs occur
for s and t in {0, 1} (from level 1 or 2), for s = 1 once t^k falls below
half an ulp of l (near level 54 at t = 1/2), and for any s < 1 once l*s^k
underflows to 0.0 (past level 1076 at s = 1/2).  Generic s and t have no
run and walk the full depth, as does a point whose value never settles.

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


def _same(x, y) -> bool:
    """x and y are the same float bit for bit: equal, zeros of one sign."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def run_start(alphas, omegas) -> int:
    """First level of the run at the bottom of the fraction whose levels all
    share one (alpha, omega); len(omegas) - 1 if only the last is in it.

    Levels are the indices of omegas, top 0; the tail z - alphas[-1] is
    in no run.  Equal means bit for bit, so a run of -0.0 and 0.0 breaks.
    """
    k = len(omegas) - 1
    while k > 0 and _same(alphas[k - 1], alphas[k]) and _same(omegas[k - 1], omegas[k]):
        k -= 1
    return max(k, 0)


def continued_fraction(z: complex, alphas, omegas, start=None) -> complex:
    """1 / (z - a_1 - w_1 / (z - a_2 - ...)), ending in the tail z - a_depth.

    Evaluated bottom-up.  Every level of the run from start = run_start(
    alphas, omegas) down applies one float map x -> (z - a) - w / x, so once
    a level returns its input bit for bit (each part's value and the sign
    of its zero) every level left in the run would too, and the walk goes
    on from the level above the run.  The result is the full-depth value
    byte for byte; a caller evaluating many points passes start, found once.
    """
    if len(alphas) != len(omegas) + 1:
        raise ValueError("need one more alpha than omega")
    if start is None:
        start = run_start(alphas, omegas)
    acc = z - alphas[-1]
    if start < len(omegas):
        za, w = z - alphas[start], omegas[start]
        for _ in range(len(omegas) - start):
            prev, acc = acc, za - w / acc
            if acc == prev and _same(acc.real, prev.real) and _same(acc.imag, prev.imag):
                break
    for a, w in zip(reversed(alphas[:start]), reversed(omegas[:start])):
        acc = z - a - w / acc
    return 1 / acc


def cauchy_cf(z: complex, lam: float, s: float, t: float, depth: int) -> complex:
    """Cauchy transform by depth-truncated continued fraction, Im z > 0.

    Builds the coefficients, and finds their run_start, for this one point;
    to evaluate many points, build them and find it once and call
    continued_fraction per point, as the CLI's cauchy command does.
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
        g = numer / denom
        # ** raises past the float range; a complex product overflows to
        # inf or nan silently
        if cmath.isfinite(g):
            return g
    except (OverflowError, ZeroDivisionError):
        pass
    raise DomainError(f"the closed form leaves the float range at z = {z}")

