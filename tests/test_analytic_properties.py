"""Property test of the continued fraction's exit from a repeated tail
(skipped without hypothesis).

analytic.continued_fraction stops walking a run of equal levels once the
value repeats bit for bit; the plain bottom-up loop of oracles walks every
level.  Examples are derandomized and bounded, so every run checks the same
points: s and t at the limits 0 and 1, at 1e-300 (whose powers underflow at
once) or anywhere in [0, 1], re z a signed zero or any value, im z down to
the smallest subnormal, and depths up to 3000.
"""

import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fockpoisson.analytic import continued_fraction, jacobi_floats  # noqa: E402

from oracles import continued_fraction_plain  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)

params = st.one_of(st.sampled_from([0.0, 1.0, 1e-300]), st.floats(0.0, 1.0))
re_parts = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-10.0, 10.0))
im_parts = st.one_of(st.sampled_from([5e-324, 1e-300]), st.floats(5e-324, 10.0))
depths = st.one_of(st.integers(1, 8), st.integers(1, 3000))


def _bits(fraction, z, alphas, omegas):
    """The value's bytes, or the ZeroDivisionError it raised."""
    try:
        g = fraction(z, alphas, omegas)
    except ZeroDivisionError:
        return "ZeroDivisionError"
    return struct.pack("dd", g.real, g.imag)


@SETTINGS
@given(st.floats(0.01, 10.0), params, params, re_parts, im_parts, depths)
def test_continued_fraction_is_the_plain_loop_bit_for_bit(lam, s, t, re, im, depth):
    alphas, omegas = jacobi_floats(lam, s, t, depth)
    z = complex(re, im)
    assert _bits(continued_fraction, z, alphas, omegas) == \
        _bits(continued_fraction_plain, z, alphas, omegas)
