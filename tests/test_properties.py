"""Property tests on random admissible words and moment rows (skipped
without hypothesis).

Examples are derandomized and bounded, so every run checks the same cases.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fockpoisson import fock  # noqa: E402
from fockpoisson.moments import moment_jacobi, weight  # noqa: E402
from fockpoisson.poly import ONE, S, T, ZERO  # noqa: E402
from fockpoisson.words import OperatorWord  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# letter -> (level step, lowest level it may sit at)
_RULES = {"C": (1, 0), "A": (-1, 1), "M": (0, 1), "K": (0, 0)}


@st.composite
def admissible_words(draw, max_len=30):
    """A word of length <= max_len, one letter at a time from the level rules:
    the level stays >= 0, M and A need level >= 1, and the level must still
    be able to return to 0 in the positions left."""
    letters, level = [], 0
    for left in range(draw(st.integers(0, max_len)), 0, -1):
        allowed = [x for x, (step, lowest) in _RULES.items()
                   if level >= lowest and level + step <= left - 1]
        x = draw(st.sampled_from(allowed))
        letters.append(x)
        level += _RULES[x][0]
    return OperatorWord.parse("".join(letters))


@SETTINGS
@given(admissible_words())
def test_word_partition_word_round_trip(w):
    assert w.is_admissible()
    p = w.to_partition()
    assert p.n == len(w)
    assert OperatorWord.from_partition(p) == w


@SETTINGS
@given(admissible_words())
def test_total_weight_is_the_partition_weight(w):
    expected = weight(w.to_partition())
    assert w.arrangement().total_weight == expected
    assert w.arrangement(degenerate_t=True).total_weight == expected.specialize_one(t=True)


@settings(SETTINGS, max_examples=30)
@given(st.integers(13, 20), st.sampled_from([S, ONE, ZERO]), st.sampled_from([T, ONE, ZERO]))
def test_moment_jacobi_equals_the_operator_walk(n, s, t):
    # past the n <= 12 that moments --engine all compares, and through the
    # s = 2**(2n) read-back of moment_jacobi where s = S
    assert moment_jacobi(n, s, t) == fock.vacuum_moments(n, s, t)[n]
