"""Reference routes the benchmark checks the CLI's outputs against.

Nothing here calls into fockpoisson.  Moments come from a first-block
decomposition of non-crossing partitions evaluated at a numeric point (not the
Jacobi matrix, the operator model or the enumerator that the CLI times);
depths come from operator-word levels rather than interval containment;
Cauchy transforms come from continued fractions whose coefficients are
written out from their formulas rather than rebuilt symbolically.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def nc_weight_sums(nmax: int, weight):
    """[W(0), ..., W(nmax)]: sums over non-crossing partitions of [n] of the
    product of weight(size, depth) over blocks.

    The block holding the first point has size k at depth d; its k - 1 gaps
    are regions at depth d + 1 and the points after it continue at depth d.
    ``weight`` may return any ring element (int, Fraction).
    """
    def region(d):
        # A region at depth d needs 2d enclosing points and one of its own.
        if 2 * d + 1 > nmax:
            return [1] + [0] * nmax
        inner = region(d + 1)
        out = [1] + [0] * nmax
        for n in range(1, nmax + 1):
            total = 0
            # chain[m]: ways to place the block's next elements, each after a
            # gap filled at depth d + 1, using m points in all.
            chain = [1] + [0] * nmax
            for k in range(1, n + 1):
                if k > 1:
                    chain = [
                        sum(inner[g] * chain[m - g - 1] for g in range(m))
                        for m in range(nmax + 1)
                    ]
                w = weight(k, d)
                if w:
                    total += w * sum(chain[m] * out[n - 1 - m] for m in range(n))
            out[n] = total
        return out

    return region(0)


def moments_at(nmax: int, lam, s, t):
    """Moments m_0..m_nmax at a numeric point; 0**0 = 1 gives the limits."""
    def weight(k, d):
        return lam * s**d * t ** (max(k - 2, 0) * d)

    return nc_weight_sums(nmax, weight)


_FAMILY_INNER = {
    "NC": lambda k: True,
    "INTERVAL": lambda k: False,
    "ALMOST_INTERVAL": lambda k: k == 1,
    "NC12_INNER": lambda k: k <= 2,
}


def family_counts_by_blocks(n: int, family: str):
    """Counts of family members of NC(n) with 1..n blocks.

    Blocks at depth 0 are unrestricted; inner blocks must pass the family's
    size test.  Block counts are read off the base-2^64 digits of one integer.
    """
    base = 1 << 64
    inner_ok = _FAMILY_INNER[family]
    total = nc_weight_sums(n, lambda k, d: base if d == 0 or inner_ok(k) else 0)[n]
    counts = []
    for _ in range(n + 1):
        total, digit = divmod(total, base)
        counts.append(digit)
    return counts[1:]


# -- words and partitions -------------------------------------------------


def word_of(blocks) -> str:
    """Letters C/A/M/K of a partition: opener, closer, middle, singleton."""
    n = sum(len(b) for b in blocks)
    letters = [""] * n
    for b in blocks:
        if len(b) == 1:
            letters[b[0] - 1] = "K"
        else:
            letters[b[0] - 1] = "C"
            letters[b[-1] - 1] = "A"
            for x in b[1:-1]:
                letters[x - 1] = "M"
    return "".join(letters)


def levels_of(word: str):
    out, level = [], 0
    for ch in word:
        out.append(level)
        level += {"C": 1, "A": -1}.get(ch, 0)
    return out


def admissible(word: str) -> bool:
    level = 0
    for ch in word:
        if ch in "MA" and level < 1:
            return False
        level += {"C": 1, "A": -1}.get(ch, 0)
    return level == 0


def blocks_of(word: str):
    """Partition of an admissible word, blocks sorted by their first element."""
    blocks, stack = [], []
    for k, ch in enumerate(word, start=1):
        if ch == "K":
            blocks.append([k])
        elif ch == "C":
            stack.append([k])
            blocks.append(stack[-1])
        elif ch == "M":
            stack[-1].append(k)
        else:
            stack.pop().append(k)
    return blocks


def is_noncrossing(blocks) -> bool:
    """A partition is non-crossing iff its word decodes back to it."""
    word = word_of(blocks)
    return admissible(word) and blocks_of(word) == [list(b) for b in blocks]


def depth_stats(blocks):
    """(depths, td1, td2); a block's depth is the word level at its opener."""
    lv = levels_of(word_of(blocks))
    depths = [lv[b[0] - 1] for b in blocks]
    td2 = sum((len(b) - 2) * d for b, d in zip(blocks, depths) if len(b) >= 3)
    return depths, sum(depths), td2


def card_labels(word: str):
    return [f"{ch}{lv}" for ch, lv in zip(word, levels_of(word))]


def monomial(el: int, es: int, et: int) -> str:
    """A unit monomial as fockpoisson prints it."""
    parts = []
    for sym, e in (("l", el), ("s", es), ("t", et)):
        if e == 1:
            parts.append(sym)
        elif e > 1:
            parts.append(f"{sym}^{e}")
    return "*".join(parts) or "1"


def weight_str(blocks) -> str:
    _, td1, td2 = depth_stats(blocks)
    return monomial(len(blocks), td1, td2)


def random_word(rng, n: int) -> str:
    """A uniformly stepped admissible word of length n."""
    letters, level = [], 0
    for pos in range(n):
        left = n - pos - 1  # letters after this one
        choices = []
        if level + 1 <= left:
            choices.append("C")
        if level >= 1 and level - 1 <= left:
            choices.append("A")
        if level >= 1 and level <= left:
            choices.append("M")
        if level <= left:
            choices.append("K")
        ch = rng.choice(choices)
        letters.append(ch)
        level += {"C": 1, "A": -1}.get(ch, 0)
    return "".join(letters)


# -- polynomials as printed by the CLI -------------------------------------

_FACTOR = re.compile(r"^([lst])(?:\^(\d+))?$")


def parse_poly(text: str):
    """{(el, es, et): coeff} from MultiPoly's printed form (integral l powers)."""
    terms = {}
    tokens = text.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        tok = tok.lstrip("-")
        coeff, exps = 1, {"l": 0, "s": 0, "t": 0}
        for factor in tok.split("*"):
            if factor.isdigit():
                coeff = int(factor)
                continue
            m = _FACTOR.match(factor)
            if m is None:
                raise ValueError(f"unexpected factor {factor!r} in {text!r}")
            exps[m.group(1)] = int(m.group(2) or 1)
        key = (exps["l"], exps["s"], exps["t"])
        if key in terms:
            raise ValueError(f"repeated monomial in {text!r}")
        terms[key] = sign * coeff
    return terms


def eval_poly(terms, lam, s, t):
    return sum(c * lam**el * s**es * t**et for (el, es, et), c in terms.items())


# -- Cauchy transforms -------------------------------------------------------


def cauchy_cf(z: complex, lam: float, s: float, t: float, depth: int) -> complex:
    """Continued fraction with alpha_1 = l, alpha_k = l*s^(k-1) + t^(k-2),
    omega_k = l*s^(k-1), evaluated bottom-up from the tail z - alpha_depth."""
    def alpha(k):
        return lam if k == 1 else lam * s ** (k - 1) + t ** (k - 2)

    acc = z - alpha(depth)
    for k in range(depth - 1, 0, -1):
        acc = z - alpha(k) - lam * s ** (k - 1) / acc
    return 1 / acc


def cauchy_cfree(z: complex, lam: float) -> complex:
    """Closed form for s = 1, t -> 0, continuous on the upper half-plane."""
    r = 2 * math.sqrt(lam)
    root = cmath.sqrt(z - lam - r) * cmath.sqrt(z - lam + r)
    numer = 2 * z * z - (2 + 5 * lam) * z + 3 * lam * lam + lam * root
    denom = 2 * (z - lam) ** 3 - 2 * z * z
    return numer / denom


def cauchy_boolean(z: complex, lam: float) -> complex:
    """s, t -> 0: the fraction stops after two levels."""
    return 1 / (z - lam - lam / (z - 1))


def circle_points(radius: float, samples: int):
    """Upper-half nodes of the midpoint rule on |z| = radius."""
    return [
        radius * cmath.exp(2j * math.pi * (j + 0.5) / samples)
        for j in range(samples // 2)
    ]


def laurent_moments(upper_values, radius: float, samples: int, nmax: int):
    """m_0..m_nmax of g(z) = sum m_n z^-(n+1) from its values at
    circle_points(radius, samples); the lower half follows by reflection."""
    vals = list(upper_values) + [v.conjugate() for v in reversed(upper_values)]
    out = []
    for n in range(nmax + 1):
        acc = sum(
            v * cmath.exp(2j * math.pi * (j + 0.5) * (n + 1) / samples)
            for j, v in enumerate(vals)
        )
        out.append((acc * radius ** (n + 1) / samples).real)
    return out
