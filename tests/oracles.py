"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's code paths: set partitions
come from restricted-growth strings rather than the gap recursion, depths are
per-element cover counts rather than interval containment, words are checked
and enumerated by their own level bookkeeping, and series coefficients are
extracted by discrete contour averages.  The residuals, the identity matrix,
the Poisson operator summed over whole dense tables and the continued
fraction walked to its full depth are plain formulas that only the tests
need, and polynomial text is rendered from exponent tuples sorted with a
key function.
"""

import cmath
import math
from fractions import Fraction
from itertools import product


# -- partitions ---------------------------------------------------------------


def set_partitions_bruteforce(n):
    """All set partitions of [n] as block tuples, via restricted growth strings."""
    out = []

    def grow(rgs, maxlabel):
        if len(rgs) == n:
            blocks = [[] for _ in range(maxlabel + 1)]
            for i, lab in enumerate(rgs, start=1):
                blocks[lab].append(i)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for lab in range(maxlabel + 2):
            grow(rgs + [lab], max(maxlabel, lab))

    if n == 0:
        return [()]
    grow([0], 0)
    return out


def has_crossing(blocks):
    """Definitional crossing test: some b1 < c1 < b2 < c2 across two blocks."""
    for bi in range(len(blocks)):
        for bj in range(len(blocks)):
            if bi == bj:
                continue
            B, C = blocks[bi], blocks[bj]
            for b1 in B:
                for b2 in B:
                    for c1 in C:
                        for c2 in C:
                            if b1 < c1 < b2 < c2:
                                return True
    return False


def element_depth(blocks, a):
    """Number of blocks covering element a (a not in the block, inside its span)."""
    return sum(1 for c in blocks if a not in c and c[0] <= a <= c[-1])


def weight_exponents(blocks):
    """(num_blocks, td1, td2) from per-element depths of last/intermediate elements."""
    td1 = sum(element_depth(blocks, b[-1]) for b in blocks)
    td2 = sum(
        element_depth(blocks, i) for b in blocks if len(b) >= 3 for i in b[1:-1]
    )
    return len(blocks), td1, td2


def nc_bruteforce(n):
    """Non-crossing partitions of [n] by filtering the brute-force enumeration."""
    return [blocks for blocks in set_partitions_bruteforce(n) if not has_crossing(blocks)]


def interval_count_bruteforce(n):
    """Partitions with every element at depth 0 (no block nests another)."""
    count = 0
    for blocks in nc_bruteforce(n):
        if all(element_depth(blocks, a) == 0 for b in blocks for a in b):
            count += 1
    return count


# -- words ---------------------------------------------------------------------

# Letters by their step: C opens (+1), A closes (-1), M and K stay level.
_STEP = {"C": 1, "A": -1, "M": 0, "K": 0}


def word_levels(text):
    levels, level = [], 0
    for ch in text:
        levels.append(level)
        level += _STEP[ch]
    return levels, level


def word_admissible(text):
    levels, final = word_levels(text)
    if final != 0:
        return False
    for ch, lv in zip(text, levels):
        if lv < 0:
            return False
        if ch in "MA" and lv < 1:
            return False
    return True


def admissible_words_bruteforce(n):
    return [
        "".join(w) for w in product("CAMK", repeat=n) if word_admissible("".join(w))
    ]


def admissible_words_dfs(n):
    """All admissible words of length n, generated directly from the level rules."""
    out = []

    def grow(prefix, level, remaining):
        if remaining == 0:
            if level == 0:
                out.append("".join(prefix))
            return
        if level > remaining:  # cannot come back down to zero in time
            return
        for ch in "CAMK":
            if ch == "C":
                grow(prefix + [ch], level + 1, remaining - 1)
            elif ch == "A":
                if level >= 1:
                    grow(prefix + [ch], level - 1, remaining - 1)
            elif ch == "M":
                if level >= 1:
                    grow(prefix + [ch], level, remaining - 1)
            else:
                grow(prefix + [ch], level, remaining - 1)

    grow([], 0, n)
    return out


# -- exact linear algebra --------------------------------------------------------


def det_fraction(rows):
    """Exact determinant of a square matrix of Fractions, by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


# -- series extraction --------------------------------------------------------------


def laurent_moments(g_upper, radius, nmax, samples=512):
    """Coefficients m_n of g(z) = sum m_n z^-(n+1) from a large-circle average.

    ``g_upper`` need only be defined on the open upper half-plane; values in
    the lower half-plane are supplied by the reflection g(conj z) = conj g(z),
    valid for Cauchy transforms of real measures.
    """
    vals = []
    for j in range(samples):
        z = radius * cmath.exp(2j * math.pi * (j + 0.5) / samples)
        if z.imag > 0:
            vals.append(g_upper(z))
        else:
            vals.append(g_upper(z.conjugate()).conjugate())
    out = []
    for n in range(nmax + 1):
        acc = sum(
            v * cmath.exp(2j * math.pi * (j + 0.5) * (n + 1) / samples)
            for j, v in enumerate(vals)
        )
        out.append((acc * radius ** (n + 1) / samples).real)
    return out


# -- analytic residuals and matrices ------------------------------------------


def quadratic_residual(z, lam, g):
    """|quadratic(z, g)| for the s = 1, t -> 0 closed-form transform's
    defining equation (see fockpoisson.analytic)."""
    a = z**3 - (1 + 3 * lam) * z**2 + 3 * lam**2 * z - lam**3
    b = 2 * z**2 - (2 + 5 * lam) * z + 3 * lam**2
    c = z - (2 * lam + 1)
    return abs(a * g * g - b * g + c)


def h_residual(z, lam, h):
    """|h - (z - lam - lam/h)|, the reference's reciprocal Cauchy transform
    equation; h = 0 raises ZeroDivisionError."""
    return abs(h - (z - lam - lam / h))


def continued_fraction_plain(z, alphas, omegas):
    """1 / (z - a_1 - w_1 / (... (z - a_depth))), every level walked
    bottom-up, with no exit from a repeated tail."""
    acc = z - alphas[-1]
    for a, w in zip(reversed(alphas[:-1]), reversed(omegas)):
        acc = z - a - w / acc
    return 1 / acc


def identity_rows(dim, one, zero):
    """The dim x dim identity matrix as rows over a ring's one and zero."""
    return [[one if i == j else zero for j in range(dim)] for i in range(dim)]


def poisson_dense_sum(creation, annihilation, scalar, intermediate, sqrt_lam, lam):
    """The Poisson operator as the paper defines it, intermediate +
    sqrt(l)*(creation + annihilation) + l*scalar, summed entry by entry over
    the whole of the four generators' square tables of rows."""
    return [[m + sqrt_lam * (c + a) + lam * k for c, a, k, m in zip(*rows)]
            for rows in zip(creation, annihilation, scalar, intermediate)]


# -- polynomial text ------------------------------------------------------------


def canonical_terms(terms):
    """((el2, es, et), coeff) pairs in any order, sorted as tuples, largest
    first by (el2 + 2*es + 2*et, el2, es)."""
    rank = lambda kc: (kc[0][0] + 2 * (kc[0][1] + kc[0][2]), kc[0][0], kc[0][1])  # noqa: E731
    return sorted(terms, key=rank, reverse=True)


def poly_text(terms):
    """A MultiPoly's text from its (exponents, coeff) pairs, each monomial
    formatted on its own: "0" for no terms, else signed terms such as
    "2*l^2*s - l^(3/2)*t^4"."""
    chunks = []
    for (el2, es, et), coeff in canonical_terms(terms):
        mono = ""  # "*"-prefixed factors
        if el2:
            mono = "*l" if el2 == 2 else f"*l^({el2}/2)" if el2 & 1 else f"*l^{el2 // 2}"
        if es:
            mono += "*s" if es == 1 else f"*s^{es}"
        if et:
            mono += "*t" if et == 1 else f"*t^{et}"
        mag = abs(coeff)
        body = str(mag) if not mono else mono[1:] if mag == 1 else f"{mag}{mono}"
        chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    if not chunks:
        return "0"
    text = " ".join(chunks)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def poly_json_terms(terms):
    """MultiPoly.to_json_terms from (exponents, coeff) pairs: el an int, or
    a float for half units, and the coefficient as a decimal string."""
    return [{"el": el2 // 2 if el2 % 2 == 0 else el2 / 2, "es": es, "et": et, "coeff": str(c)}
            for (el2, es, et), c in canonical_terms(terms)]
