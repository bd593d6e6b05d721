"""Exact polynomial arithmetic in the three deformation parameters.

A ``MultiPoly`` is a sparse polynomial in the variables ``l`` (the rate
parameter lambda), ``s`` and ``t``, with arbitrary-precision integer
coefficients.  The lambda exponent may be a half-integer (so that sqrt(lambda)
is representable); internally it is tracked in half-units:

    terms = {(el2, es, et): coeff}     el2 = 2 * (exponent of lambda)

Every quantity the combinatorial and recurrence engines return ends up with
integral lambda exponents; half units only appear in intermediate operator
entries.  The zero polynomial is the empty term map.  Zero coefficients are
never stored, so ``==`` on term maps is a reliable polynomial identity test.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class NonIntegralLambdaExponentError(ValueError):
    """Evaluation hit a half-integer lambda exponent with no exact sqrt(lambda)."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _exact_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _term_sort_key(key):
    el2, es, et = key
    return (el2 + 2 * es + 2 * et, el2, es, et)


class MultiPoly:
    """Sparse exact polynomial in lambda (half-integer exponents), s and t."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for (el2, es, et), coeff in terms.items():
                if el2 < 0 or es < 0 or et < 0:
                    raise ValueError("negative exponents are not supported")
                if coeff:
                    cleaned[(int(el2), int(es), int(et))] = int(coeff)
        self._terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def const(cls, coeff: int) -> "MultiPoly":
        return cls({(0, 0, 0): coeff})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    @classmethod
    def term(cls, coeff: int, el=0, es: int = 0, et: int = 0) -> "MultiPoly":
        """Single term; ``el`` may be an int or a half-integer Fraction."""
        el2 = 2 * Fraction(el)
        if el2.denominator != 1:
            raise ValueError(f"lambda exponent must be a half integer, got {el}")
        return cls({(int(el2), es, et): coeff})

    # -- ring structure ----------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        result = MultiPoly.__new__(MultiPoly)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = MultiPoly.__new__(MultiPoly)
        result._terms = {key: -coeff for key, coeff in self._terms.items()}
        return result

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MultiPoly.zero()
            result = MultiPoly.__new__(MultiPoly)
            result._terms = {k: c * other for k, c in self._terms.items()}
            return result
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = {}
        for (a1, a2, a3), ca in self._terms.items():
            for (b1, b2, b3), cb in other._terms.items():
                key = (a1 + b1, a2 + b2, a3 + b3)
                new = out.get(key, 0) + ca * cb
                if new:
                    out[key] = new
                else:
                    del out[key]
        result = MultiPoly.__new__(MultiPoly)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Yield ((el2, es, et), coeff) in canonical (descending graded-lex) order."""
        for key in sorted(self._terms, key=_term_sort_key, reverse=True):
            yield key, self._terms[key]

    def coefficient(self, el=0, es: int = 0, et: int = 0) -> int:
        el2 = 2 * Fraction(el)
        if el2.denominator != 1:
            raise ValueError(f"lambda exponent must be a half integer, got {el}")
        return self._terms.get((int(el2), es, et), 0)

    def has_integral_lambda_exponents(self) -> bool:
        return all(el2 % 2 == 0 for (el2, _, _) in self._terms)

    # -- evaluation and limits ----------------------------------------------

    def eval(self, lam, s, t) -> Fraction:
        """Exact evaluation at rational (lambda, s, t).

        Values 0 for s or t are accepted with the 0**0 = 1 convention, which
        is how the symbolic limits read off term survival.  A half-integer
        lambda exponent requires lambda to have an exact rational square
        root, otherwise NonIntegralLambdaExponentError is raised.
        """
        lam, s, t = _as_fraction(lam), _as_fraction(s), _as_fraction(t)
        sqrt_lam = None
        if any(el2 % 2 for (el2, _, _) in self._terms):
            sqrt_lam = _exact_sqrt(lam)
            if sqrt_lam is None:
                raise NonIntegralLambdaExponentError(
                    f"half-integer lambda exponent but lambda={lam} has no exact square root"
                )
        total = Fraction(0)
        for (el2, es, et), coeff in self._terms.items():
            if el2 % 2 == 0:
                part = lam ** (el2 // 2)
            else:
                part = sqrt_lam**el2
            total += coeff * part * s**es * t**et
        return total

    def specialize_zero(self, kill_s: bool = False, kill_t: bool = False) -> "MultiPoly":
        """Take the s -> 0 and/or t -> 0 limit by dropping positive powers.

        Exponent-zero terms survive (0**0 = 1 convention).
        """
        result = MultiPoly.__new__(MultiPoly)
        result._terms = {
            (el2, es, et): coeff
            for (el2, es, et), coeff in self._terms.items()
            if not (kill_s and es > 0) and not (kill_t and et > 0)
        }
        return result

    def specialize_one(self, s: bool = False, t: bool = False) -> "MultiPoly":
        """Set s = 1 and/or t = 1 by erasing the exponent (terms merge)."""
        out = {}
        for (el2, es, et), coeff in self._terms.items():
            key = (el2, 0 if s else es, 0 if t else et)
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                del out[key]
        result = MultiPoly.__new__(MultiPoly)
        result._terms = out
        return result

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _monomial_str(el2: int, es: int, et: int) -> str:
        parts = []
        if el2:
            if el2 == 2:
                parts.append("l")
            elif el2 % 2 == 0:
                parts.append(f"l^{el2 // 2}")
            else:
                parts.append(f"l^({el2}/2)")
        for sym, e in (("s", es), ("t", et)):
            if e == 1:
                parts.append(sym)
            elif e > 1:
                parts.append(f"{sym}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self._terms:
            return "0"
        chunks = []
        for key, coeff in self.terms():
            mono = self._monomial_str(*key)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"MultiPoly({self})"

    def to_json_terms(self):
        """Canonically ordered term list; el is an int, or a float for half units."""
        out = []
        for (el2, es, et), coeff in self.terms():
            el = el2 // 2 if el2 % 2 == 0 else el2 / 2
            out.append({"el": el, "es": es, "et": et, "coeff": str(coeff)})
        return out


ZERO = MultiPoly.zero()
ONE = MultiPoly.one()
LAM = MultiPoly.term(1, el=1)
SQRT_LAM = MultiPoly.term(1, el=Fraction(1, 2))
S = MultiPoly.term(1, es=1)
T = MultiPoly.term(1, et=1)
