"""Exact polynomial arithmetic in the three deformation parameters.

A ``MultiPoly`` is a sparse polynomial in the variables ``l`` (the rate
parameter lambda), ``s`` and ``t``, with arbitrary-precision integer
coefficients.  The lambda exponent may be a half-integer (so that sqrt(lambda)
is representable); internally it is tracked in half-units, el2 = 2 * (exponent
of lambda), and each monomial is packed into one int key:

    terms = {deg << 96 | el2 << 64 | es << 32 | et: coeff},  deg = el2 + 2*(es + et)

so the product of two monomials is the sum of their keys, and descending key
order is the canonical term order.  No other module reads or writes these
keys: the constructor and ``terms()`` speak in ``(el2, es, et)`` tuples, and
``s_from_digits(width)`` reads s exponents back from base-2**width digits.
The total degree el2 + es + et of a term must stay below 2**32, so no field
can carry into the next: each polynomial carries an upper bound on it (the
sum of the operands' bounds for a product, the larger one for a sum), and
an operation whose bound passes 2**32 - 1 raises OverflowError.

Every quantity the combinatorial and recurrence engines return ends up with
integral lambda exponents; half units only appear in intermediate operator
entries.  The zero polynomial is the empty term map.  Zero coefficients are
never stored, so ``==`` on term maps is a reliable polynomial identity test.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

_FIELD = (1 << 32) - 1  # the largest exponent a key field holds
_S_UNIT = 2 << 96 | 1 << 32  # the keys of s and t
_T_UNIT = 2 << 96 | 1


def _key(el2: int, es: int, et: int) -> int:
    return (el2 + 2 * (es + et)) << 96 | el2 << 64 | es << 32 | et


def _factor(var: str, e2: int) -> str:
    """"*"-prefixed text of var^(e2/2), or "" for e2 = 0."""
    if e2 & 1:
        return f"*{var}^({e2}/2)"
    return "" if not e2 else f"*{var}" if e2 == 2 else f"*{var}^{e2 >> 1}"


# factor text of exponents below 128 (el2 for l); __str__ formats larger ones
_L_TEXT, _S_TEXT, _T_TEXT = ([_factor(var, e2) for e2 in range(0, 128 * step, step)]
                             for var, step in (("l", 1), ("s", 2), ("t", 2)))


class NonIntegralLambdaExponentError(ValueError):
    """Evaluation hit a half-integer lambda exponent with no exact sqrt(lambda)."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _exact_sqrt(q: Fraction):
    """Exact square root of a rational, or None (also when it is negative)."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _half_units(el) -> int:
    """2 * el for an int or a half-integer lambda exponent."""
    if isinstance(el, int):
        return 2 * el
    el2 = 2 * Fraction(el)
    if el2.denominator != 1:
        raise ValueError(f"lambda exponent must be a half integer, got {el}")
    return int(el2)


def _check_degree(deg: int) -> int:
    if deg > _FIELD:
        raise OverflowError(f"MultiPoly exponents up to {deg} do not fit below 2**32")
    return deg


def _new(terms: dict, deg: int) -> "MultiPoly":
    result = MultiPoly.__new__(MultiPoly)
    result._terms = terms
    result._deg = deg
    return result


class MultiPoly:
    """Sparse exact polynomial in lambda (half-integer exponents), s and t."""

    __slots__ = ("_terms", "_deg")

    def __init__(self, terms=None):
        cleaned, deg = {}, 0
        if terms:
            for (el2, es, et), coeff in terms.items():
                for field in (el2, es, et, coeff):
                    if not isinstance(field, int):
                        raise TypeError(f"MultiPoly exponents and coefficients are ints, "
                                        f"got {field!r}")
                if el2 < 0 or es < 0 or et < 0:
                    raise ValueError("negative exponents are not supported")
                if coeff:
                    deg = max(deg, el2 + es + et)
                    cleaned[_key(el2, es, et)] = coeff
        self._terms = cleaned
        self._deg = _check_degree(deg)

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
        return cls({(_half_units(el), es, et): coeff})

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
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        get = out.get
        for key, coeff in small.items():
            new = get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                del out[key]
        return _new(out, self._deg if self._deg > other._deg else other._deg)

    __radd__ = __add__

    def __neg__(self):
        return _new({key: -coeff for key, coeff in self._terms.items()}, self._deg)

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
            return _new({k: c * other for k, c in self._terms.items()}, self._deg)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        deg = _check_degree(self._deg + other._deg)
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        if not small:
            return _new({}, deg)
        rest = iter(small.items())
        kb, cb = next(rest)
        # a shift by one monomial sends distinct keys to distinct keys
        out = {ka + kb: ca * cb for ka, ca in big.items()}
        get = out.get
        for kb, cb in rest:
            for ka, ca in big.items():
                key = ka + kb
                new = get(key, 0) + ca * cb
                if new:
                    out[key] = new
                else:
                    del out[key]
        return _new(out, deg)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # no square past the top bit: it could overflow unused
                base = base * base
        return result

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Yield ((el2, es, et), coeff) in canonical order, largest first by
        (el2 + 2*es + 2*et, el2, es), which is key order."""
        terms = self._terms
        for k in sorted(terms, reverse=True):
            yield (k >> 64 & _FIELD, k >> 32 & _FIELD, k & _FIELD), terms[k]

    def coefficient(self, el=0, es: int = 0, et: int = 0) -> int:
        el2 = _half_units(el)
        if min(el2, es, et) < 0 or el2 + es + et > self._deg:
            return 0  # no such term, and its packed key could name another
        return self._terms.get(_key(el2, es, et), 0)

    def has_integral_lambda_exponents(self) -> bool:
        return not any(k >> 64 & 1 for k in self._terms)

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
        if not self.has_integral_lambda_exponents():
            sqrt_lam = _exact_sqrt(lam)
            if sqrt_lam is None:
                raise NonIntegralLambdaExponentError(
                    f"half-integer lambda exponent but lambda={lam} has no exact square root"
                )
        total = Fraction(0)
        for k, coeff in self._terms.items():
            el2 = k >> 64 & _FIELD
            part = sqrt_lam**el2 if el2 & 1 else lam ** (el2 >> 1)
            total += coeff * part * s ** (k >> 32 & _FIELD) * t ** (k & _FIELD)
        return total

    def specialize_zero(self, kill_s: bool = False, kill_t: bool = False) -> "MultiPoly":
        """Take the s -> 0 and/or t -> 0 limit by dropping positive powers.

        Exponent-zero terms survive (0**0 = 1 convention).
        """
        mask = (_FIELD << 32 if kill_s else 0) | (_FIELD if kill_t else 0)
        return _new({k: c for k, c in self._terms.items() if not k & mask}, self._deg)

    def specialize_one(self, s: bool = False, t: bool = False) -> "MultiPoly":
        """Set s = 1 and/or t = 1 by taking the exponent out of the key (terms merge)."""
        ds, dt, out = _S_UNIT if s else 0, _T_UNIT if t else 0, {}
        for key, coeff in self._terms.items():
            key -= (key >> 32 & _FIELD) * ds + (key & _FIELD) * dt
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                del out[key]
        return _new(out, self._deg)

    def s_from_digits(self, width: int) -> "MultiPoly":
        """Undo s = 2**width: digit j of each coefficient in base 2**width
        becomes the coefficient of s^j.  The terms must be free of s, and
        every coefficient before the substitution in [0, 2**width)."""
        if width < 1:
            raise ValueError("width must be >= 1")
        low = min(self._terms.values(), default=0)
        if low < 0:
            raise ValueError(f"coefficient {low} is negative and has no base-2**width digits")
        mask = (1 << width) - 1
        terms, deg = {}, 0
        for key, coeff in self._terms.items():
            top = (coeff.bit_length() - 1) // width  # the leading digit's s exponent
            deg = max(deg, (key >> 64 & _FIELD) + top + (key & _FIELD))
            while coeff:
                if coeff & mask:
                    terms[key] = coeff & mask
                key += _S_UNIT
                coeff >>= width
        return _new(terms, _check_degree(deg))

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        terms, out = self._terms, []
        for key in sorted(terms, reverse=True):
            el2, es, et = key >> 64 & _FIELD, key >> 32 & _FIELD, key & _FIELD
            try:  # "*"-prefixed factors
                mono = _L_TEXT[el2] + _S_TEXT[es] + _T_TEXT[et]
            except IndexError:
                mono = _factor("l", el2) + _factor("s", 2 * es) + _factor("t", 2 * et)
            coeff = terms[key]
            out.append(" + " if coeff > 0 else " - ")
            mag = abs(coeff)
            out.append(mono[1:] if mag == 1 and mono else f"{mag}{mono}")
        text = "".join(out)
        return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self):
        return f"MultiPoly({self})"

    def to_json_terms(self):
        """Canonically ordered term list; el is an int, or a float for half units."""
        return [{"el": el2 / 2 if el2 & 1 else el2 >> 1, "es": es, "et": et, "coeff": str(c)}
                for (el2, es, et), c in self.terms()]


ZERO = MultiPoly.zero()
ONE = MultiPoly.one()
LAM = MultiPoly.term(1, el=1)
SQRT_LAM = MultiPoly.term(1, el=Fraction(1, 2))
S = MultiPoly.term(1, es=1)
T = MultiPoly.term(1, et=1)
