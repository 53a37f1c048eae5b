"""Sparse multivariate polynomials and rational-function pairs over exact rationals.

Monomials are sorted tuples of ``(variable_index, exponent)`` pairs, so the same
objects work when the chart is enlarged (m to 2m, or by `expr.Tower` atoms).
Coefficients are ``fractions.Fraction``.  Rational functions are unreduced
numerator/denominator pairs: only integer content and common *monomial* factors
are stripped, never a polynomial GCD.  Every pair is kept in that canonical
form, so a product with a constant and a pair over the denominator 1 need no
further canonicalisation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Monomial = tuple  # tuple[tuple[int, int], ...], sorted by variable index

_UNIT: Monomial = ()


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for var, exp in b:
        e = merged.get(var, 0) + exp
        if e:
            merged[var] = e
        else:
            del merged[var]
    return tuple(sorted(merged.items()))


def mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:
        return _UNIT
    db = dict(b)
    out = [(var, min(exp, db[var])) for var, exp in a if var in db]
    return tuple(out)


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Divide monomial a by b; b must divide a."""
    if not b:
        return a
    da = dict(a)
    for var, exp in b:
        e = da.get(var, 0) - exp
        if e < 0:
            raise ValueError("monomial does not divide")
        if e:
            da[var] = e
        else:
            del da[var]
    return tuple(sorted(da.items()))


class Poly:
    """Multivariate polynomial stored as {monomial: nonzero Fraction}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def const(cls, value) -> "Poly":
        value = Fraction(value)
        return cls({_UNIT: value} if value else {})

    @classmethod
    def coord(cls, index: int) -> "Poly":
        return cls({((index, 1),): Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _UNIT in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms.get(_UNIT, Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono, 0) + coeff
            if c:
                out[mono] = c
            else:
                del out[mono]
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({mono: -coeff for mono, coeff in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly()
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = mono_mul(ma, mb)
                c = out.get(mono, 0) + ca * cb
                if c:
                    out[mono] = c
                elif mono in out:
                    del out[mono]
        return Poly(out)

    def scale(self, factor) -> "Poly":
        factor = Fraction(factor)
        if not factor:
            return Poly()
        return Poly({mono: coeff * factor for mono, coeff in self.terms.items()})

    def pow(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative power of a Poly")
        result = _ONE_POLY
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def diff(self, index: int) -> "Poly":
        out: dict = {}
        for mono, coeff in self.terms.items():
            for pos, (var, exp) in enumerate(mono):
                if var == index:
                    rest = mono[:pos] + ((var, exp - 1),) + mono[pos + 1:] if exp > 1 \
                        else mono[:pos] + mono[pos + 1:]
                    c = out.get(rest, 0) + coeff * exp
                    if c:
                        out[rest] = c
                    elif rest in out:
                        del out[rest]
                    break
        return Poly(out)

    def eval(self, point: Sequence) -> Fraction:
        """Evaluate exactly at a point of Fractions."""
        total = None
        for mono, coeff in self.terms.items():
            value = coeff
            for var, exp in mono:
                value = value * point[var] ** exp
            total = value if total is None else total + value
        return Fraction(0) if total is None else total

    def monomial_content(self) -> Monomial:
        it = iter(self.terms)
        try:
            content = next(it)
        except StopIteration:
            return _UNIT
        for mono in it:
            content = mono_gcd(content, mono)
            if not content:
                break
        return content

    def shift_down(self, factor: Monomial) -> "Poly":
        return Poly({mono_div(m, factor): c for m, c in self.terms.items()})

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if self.is_zero:
            return Fraction(1)
        num = 0
        den = 1
        for coeff in self.terms.values():
            num = gcd(num, coeff.numerator)
            den = lcm(den, coeff.denominator)
        return Fraction(num, den)

    def leading_sign(self) -> int:
        if self.is_zero:
            return 1
        mono = min(self.terms)
        return 1 if self.terms[mono] > 0 else -1

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        bits = []
        for mono, coeff in sorted(self.terms.items()):
            factors = [str(coeff)] + [f"x{var}^{exp}" for var, exp in mono]
            bits.append("*".join(factors))
        return "Poly(" + " + ".join(bits) + ")"


_ONE_POLY = Poly.const(1)  # shared: no Poly's terms are ever mutated in place


def _is_one(p: Poly) -> bool:
    return p is _ONE_POLY or (len(p.terms) == 1 and p.terms.get(_UNIT) == 1)


class RationalFunc:
    """Unreduced quotient of two Poly values; denominator never the zero polynomial."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, normalize: bool = True):
        if den is None:
            den = _ONE_POLY
        if den.is_zero:
            raise ZeroDivisionError("denominator polynomial is identically zero")
        self.num = num
        self.den = den
        if normalize:
            self._normalize()

    @classmethod
    def const(cls, value) -> "RationalFunc":
        return cls(Poly.const(value), normalize=False)

    @classmethod
    def coord(cls, index: int) -> "RationalFunc":
        return cls(Poly.coord(index), normalize=False)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _normalize(self) -> None:
        # strip a common monomial factor, then make the denominator a primitive
        # integer polynomial with positive leading coefficient
        if self.num.is_zero:
            self.den = _ONE_POLY
            return
        if _is_one(self.den):  # a polynomial: nothing to strip or scale
            return
        common = mono_gcd(self.num.monomial_content(), self.den.monomial_content())
        if common:
            self.num = self.num.shift_down(common)
            self.den = self.den.shift_down(common)
        scale = self.den.content() * self.den.leading_sign()
        if scale != 1:
            inv = 1 / scale
            self.num = self.num.scale(inv)
            self.den = self.den.scale(inv)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunc)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return RationalFunc(self.num + other.num, self.den)
        return RationalFunc(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __neg__(self) -> "RationalFunc":
        return RationalFunc(-self.num, self.den, normalize=False)

    def __sub__(self, other: "RationalFunc") -> "RationalFunc":
        return self + (-other)

    def __mul__(self, other: "RationalFunc") -> "RationalFunc":
        if self.is_zero or other.is_zero:
            return RationalFunc(Poly(), normalize=False)
        # a constant factor scales the other, already canonical, pair: no monomial
        # factor appears and the denominator stays primitive, so skip _normalize
        for factor, rest in ((self, other), (other, self)):
            if factor.num.is_constant and _is_one(factor.den):
                c = factor.num.terms[_UNIT]
                if c == 1:
                    return rest
                return RationalFunc(rest.num.scale(c), rest.den, normalize=False)
        return RationalFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunc") -> "RationalFunc":
        if other.is_zero:
            raise ZeroDivisionError("division by identically-zero rational function")
        return RationalFunc(self.num * other.den, self.den * other.num)

    def pow(self, exponent: int) -> "RationalFunc":
        if exponent >= 0:
            return RationalFunc(self.num.pow(exponent), self.den.pow(exponent))
        if self.is_zero:
            raise ZeroDivisionError("negative power of the zero function")
        return RationalFunc(self.den.pow(-exponent), self.num.pow(-exponent))

    def diff(self, index: int) -> "RationalFunc":
        dn = self.num.diff(index)
        dd = self.den.diff(index)
        if dd.is_zero:
            return RationalFunc(dn, self.den)
        return RationalFunc(dn * self.den - self.num * dd, self.den * self.den)

    def eval(self, point: Sequence):
        return self.num.eval(point) / self.den.eval(point)

    def __repr__(self) -> str:
        return f"RationalFunc({self.num!r}, {self.den!r})"
