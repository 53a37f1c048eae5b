"""Exact symbolic scalar expressions over chart coordinates.

The node set is deliberately small: rational constants, coordinates, sums,
products, quotients, integer powers, and exp/log.  Trees are immutable and
normalized lightly at construction (flattening, constant folding, dropping
zeros); canonical-form work is delegated to :mod:`affineqe.poly` when an exact
answer is required.  A tree has one exact evaluator, :func:`evaluate`, which
reads a float coordinate as its dyadic value and has no value for exp/log, and
one float evaluator, :func:`compile_float`; :func:`float_faults` plus
:func:`finite` is the one rule that turns float overflow, division by zero and
the log of a non-positive value in compiled calls into :class:`DomainError`.

Grammar accepted by :func:`parse_scalar` (a leading minus is also allowed)::

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' ['-'] integer)?
    base   := rational | ident | '(' expr ')' | ('exp'|'log') '(' expr ')'

Rational literals are ``p`` or ``p/q``; decimals are rejected.  Parentheses
and exp/log nest at most ``MAX_NESTING`` deep, so no recursive walk of a
parsed tree runs out of Python frames.
"""

from __future__ import annotations

import enum
import math as _math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .poly import Poly, RationalFunc

Rational = Fraction
EvalPoint = Sequence  # of ints, Fractions or floats, each read as its exact rational value


class AffineQEError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(AffineQEError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ExprSyntaxError):
    pass


class ExactModeError(AffineQEError):
    """An exact-only operation was asked to handle an exp/log tree."""


class DomainError(AffineQEError):
    """Evaluation hit a pole, log of a non-positive value, or a zero denominator."""


# --------------------------------------------------------------------------
# nodes


class ScalarExpr:
    __slots__ = ()

    @property
    def rational_only(self) -> bool:
        return _rational_only(self)

    # add, mul and div coerce their operands themselves
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, neg(other))

    def __rsub__(self, other):
        return add(other, neg(self))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, exponent: int):
        return powi(self, exponent)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"<{type(self).__name__} {format_expr(self)}>"


@dataclass(frozen=True, repr=False, slots=True)
class Const(ScalarExpr):
    value: Fraction


@dataclass(frozen=True, repr=False, slots=True)
class Coord(ScalarExpr):
    index: int


@dataclass(frozen=True, repr=False, slots=True)
class Add(ScalarExpr):
    terms: tuple


@dataclass(frozen=True, repr=False, slots=True)
class Mul(ScalarExpr):
    factors: tuple


@dataclass(frozen=True, repr=False, slots=True)
class Div(ScalarExpr):
    num: ScalarExpr
    den: ScalarExpr


@dataclass(frozen=True, repr=False, slots=True)
class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: int


@dataclass(frozen=True, repr=False, slots=True)
class Exp(ScalarExpr):
    arg: ScalarExpr


@dataclass(frozen=True, repr=False, slots=True)
class Log(ScalarExpr):
    arg: ScalarExpr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
_MINUS_ONE = Const(Fraction(-1))


def as_expr(value) -> ScalarExpr:
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    raise TypeError(f"cannot coerce {value!r} to ScalarExpr")


def const(value) -> Const:
    return Const(Fraction(value))


def coord(index: int) -> Coord:
    if index < 0:
        raise ValueError("coordinate index must be nonnegative")
    return Coord(index)


def add(*terms) -> ScalarExpr:
    flat = []
    constant = None  # the Const node of the folded constants, if any
    for term in terms:
        if not isinstance(term, ScalarExpr):
            term = as_expr(term)
        for t in term.terms if isinstance(term, Add) else (term,):
            if isinstance(t, Const):
                if t.value:
                    constant = t if constant is None else Const(constant.value + t.value)
            else:
                flat.append(t)
    if constant is not None and constant.value:
        flat.append(constant)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def neg(e: ScalarExpr) -> ScalarExpr:
    return mul(_MINUS_ONE, e)


def mul(*factors) -> ScalarExpr:
    flat = []
    constant = None  # the Const node of the folded constants, if any
    for factor in factors:
        if not isinstance(factor, ScalarExpr):
            factor = as_expr(factor)
        for f in factor.factors if isinstance(factor, Mul) else (factor,):
            if isinstance(f, Const):
                if not f.value:
                    return ZERO
                constant = f if constant is None else Const(constant.value * f.value)
            else:
                flat.append(f)
    if not flat:
        return ONE if constant is None else constant
    if constant is not None and constant.value != 1:
        flat.insert(0, constant)
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def div(num, den) -> ScalarExpr:
    num = as_expr(num)
    den = as_expr(den)
    if isinstance(den, Const):
        if not den.value:
            raise DomainError("quotient by the literal zero expression")
        return mul(Const(1 / den.value), num)
    if isinstance(num, Const) and not num.value:
        return ZERO
    return Div(num, den)


def powi(base, exponent: int) -> ScalarExpr:
    base = as_expr(base)
    if not isinstance(exponent, int):
        raise TypeError("exponent must be a plain integer")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if exponent < 0 and not base.value:
            raise DomainError("negative power of the zero constant")
        return Const(base.value ** exponent)
    if isinstance(base, Pow):
        return powi(base.base, base.exponent * exponent)
    return Pow(base, exponent)


def exp(arg) -> ScalarExpr:
    arg = as_expr(arg)
    if isinstance(arg, Const) and not arg.value:
        return ONE
    if isinstance(arg, Log):
        return arg.arg
    return Exp(arg)


def log(arg) -> ScalarExpr:
    arg = as_expr(arg)
    if isinstance(arg, Const) and arg.value == 1:
        return ZERO
    if isinstance(arg, Exp):
        return arg.arg
    return Log(arg)


def _rational_only(e: ScalarExpr) -> bool:
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (Exp, Log)):
            return False
        elif isinstance(node, Add):
            stack.extend(node.terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Div):
            stack.append(node.num)
            stack.append(node.den)
        elif isinstance(node, Pow):
            stack.append(node.base)
    return True


def max_coord_index(e: ScalarExpr) -> int:
    """Largest coordinate index used, or -1 for constant expressions."""
    best = -1
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Coord):
            best = max(best, node.index)
        elif isinstance(node, Add):
            stack.extend(node.terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Div):
            stack.extend((node.num, node.den))
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, (Exp, Log)):
            stack.append(node.arg)
    return best


# --------------------------------------------------------------------------
# parsing


_TOKEN_OPS = set("+-*/^(),")


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_OPS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                raise ExprSyntaxError("decimal literals are not allowed", j)
            tokens.append(("num", int(text[i:j]), i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


MAX_NESTING = 200  # four parser frames a level: 800 stay inside the default limit of 1000


class _Parser:
    def __init__(self, tokens, coords: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.index_of = {name: i for i, name in enumerate(coords)}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self) -> ScalarExpr:
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        result = self.parse_term()
        if negate:
            result = neg(result)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            term = self.parse_term()
            result = add(result, term if op == "+" else neg(term))
        return result

    def parse_term(self) -> ScalarExpr:
        result = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            factor = self.parse_factor()
            result = mul(result, factor) if op == "*" else div(result, factor)
        return result

    def parse_factor(self) -> ScalarExpr:
        base = self.parse_base()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            tok = self.expect("num")
            base = powi(base, sign * tok[1])
        return base

    def parse_base(self) -> ScalarExpr:
        kind, value, position = self.take()
        if kind == "num":
            return Const(Fraction(value))
        if kind == "ident" and value not in ("exp", "log"):
            if value in self.index_of:
                return Coord(self.index_of[value])
            raise UnknownIdentifierError(f"unknown identifier {value!r}", position)
        if kind == "ident":
            self.expect("(")
        elif kind != "(":
            raise ExprSyntaxError(f"unexpected token {value!r}", position)
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", position)
        self.depth += 1
        inner = self.parse_expr()
        self.expect(")")
        self.depth -= 1
        if kind == "(":
            return inner
        return exp(inner) if value == "exp" else log(inner)


def parse_scalar(text: str, coords: Sequence[str]) -> ScalarExpr:
    """Parse ``text`` into a ScalarExpr over the named chart coordinates."""
    parser = _Parser(_tokenize(text), coords)
    result = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return result


def parse_rational(text: str) -> Fraction:
    """Parse a 'p' or 'p/q' string into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as err:
        raise ExprSyntaxError(f"bad rational literal {text!r}: {err}", 0) from None


# --------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _fmt(e: ScalarExpr, coords: Sequence[str] | None, prec: int) -> str:
    if isinstance(e, Const):
        text = str(e.value)
        if e.value < 0:
            return f"({text})" if prec > _PREC_ADD else f"-{str(-e.value)}"
        if e.value.denominator != 1 and prec >= _PREC_POW:
            return f"({text})"
        return text
    if isinstance(e, Coord):
        if coords is not None:
            return coords[e.index]
        return f"x{e.index + 1}"
    if isinstance(e, Add):
        bits = [_fmt(e.terms[0], coords, _PREC_ADD)]
        for term in e.terms[1:]:
            negated = _negated(term)
            if negated is not None:
                bits.append(" - " + _fmt(negated, coords, _PREC_MUL))
            else:
                bits.append(" + " + _fmt(term, coords, _PREC_MUL))
        text = "".join(bits)
        return f"({text})" if prec > _PREC_ADD else text
    if isinstance(e, Mul):
        text = "*".join(_fmt(f, coords, _PREC_MUL + 1) for f in e.factors)
        return f"({text})" if prec > _PREC_MUL else text
    if isinstance(e, Div):
        text = (_fmt(e.num, coords, _PREC_MUL + 1) + "/"
                + _fmt(e.den, coords, _PREC_POW))
        return f"({text})" if prec > _PREC_MUL else text
    if isinstance(e, Pow):
        exponent = str(e.exponent) if e.exponent >= 0 else f"-{-e.exponent}"
        return _fmt(e.base, coords, _PREC_ATOM) + "^" + exponent
    if isinstance(e, Exp):
        return "exp(" + _fmt(e.arg, coords, _PREC_ADD) + ")"
    if isinstance(e, Log):
        return "log(" + _fmt(e.arg, coords, _PREC_ADD) + ")"
    raise TypeError(f"not a ScalarExpr: {e!r}")


def _negated(term: ScalarExpr):
    """Return t with term == -t when that is syntactically evident, else None."""
    if isinstance(term, Const) and term.value < 0:
        return Const(-term.value)
    if isinstance(term, Mul):
        head = term.factors[0]
        if isinstance(head, Const) and head.value < 0:
            return mul(Const(-head.value), *term.factors[1:])
    return None


def format_expr(e: ScalarExpr, coords: Sequence[str] | None = None) -> str:
    """Render to text that reparses to an identical expression."""
    return _fmt(e, coords, _PREC_ADD)


# --------------------------------------------------------------------------
# calculus and evaluation


def differentiate(e: ScalarExpr, index: int) -> ScalarExpr:
    """Exact partial derivative with respect to coordinate ``index``."""
    memo: dict = {}

    def walk(node: ScalarExpr) -> ScalarExpr:
        hit = memo.get(id(node))
        if hit is not None:
            return hit
        if isinstance(node, Const):
            result = ZERO
        elif isinstance(node, Coord):
            result = ONE if node.index == index else ZERO
        elif isinstance(node, Add):
            result = add(*[walk(t) for t in node.terms])
        elif isinstance(node, Mul):
            pieces = []
            for i, factor in enumerate(node.factors):
                d = walk(factor)
                if d is not ZERO:
                    pieces.append(mul(*(node.factors[:i] + (d,) + node.factors[i + 1:])))
            result = add(*pieces)
        elif isinstance(node, Div):
            du = walk(node.num)
            dv = walk(node.den)
            result = div(add(mul(du, node.den), neg(mul(node.num, dv))),
                         powi(node.den, 2))
        elif isinstance(node, Pow):
            result = mul(Const(Fraction(node.exponent)),
                         powi(node.base, node.exponent - 1), walk(node.base))
        elif isinstance(node, Exp):
            result = mul(walk(node.arg), node)
        elif isinstance(node, Log):
            result = div(walk(node.arg), node.arg)
        else:
            raise TypeError(f"not a ScalarExpr: {node!r}")
        memo[id(node)] = result
        return result

    return walk(e)


def evaluate(e: ScalarExpr | Sequence[ScalarExpr], point: EvalPoint, memo: dict | None = None):
    """Exact value at a point, in Fractions, a float coordinate read as its dyadic value; a
    sequence of expressions gives their values as a tuple from one walk with one memo.
    exp/log raise ExactModeError and a pole raises DomainError; float values come from
    `compile_float`.  A shared `memo` (keyed by id) needs points agreeing on the
    coordinates read."""
    memo = {} if memo is None else memo

    def walk(node: ScalarExpr):
        hit = memo.get(id(node))
        if hit is not None:
            return hit
        if isinstance(node, Const):
            result = node.value
        elif isinstance(node, Coord):
            if node.index >= len(point):
                raise DomainError(f"coordinate x{node.index + 1} outside the point")
            result = Fraction(point[node.index])
        elif isinstance(node, Add):
            result = sum(walk(t) for t in node.terms)
        elif isinstance(node, Mul):
            result = Fraction(1)
            for factor in node.factors:
                result *= walk(factor)
        elif isinstance(node, Div):
            den = walk(node.den)
            result = walk(node.num) / den
        elif isinstance(node, Pow):
            result = walk(node.base) ** node.exponent
        elif isinstance(node, (Exp, Log)):
            raise ExactModeError(f"{type(node).__name__.lower()} is not available in exact mode")
        else:
            raise TypeError(f"not a ScalarExpr: {node!r}")
        memo[id(node)] = result
        return result

    try:
        # the memo is keyed by id: keep every tree alive
        values = tuple(map(walk, (e,) if isinstance(e, ScalarExpr) else tuple(e)))
    except ZeroDivisionError as err:
        raise _fault_error(err) from None
    except (OverflowError, ValueError):  # Fraction() of an inf or nan coordinate
        raise DomainError("a coordinate is not finite") from None
    return values[0] if isinstance(e, ScalarExpr) else values


# math.log's domain error is the one ValueError a tree's float values can raise
_FLOAT_FAULTS = (OverflowError, ZeroDivisionError, ValueError)


def _fault_error(err: Exception) -> DomainError:
    """The one report of a float overflow, a division by zero or a log domain error."""
    if isinstance(err, ValueError):
        return DomainError("log of a non-positive value")
    return DomainError(f"{'float overflow' if isinstance(err, OverflowError) else 'pole'}: {err}")


def finite(values) -> tuple:
    """The float values, or one OverflowError for any value past the float range."""
    try:
        values = tuple(values)
        if _math.isfinite(sum(map(abs, values))):  # + and * overflow silently
            return values
    except OverflowError:  # a power overflows with a message of its own
        pass
    raise OverflowError("a value past the float range")


@contextmanager
def float_faults():
    """Float overflow, division by zero and the log of a non-positive value in
    the block raise DomainError."""
    try:
        yield
    except _FLOAT_FAULTS as err:
        raise _fault_error(err) from None


def float_values(values) -> list:
    """Input numbers as floats; a number past the float range raises DomainError."""
    try:
        return [float(c) for c in values]
    except OverflowError as err:
        raise _fault_error(err) from None


class Tower:
    """The field Q(x, theta) of a chart's data on m coordinates, a differential tower (Bronstein,
    Symbolic Integration I, 2005, ch. 3): `to_ratfunc` makes each exp/log node, told apart as a
    tree, a variable theta_k at index m + k.  A zero polynomial in (x, theta) is a zero function."""

    def __init__(self, m: int):
        self.m = m
        self.atoms: list = []   # theta_k's node
        self.slopes: dict = {}  # k -> theta_k's D_0 .. D_(m-1)
        self._index: dict = {}

    def variable(self, node: ScalarExpr) -> RationalFunc:
        k = self._index.get(node)
        if k is None:  # appended before its slopes, each of which holds the node itself
            k = self._index[node] = len(self.atoms)
            self.atoms.append(node)
            self.slopes[k] = [to_ratfunc(differentiate(node, i), tower=self) for i in range(self.m)]
        return RationalFunc.coord(self.m + k)

    def diff(self, f: RationalFunc, i: int) -> RationalFunc:
        """The derivation D_i = d_i + sum_k (D_i theta_k) d/d theta_k."""
        total = f.diff(i)
        for k, slopes in self.slopes.items():
            total = total + slopes[i] * f.diff(self.m + k)
        return total


def to_ratfunc(e: ScalarExpr, memo: dict | None = None, tower: Tower | None = None) -> RationalFunc:
    """Convert to an exact rational-function pair; an exp/log node needs a `tower`."""
    memo = {} if memo is None else memo

    def walk(node: ScalarExpr) -> RationalFunc:
        hit = memo.get(id(node))
        if hit is not None:
            return hit
        if isinstance(node, Const):
            result = RationalFunc.const(node.value)
        elif isinstance(node, Coord):
            result = RationalFunc.coord(node.index)
        elif isinstance(node, Add):
            result = walk(node.terms[0])
            for term in node.terms[1:]:
                result = result + walk(term)
        elif isinstance(node, Mul):
            result = walk(node.factors[0])
            for factor in node.factors[1:]:
                result = result * walk(factor)
        elif isinstance(node, Div):
            den = walk(node.den)
            if den.is_zero:
                raise DomainError("denominator is identically zero")
            result = walk(node.num) / den
        elif isinstance(node, Pow):
            try:
                result = walk(node.base).pow(node.exponent)
            except ZeroDivisionError:
                raise DomainError("negative power of the identically-zero expression") from None
        elif isinstance(node, (Exp, Log)):
            if tower is None:
                raise ExactModeError("exp/log tree has no exact rational form")
            result = tower.variable(node)
        else:
            raise TypeError(f"not a ScalarExpr: {node!r}")
        memo[id(node)] = result
        return result

    return walk(e)


def from_ratfunc(rf: RationalFunc, tower: Tower | None = None) -> ScalarExpr:
    """Rebuild a compact canonical tree (sum of monomials over sum of monomials)."""

    def poly_expr(p: Poly) -> ScalarExpr:
        terms = []
        for mono, coeff in sorted(p.terms.items()):
            factors = [Const(coeff)] if coeff != 1 or not mono else []
            for var, expo in mono:
                leaf = tower.atoms[var - tower.m] if tower and var >= tower.m else Coord(var)
                factors.append(powi(leaf, expo))
            terms.append(mul(*factors) if factors else ONE)
        return add(*terms)

    num = poly_expr(rf.num)
    if rf.den.is_constant and rf.den.constant_value() == 1:
        return num
    return div(num, poly_expr(rf.den))


def simplify_rational(e: ScalarExpr) -> ScalarExpr:
    """Canonical compact form for rational-only trees; other trees pass through."""
    if not _rational_only(e):
        return e
    return from_ratfunc(to_ratfunc(e))


# --------------------------------------------------------------------------
# zero testing


class Verdict(enum.Enum):
    """Outcome of a zero-test; numeric-only means 'zero as far as sampling shows'."""

    ZERO = "zero"
    NONZERO = "nonzero"
    NUMERIC_ONLY = "numeric-only"

    def __bool__(self) -> bool:
        return self is not Verdict.NONZERO

    @property
    def certified(self) -> bool:
        return self in (Verdict.ZERO, Verdict.NONZERO)


def combine_verdicts(verdicts) -> Verdict:
    """All-zero verdict for a family of component verdicts."""
    result = Verdict.ZERO
    for v in verdicts:
        if v is Verdict.NONZERO:
            return Verdict.NONZERO
        if v is Verdict.NUMERIC_ONLY:
            result = Verdict.NUMERIC_ONLY
    return result


RANDOM_RATIONAL_BOUND = 10_000
FLOAT_SAMPLE_COUNT = 20
FLOAT_SAMPLE_TOL = 1e-9


def random_rational_point(nvars: int, rng: random.Random) -> tuple:
    """A random exact point with coordinates p/q, |p| and q up to the bound."""
    bound = RANDOM_RATIONAL_BOUND
    return tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                 for _ in range(nvars))


def random_float_point(nvars: int, rng: random.Random, positive: bool = False) -> tuple:
    if positive:
        return tuple(0.05 + 2.0 * rng.random() for _ in range(nvars))
    return tuple(2.0 * (2 * rng.random() - 1) for _ in range(nvars))


# [-2, 2]^n, the log-friendly [0.05, 2.05]^n, then both scaled by 4, 16 and 64
_SAMPLE_BOXES = tuple((scale, positive) for scale in (1, 4, 16, 64) for positive in (False, True))


def _sample_verdict(e: ScalarExpr, rng: random.Random) -> Verdict:
    nvars = max_coord_index(e) + 1
    try:
        values_at = compile_float(e.terms if isinstance(e, Add) else (e,))
    except OverflowError:  # a constant past the float range, which every point would read
        raise DomainError("expression could not be sampled anywhere") from None
    collected = 0
    for scale, positive in _SAMPLE_BOXES:
        tries = 0
        # a box that yields no point in its tries hands over to the next one
        while collected < FLOAT_SAMPLE_COUNT and (collected or tries < 10 * FLOAT_SAMPLE_COUNT):
            tries += 1
            point = tuple(scale * c for c in random_float_point(nvars, rng, positive))
            try:
                values = finite(values_at(point))
            except _FLOAT_FAULTS:
                continue
            # sum(values) is e's value in floats; a nonzero must also stand out
            # of its terms' rounding error, so large terms that cancel do not count
            if abs(sum(values)) > FLOAT_SAMPLE_TOL * max(1.0, sum(map(abs, values))):
                return Verdict.NONZERO
            collected += 1
        if collected:
            return Verdict.NUMERIC_ONLY
    raise DomainError("expression could not be sampled anywhere")


@lru_cache(maxsize=64)  # keyed by the tree: equal trees share one verdict, and errors recur
def _exp_log_verdict(e: ScalarExpr) -> Verdict:
    verdict = _sample_verdict(e, random.Random(0x5EED))
    # a sampled nonzero can be rounding; a zero polynomial in a tower is a zero function
    if verdict is Verdict.NONZERO and to_ratfunc(e, tower=Tower(max_coord_index(e) + 1)).is_zero:
        return Verdict.ZERO
    return verdict


# coordinate count -> the cross-check point: the seed's first draws, so each point
# is a prefix of the longer ones and one value memo serves any coordinate count
_CHECK_POINTS: dict = {}


def is_identically_zero(e: ScalarExpr, memos: tuple | None = None) -> Verdict:
    """The one judge of zero, on raw trees: a constant is judged by its value; another
    rational-only tree is put into exact form here and a random rational point
    cross-checks a zero claim; an exp/log tree is sampled, and a sampled nonzero is
    confirmed in a `Tower`.  Draws come from a fixed seed, so the tree fixes the verdict,
    and a sampled verdict is computed once per distinct tree and kept in a bounded
    per-process cache, which changes no verdict (an error is raised again each time).
    `memos`, a (to_ratfunc, evaluate) pair of dicts, serves trees kept alive together."""
    if isinstance(e, Const):
        return Verdict.NONZERO if e.value else Verdict.ZERO
    if not _rational_only(e):
        return _exp_log_verdict(e)
    ratfunc_memo, value_memo = memos or (None, None)
    if to_ratfunc(e, ratfunc_memo).is_zero:
        nvars = max_coord_index(e) + 1
        point = _CHECK_POINTS.get(nvars)
        if point is None:  # not `or`: the point of a constant tree is ()
            point = _CHECK_POINTS[nvars] = random_rational_point(nvars, random.Random(0x5EED))
        try:
            check = evaluate(e, point, value_memo)
            if check != 0:
                raise AssertionError("canonical form disagrees with evaluation")
        except DomainError:
            pass  # point hit a pole of an intermediate subexpression
        return Verdict.ZERO
    return Verdict.NONZERO


def check_defined(e: ScalarExpr) -> None:
    """DomainError for an identically-zero denominator in a rational part of e or a
    log of a rational constant <= 0, which derivatives can fold away: d log(x1 - x1) = 0."""
    stack = [e]
    while stack:
        node = stack.pop()
        if _rational_only(node):
            to_ratfunc(node)
        elif isinstance(node, Log) and _rational_only(node.arg):
            arg = to_ratfunc(node.arg)
            if arg.num.is_constant and arg.den.is_constant and arg.eval(()) <= 0:
                raise DomainError("log of an identically zero or negative constant")
        elif isinstance(node, (Add, Mul, Div)):
            stack.extend(node.terms if isinstance(node, Add) else node.factors
                         if isinstance(node, Mul) else (node.num, node.den))
        else:
            stack.append(node.base if isinstance(node, Pow) else node.arg)


_FLOAT_GLOBALS = {"_exp": _math.exp, "_log": _math.log}  # shared by every compiled callable


NEST_BOUND = 50  # brackets of one emitted expression; CPython's tokenizer stops at 200


def compile_float(e: ScalarExpr | Sequence[ScalarExpr]) -> Callable[[Sequence[float]], object]:
    """Compile to a plain-float callable for hot numeric loops; a sequence of
    expressions compiles to one callable returning their values as a tuple.
    A subtree whose text would nest deeper than NEST_BOUND brackets is bound
    once to a local ahead of its readers, so trees nested as deep as the parser
    allows compile too; shallower trees keep their one-expression text."""
    hoisted: list = []  # "(_h<k> := <text>)", each before the subtrees that read it
    names: dict = {}  # id of a hoisted subtree -> its local

    def emit(node: ScalarExpr) -> tuple:
        """The node's text and the bracket depth of that text."""
        if id(node) in names:
            return names[id(node)], 0
        if isinstance(node, Const):
            return repr(float(node.value)), 0
        if isinstance(node, Coord):
            return f"c[{node.index}]", 1
        if isinstance(node, (Add, Mul)):
            kids = node.terms if isinstance(node, Add) else node.factors
            form = "(" + ("+" if isinstance(node, Add) else "*").join(["{}"] * len(kids)) + ")"
        elif isinstance(node, Div):
            kids, form = (node.num, node.den), "({}/{})"
        elif isinstance(node, Pow):
            kids, form = (node.base,), f"({{}})**({node.exponent})"
        elif isinstance(node, (Exp, Log)):
            kids, form = (node.arg,), "_exp({})" if isinstance(node, Exp) else "_log({})"
        else:
            raise TypeError(f"not a ScalarExpr: {node!r}")
        parts = [emit(kid) for kid in kids]
        text, depth = form.format(*(t for t, _ in parts)), 1 + max(d for _, d in parts)
        if depth <= NEST_BOUND:
            return text, depth
        names[id(node)] = f"_h{len(hoisted)}"
        hoisted.append(f"({names[id(node)]} := {text})")
        return names[id(node)], 0

    body = emit(e)[0] if isinstance(e, ScalarExpr) \
        else "(" + "".join(emit(t)[0] + "," for t in e) + ")"
    if hoisted:  # a tuple's items run left to right: every local is bound before it is read
        body = "(" + "".join(h + ", " for h in hoisted) + body + ")[-1]"
    return eval(f"lambda c: {body}", _FLOAT_GLOBALS)  # noqa: S307


def compile_symbols(grid) -> tuple:
    """(indices, callable) for the nonzero entries of a nested grid, in index
    order: their index tuples and one float callable returning their values."""
    entries = _nonzero_entries(grid)
    return tuple(index for index, _ in entries), compile_float(tuple(e for _, e in entries))


def _nonzero_entries(grid, index: tuple = ()) -> list:
    if isinstance(grid, ScalarExpr):
        return [] if grid == ZERO else [(index, grid)]
    return [pair for position, entry in enumerate(grid)
            for pair in _nonzero_entries(entry, index + (position,))]
