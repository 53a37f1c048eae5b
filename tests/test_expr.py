import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineqe import expr
from affineqe.expr import (
    Coord,
    Const,
    DomainError,
    ExactModeError,
    ExprSyntaxError,
    UnknownIdentifierError,
    Verdict,
    differentiate,
    evaluate,
    format_expr,
    is_identically_zero,
    parse_scalar,
)

XY = ["x1", "x2"]


def q(a, b=1):
    return Fraction(a, b)


class TestParse:
    def test_quotient_by_coordinate(self):
        e = parse_scalar("3/x1", XY)
        assert evaluate(e, (q(2), q(0))) == q(3, 2)
        assert e.rational_only

    def test_polynomial(self):
        e = parse_scalar("x1^2 - 2*x2", XY)
        assert e.rational_only
        assert evaluate(e, (q(1), q(1))) == -1

    def test_exp_log_flagged(self):
        e = parse_scalar("exp(x1) + log(x2)", XY)
        assert not e.rational_only

    def test_rational_literals(self):
        assert evaluate(parse_scalar("3/4", XY), (q(0), q(0))) == q(3, 4)
        assert evaluate(parse_scalar("-5", XY), (q(0), q(0))) == -5

    def test_decimal_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_scalar("1.5*x1", XY)

    def test_unknown_identifier_with_position(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_scalar("x1 + zz", XY)
        assert err.value.position == 5

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_scalar("x1 + * x2", XY)
        assert err.value.position == 5

    def test_precedence(self):
        e = parse_scalar("1 + 2*x1^2", XY)
        assert evaluate(e, (q(3), q(0))) == 19

    def test_negative_exponent(self):
        e = parse_scalar("x1^-2", XY)
        assert evaluate(e, (q(2), q(0))) == q(1, 4)


class TestDifferentiate:
    def test_quotient_rule(self):
        e = parse_scalar("3/x1", XY)
        d = differentiate(e, 0)
        want = parse_scalar("-3/x1^2", XY)
        assert is_identically_zero(d - want) is Verdict.ZERO

    def test_constant(self):
        assert differentiate(Const(q(5)), 1) == expr.ZERO

    def test_chain_rule_exp(self):
        e = parse_scalar("exp(2*x1)", XY)
        d = differentiate(e, 0)
        v = evaluate(d, (0.5, 0.0), "float")
        assert v == pytest.approx(2 * math.exp(1.0))

    def test_log(self):
        d = differentiate(parse_scalar("log(x1)", XY), 0)
        assert evaluate(d, (4.0, 0.0), "float") == pytest.approx(0.25)

    def test_rational_only_preserved(self):
        e = parse_scalar("(x1 + x2)^3 / (1 + x1^2)", XY)
        assert differentiate(e, 0).rational_only


class TestEvaluate:
    def test_exact_fraction(self):
        e = parse_scalar("3/x1", XY)
        assert evaluate(e, (q(2), q(0)), "exact") == q(3, 2)

    def test_float_exp(self):
        e = parse_scalar("exp(x1)", XY)
        assert evaluate(e, (0.0, 0.0), "float") == pytest.approx(1.0)

    def test_exact_mode_rejects_exp(self):
        with pytest.raises(ExactModeError):
            evaluate(parse_scalar("exp(x1)", XY), (q(0), q(0)), "exact")

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            evaluate(parse_scalar("3/x1", XY), (q(0), q(1)), "exact")

    def test_log_domain(self):
        with pytest.raises(DomainError):
            evaluate(parse_scalar("log(x1)", XY), (-1.0, 0.0), "float")


class TestZeroTest:
    def test_polynomial_identity(self):
        e = parse_scalar("(x1+1)^2 - x1^2 - 2*x1 - 1", XY)
        assert is_identically_zero(e) is Verdict.ZERO

    def test_nonzero(self):
        e = parse_scalar("x1*x2 - x2", XY)
        assert is_identically_zero(e) is Verdict.NONZERO

    def test_exp_cancellation_numeric_only(self):
        e = parse_scalar("exp(x1)*exp(-x1) - 1", XY)
        assert is_identically_zero(e) is Verdict.NUMERIC_ONLY

    def test_exp_nonzero(self):
        e = parse_scalar("exp(x1) - 1 - x1", XY)
        assert is_identically_zero(e) is Verdict.NONZERO

    def test_rational_function_identity(self):
        e = parse_scalar("1/(x1*x2) - (1/x1)*(1/x2)", XY)
        assert is_identically_zero(e) is Verdict.ZERO

    def test_identically_zero_denominator(self):
        e = parse_scalar("1/(x1 - x1)", XY)
        with pytest.raises(DomainError):
            is_identically_zero(e)


# ---------------------------------------------------------------------------
# properties

coord_exprs = st.sampled_from([Coord(0), Coord(1)])
consts = st.integers(min_value=-4, max_value=4).map(lambda n: Const(q(n)))


def tree(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
        st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
        st.tuples(children, st.integers(min_value=0, max_value=3)).map(
            lambda be: be[0] ** be[1]),
    )


rational_exprs = st.recursive(coord_exprs | consts, tree, max_leaves=12)


@given(rational_exprs)
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(e):
    d01 = differentiate(differentiate(e, 0), 1)
    d10 = differentiate(differentiate(e, 1), 0)
    assert is_identically_zero(d01 - d10) is Verdict.ZERO


@given(rational_exprs)
@settings(max_examples=60, deadline=None)
def test_print_parse_roundtrip(e):
    text = format_expr(e, XY)
    back = parse_scalar(text, XY)
    assert is_identically_zero(e - back) is Verdict.ZERO


def test_derivative_matches_finite_difference():
    rng = random.Random(2024)
    h = 1e-5
    checked = 0
    while checked < 100:
        nterms = rng.randint(1, 4)
        e = expr.ZERO
        for _ in range(nterms):
            c = Const(q(rng.randint(-5, 5)))
            e = e + c * Coord(0) ** rng.randint(0, 3) * Coord(1) ** rng.randint(0, 3)
        i = rng.randint(0, 1)
        p = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
        exact = evaluate(differentiate(e, i), p, "float")
        if abs(exact) < 1e-3:
            continue  # keep the relative-error criterion meaningful
        shifted_up = list(p)
        shifted_dn = list(p)
        shifted_up[i] += h
        shifted_dn[i] -= h
        fd = (evaluate(e, shifted_up, "float") - evaluate(e, shifted_dn, "float")) / (2 * h)
        assert abs(fd - exact) <= 1e-5 * abs(exact)
        checked += 1


def test_simplify_rational_is_canonical():
    e = parse_scalar("(x1 + x2)*(x1 - x2) + x2^2", XY)
    s = expr.simplify_rational(e)
    assert format_expr(s, XY) == "x1^2"


def test_compiled_table_equals_entrywise_compile():
    # one callable per table returns, bit for bit, what each entry compiles to
    rng = random.Random(11)
    texts = [["0", "x1*x2 - 3/7", "exp(x1/2 - x2)"],
             ["log(2 + x2^2)/(1 + x1^2)", "0", "(x1 - x2)^3 + exp(x2)*x1"]]
    grid = tuple(tuple(parse_scalar(t, XY) for t in row) for row in texts)
    indices, table = expr.compile_symbols(grid)
    assert indices == ((0, 1), (0, 2), (1, 0), (1, 2))
    entries = [expr.compile_float(grid[i][j]) for i, j in indices]
    for _ in range(25):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert table(p) == tuple(fn(p) for fn in entries)


def test_compile_float_matches_evaluate():
    rng = random.Random(7)
    e = parse_scalar("(1 + x1^2 - x2)/(2 + x2^2) + exp(x1/2)", XY)
    fn = expr.compile_float(e)
    for _ in range(25):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert fn(p) == pytest.approx(evaluate(e, p, "float"), rel=1e-12)
