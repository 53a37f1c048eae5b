import builtins
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineqe import expr, geometry, qe_solver
from affineqe.expr import (
    ONE,
    ZERO,
    Add,
    Coord,
    Const,
    Div,
    DomainError,
    ExactModeError,
    ExprSyntaxError,
    Mul,
    UnknownIdentifierError,
    Verdict,
    add,
    as_expr,
    differentiate,
    div,
    evaluate,
    format_expr,
    is_identically_zero,
    mul,
    neg,
    parse_scalar,
    powi,
    to_ratfunc,
)
from affineqe.poly import Poly, RationalFunc, mono_gcd

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

    @pytest.mark.parametrize("opening, wrap", [("(", lambda e: e), ("exp(", expr.exp),
                                               ("log(", expr.log)])
    def test_nesting_is_capped_at_200_levels(self, opening, wrap):
        built = Coord(0)
        for _ in range(200):
            built = wrap(built)
        assert parse_scalar(opening * 200 + "x1" + ")" * 200, XY) == built
        with pytest.raises(ExprSyntaxError, match="nesting deeper than 200 levels"):
            parse_scalar(opening * 201 + "x1" + ")" * 201, XY)

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
        v = expr.compile_float(d)((0.5, 0.0))
        assert v == pytest.approx(2 * math.exp(1.0))

    def test_log(self):
        d = differentiate(parse_scalar("log(x1)", XY), 0)
        assert evaluate(d, (4.0, 0.0)) == pytest.approx(0.25)

    def test_rational_only_preserved(self):
        e = parse_scalar("(x1 + x2)^3 / (1 + x1^2)", XY)
        assert differentiate(e, 0).rational_only


class TestEvaluate:
    def test_exact_fraction(self):
        e = parse_scalar("3/x1", XY)
        assert evaluate(e, (q(2), q(0))) == q(3, 2)

    def test_float_exp(self):
        e = parse_scalar("exp(x1)", XY)
        assert expr.compile_float(e)((0.0, 0.0)) == 1.0

    def test_a_float_coordinate_reads_as_its_dyadic_value(self):
        e = parse_scalar("3/x1 + x2", XY)
        for point in ((2, 1), (q(2), q(1)), (2, q(1)), (2.0, 1), (q(2), 1.0)):
            value = evaluate(e, point)
            assert type(value) is Fraction and value == q(5, 2)
        # 0.1 is the double nearest 1/10, not 1/10 itself
        value = evaluate(e, (0.1, 0.0))
        assert type(value) is Fraction and value == 3 / Fraction(0.1) != 30

    def test_exact_mode_rejects_exp(self):
        for point in ((q(0), q(0)), (0, 0), (0.0, 0.0)):
            for text in ("exp(x1)", "x2 + log(1 + x1^2)"):
                with pytest.raises(ExactModeError):
                    evaluate(parse_scalar(text, XY), point)

    def test_division_by_zero(self):
        for point in ((q(0), q(1)), (0.0, 1.0), (0.0, q(1))):
            with pytest.raises(DomainError):
                evaluate(parse_scalar("3/x1", XY), point)

    def test_a_coordinate_that_is_not_finite_is_a_domain_error(self):
        # inf and nan have no exact value; a guarded chart's solve reads them at its guards,
        # an unguarded chart's exact solve at its basepoint
        wall = geometry.from_christoffel(XY, {(0, 0, 0): parse_scalar("1/x1", XY)},
                                         excluded=[parse_scalar("x1", XY)])
        for c in (math.inf, math.nan):
            with pytest.raises(DomainError, match="not finite"):
                evaluate(parse_scalar("x1 + x2", XY), (c, 0.0))
            with pytest.raises(DomainError, match="not finite"):
                wall.check_point((c, 0.0))
            with pytest.raises(DomainError, match="not finite"):
                qe_solver.solution_dimension(geometry.flat_manifold(2), -1, (c, 0.0))

    def test_log_domain(self):
        compiled = expr.compile_float(parse_scalar("log(x1)", XY))
        for point in ((-1.0,), (0.0,)):
            with pytest.raises(DomainError, match="log of a non-positive value"), \
                    expr.float_faults():
                compiled(point)

    def test_float_faults_are_domain_errors(self):
        with pytest.raises(DomainError, match="overflow"), expr.float_faults():
            expr.compile_float(parse_scalar("x1^3", XY))((1e120,))
        with pytest.raises(DomainError, match="pole"), expr.float_faults():
            expr.compile_float(parse_scalar("x1^-2", XY))((0.0,))
        # a constant past the float range overflows as it compiles
        with pytest.raises(DomainError, match="float overflow"), expr.float_faults():
            expr.compile_float(parse_scalar("10^400*x1", XY))
        # the exact walk has no float fault, only poles
        assert evaluate(parse_scalar("x1^3", XY), (1e120,)) == Fraction(1e120) ** 3
        for point in ((0.0,), (q(0),)):
            with pytest.raises(DomainError, match="pole"):
                evaluate(parse_scalar("x1^-2", XY), point)

    def test_non_finite_float_values_are_domain_errors(self):
        # + and * overflow to inf and inf - inf is nan, with no float exception
        for text in ("exp(400 + x1)*exp(400 + x2)", "exp(709 + x1) + exp(709 + x2)",
                     "exp(400 + x1)*exp(400 + x2) - exp(400 + x2)*exp(400 + x1)"):
            with pytest.raises(DomainError, match="float overflow"), expr.float_faults():
                expr.finite([expr.compile_float(parse_scalar(text, XY))((0.5, 0.5))])
        # values whose magnitudes overflow when summed, as a sampled sum would
        big = parse_scalar("exp(709 + x1)", XY)
        with pytest.raises(DomainError, match="float overflow"), expr.float_faults():
            expr.finite(expr.compile_float([big, big])((0.5,)))
        with expr.float_faults():
            assert expr.finite(expr.compile_float([big])((0.5,))) == (math.exp(709.5),)


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

    def test_overflowing_samples_are_skipped(self):
        # the product overflows at most samples: an inf sample used to count as a zero one
        e = parse_scalar("exp(400 + x1)*exp(400 + x2) - 1", XY)
        assert is_identically_zero(e) is Verdict.NONZERO

    def test_exp_nonzero(self):
        e = parse_scalar("exp(x1) - 1 - x1", XY)
        assert is_identically_zero(e) is Verdict.NONZERO

    def test_constant_exp_tree_is_sampled_in_floats(self):
        # a tree without coordinates is sampled too, at the empty point
        assert is_identically_zero(parse_scalar("exp(1)*exp(-1) - 1", XY)) \
            is Verdict.NUMERIC_ONLY
        assert is_identically_zero(parse_scalar("exp(1) - 2", XY)) is Verdict.NONZERO

    def test_cancellation_of_large_terms_is_not_certified(self):
        # the terms reach e^40, so their float sum cancels only to rounding
        # error far above an absolute 1e-9; a NONZERO here would be false
        e = parse_scalar("3*x2*exp(20*x1) - 3*x2*exp(10*x1)^2"
                         " + exp(10*x1)*exp(10*x1) - exp(20*x1)", XY)
        assert is_identically_zero(e) is Verdict.NUMERIC_ONLY

    def test_rounding_inside_an_exp_tree_is_not_a_nonzero(self):
        # exp(60*x1) swallows x2 in floats, so every sample reads nonzero; the tree is
        # zero as a polynomial in its tower, and that is a proof
        e = parse_scalar("(exp(60*x1) + x2 - exp(60*x1))^2 - x2^2", XY)
        assert is_identically_zero(e) is Verdict.ZERO
        assert is_identically_zero(parse_scalar("exp(x1) - x1", XY)) is Verdict.NONZERO

    def test_nonzero_of_the_size_of_large_terms(self):
        e = parse_scalar("x2*exp(20*x1) - exp(20*x1)", XY)
        assert is_identically_zero(e) is Verdict.NONZERO

    def test_rational_function_identity(self):
        e = parse_scalar("1/(x1*x2) - (1/x1)*(1/x2)", XY)
        assert is_identically_zero(e) is Verdict.ZERO

    def test_log_identity_skips_samples_off_its_domain(self):
        e = parse_scalar("log(x1) + log(x2) - log(x1*x2)", XY)
        assert is_identically_zero(e) is Verdict.NUMERIC_ONLY

    def test_positive_orthant_retry(self, monkeypatch):
        # x1 > 2 lies outside the first sampling box [-2, 2]
        orthants = []
        draw = expr.random_float_point

        def recording(nvars, rng, positive=False):
            orthants.append(positive)
            return draw(nvars, rng, positive)

        monkeypatch.setattr(expr, "random_float_point", recording)
        e = parse_scalar("log(x1 - 2) - log(x1 - 2)", XY)
        assert is_identically_zero(e) is Verdict.NUMERIC_ONLY
        assert orthants[0] is False and orthants[-1] is True
        assert is_identically_zero(parse_scalar("log(x1 - 2)", XY)) is Verdict.NONZERO

    @pytest.mark.parametrize("offset", [3, 100])
    def test_sampling_boxes_widen_away_from_the_origin(self, offset):
        # x1 > offset lies outside both unit boxes; the scaled boxes reach it
        e = parse_scalar(f"log(x1 - {offset})", XY)
        assert is_identically_zero(e) is Verdict.NONZERO
        assert is_identically_zero(e - e) is Verdict.NUMERIC_ONLY

    def test_expression_defined_nowhere(self):
        with pytest.raises(DomainError, match="could not be sampled anywhere"):
            is_identically_zero(parse_scalar("log(-1 - x1^2)", XY))

    def test_a_constant_past_the_float_range_is_sampled_nowhere(self):
        # 10^400 overflows as the tree compiles, so no point can be sampled
        e = parse_scalar("exp(x2)*1" + "0" * 400, XY)
        with pytest.raises(DomainError, match="could not be sampled anywhere"):
            is_identically_zero(e)

    def test_each_sampled_tree_compiles_once(self, monkeypatch):
        # one float callable of the top-level terms serves every sample point
        compiled, walked = [], []
        compile_float, walk = expr.compile_float, expr.evaluate
        monkeypatch.setattr(expr, "compile_float", lambda e: compiled.append(e) or compile_float(e))
        monkeypatch.setattr(expr, "evaluate", lambda *args: walked.append(args) or walk(*args))
        trees = [parse_scalar(text, XY) for text in (
            "exp(x1)*exp(-x1) - 1", "exp(x1) - 1 - x1", "log(x1 - 3)", "exp(1) - 2")]
        verdicts = [is_identically_zero(e) for e in trees]
        assert verdicts == [Verdict.NUMERIC_ONLY] + [Verdict.NONZERO] * 3
        assert compiled == [e.terms if isinstance(e, Add) else (e,) for e in trees]
        assert walked == []

    def test_identically_zero_denominator(self):
        e = parse_scalar("1/(x1 - x1)", XY)
        with pytest.raises(DomainError):
            is_identically_zero(e)

    def test_constant_zero_tests_draw_nothing(self, monkeypatch):
        # a constant's verdict is its value: from the first call on, no constant zero-test
        # builds a random.Random or draws a check point
        monkeypatch.setattr(expr, "_CHECK_POINTS", {})
        draws, points = [], []
        generator, drawn = expr.random.Random, expr.random_rational_point
        monkeypatch.setattr(expr.random, "Random",
                            lambda seed: draws.append(seed) or generator(seed))
        monkeypatch.setattr(expr, "random_rational_point",
                            lambda *args: points.append(args) or drawn(*args))
        assert is_identically_zero(expr.ZERO) is Verdict.ZERO
        assert is_identically_zero(parse_scalar("2 - 2", XY)) is Verdict.ZERO
        assert is_identically_zero(parse_scalar("3*(1/3) - 1", XY)) is Verdict.ZERO
        assert is_identically_zero(expr.const(q(-1, 3))) is Verdict.NONZERO
        assert draws == [] and points == [] and expr._CHECK_POINTS == {}
        # a nonconstant tree's point is drawn once per coordinate count, as before
        assert is_identically_zero(parse_scalar("x1*x2 - x2*x1", XY)) is Verdict.ZERO
        assert len(draws) <= 1


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
        exact = evaluate(differentiate(e, i), p)
        if abs(exact) < 1e-3:
            continue  # keep the relative-error criterion meaningful
        shifted_up = list(p)
        shifted_dn = list(p)
        shifted_up[i] += h
        shifted_dn[i] -= h
        fd = (evaluate(e, shifted_up) - evaluate(e, shifted_dn)) / (2 * h)
        assert abs(fd - exact) <= 1e-5 * abs(exact)
        checked += 1


@pytest.mark.parametrize("text", ["exp(x1 - x2)", "log(x1*x1 + 2)", "x1*exp(3*x3)",
                                  "exp(-x1)", "log(x1)^2", "exp(x1/2)^2"])
def test_exp_log_print_parse_roundtrip(text):
    e = parse_scalar(text, ["x1", "x2", "x3"])
    assert parse_scalar(format_expr(e), ["x1", "x2", "x3"]) == e


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
    # rational trees against the exact value at the dyadic point, exp/log against math
    rng = random.Random(7)
    rational = parse_scalar("(1 + x1^2 - x2)/(2 + x2^2) - 3/7*x1*x2^3", XY)
    transcendental = parse_scalar("(1 + x1^2 - x2)/(2 + x2^2) + exp(x1/2)*log(3 + x2)", XY)
    rational_at, transcendental_at = map(expr.compile_float, (rational, transcendental))
    for _ in range(25):
        x, y = p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert rational_at(p) == pytest.approx(float(evaluate(rational, p)), rel=1e-12)
        want = (1 + x * x - y) / (2 + y * y) + math.exp(x / 2) * math.log(3 + y)
        assert transcendental_at(p) == pytest.approx(want, rel=1e-12)


def _nested_difference(levels):
    """x1 - (x1 - (... (x1 - 2))), which is 2 for an even number of levels."""
    return parse_scalar("x1 - (" * levels + "2" + ")" * levels, XY)


@pytest.mark.parametrize("levels", [100, 200])
def test_compile_float_of_a_tree_at_the_parsers_depth_cap(levels, monkeypatch):
    # the one emitted expression used to nest past CPython's 200 brackets
    sources = []
    monkeypatch.setattr(expr, "eval", lambda text, names: sources.append(text)
                        or builtins.eval(text, names), raising=False)
    e = _nested_difference(levels)
    for point in ((0.5, 0.0), (-3.0, 1.0)):
        assert expr.compile_float(e)(point) == pytest.approx(evaluate(e, point), rel=1e-12)
        assert expr.compile_float([e, e])(point) == (2.0, 2.0)
    for text in sources:
        depth = deepest = 0
        for char in text:
            depth += (char in "([") - (char in ")]")
            deepest = max(deepest, depth)
        # a bound local's text, its "(name := ...)" and the tuple that binds it
        assert deepest <= expr.NEST_BOUND + 3


def test_compile_float_binds_a_shared_deep_subtree_once():
    e = _nested_difference(100)
    alone = expr.compile_float(e).__code__.co_varnames
    assert len(alone) > 1
    assert expr.compile_float([e, e, e]).__code__.co_varnames == alone


def test_shallow_trees_compile_without_locals():
    e = parse_scalar("(1 + x1^2 - x2)/(2 + x2^2) + exp(x1/2)", XY)
    assert expr.compile_float(e).__code__.co_varnames == ("c",)
    assert expr.compile_float(_nested_difference(20)).__code__.co_varnames == ("c",)


# ---------------------------------------------------------------------------
# the constructors against their former Fraction-accumulator implementation

def ref_add(*terms):
    flat = []
    constant = Fraction(0)
    for term in terms:
        term = as_expr(term)
        for t in term.terms if isinstance(term, Add) else (term,):
            if isinstance(t, Const):
                constant += t.value
            else:
                flat.append(t)
    if constant:
        flat.append(Const(constant))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def ref_mul(*factors):
    flat = []
    constant = Fraction(1)
    for factor in factors:
        factor = as_expr(factor)
        for f in factor.factors if isinstance(factor, Mul) else (factor,):
            if isinstance(f, Const):
                constant *= f.value
                if not constant:
                    return ZERO
            else:
                flat.append(f)
    if not flat:
        return Const(constant)
    if constant != 1:
        flat.insert(0, Const(constant))
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def ref_neg(e):
    return ref_mul(Const(Fraction(-1)), e)


def ref_to_ratfunc(e):
    if isinstance(e, Const):
        return RationalFunc.const(e.value)
    if isinstance(e, Coord):
        return RationalFunc.coord(e.index)
    if isinstance(e, Add):
        result = RationalFunc.const(0)
        for term in e.terms:
            result = result + ref_to_ratfunc(term)
        return result
    if isinstance(e, Mul):
        result = RationalFunc.const(1)
        for factor in e.factors:
            result = result * ref_to_ratfunc(factor)
        return result
    if isinstance(e, Div):
        den = ref_to_ratfunc(e.den)
        if den.is_zero:
            raise DomainError("denominator is identically zero")
        return ref_to_ratfunc(e.num) / den
    try:
        return ref_to_ratfunc(e.base).pow(e.exponent)
    except ZeroDivisionError:
        raise DomainError("negative power of the identically-zero expression") from None


def assert_same_tree(new, ref):
    assert new == ref
    assert format_expr(new) == format_expr(ref)
    assert (new is ZERO) == (ref is ZERO)


def safe(build):
    def apply(args):
        try:
            return build(*args)
        except DomainError:  # a quotient by, or negative power of, a zero constant
            return args[0]
    return apply


# 0, +-1 and other constants, ZERO and ONE as well as equal copies of them
constructor_leaves = st.sampled_from(
    [Coord(0), Coord(1), ZERO, ONE, Const(q(0)), Const(q(1)), Const(q(-1)),
     Const(q(2)), Const(q(-3, 2)), Const(q(1, 3))])


def constructor_tree(children):
    lists = st.lists(children, min_size=1, max_size=4)
    return st.one_of(
        lists.map(lambda ts: add(*ts)),
        lists.map(lambda ts: mul(*ts)),
        children.map(neg),
        st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
        st.tuples(children, children).map(safe(div)),
        st.tuples(children, st.integers(min_value=-2, max_value=3)).map(safe(powi)),
    )


constructor_trees = st.recursive(constructor_leaves, constructor_tree, max_leaves=16)
operands = st.lists(constructor_trees | st.sampled_from([0, 1, -1, q(-1), q(5, 2)]),
                    max_size=4)


@given(operands)
@settings(max_examples=300, deadline=None)
def test_constructors_match_the_fraction_accumulators(ops):
    assert_same_tree(add(*ops), ref_add(*ops))
    assert_same_tree(mul(*ops), ref_mul(*ops))
    for op in ops:
        assert_same_tree(neg(as_expr(op)), ref_neg(as_expr(op)))


@given(constructor_trees)
@settings(max_examples=200, deadline=None)
def test_to_ratfunc_matches_the_constant_seeded_accumulators(e):
    try:
        ref = ref_to_ratfunc(e)
    except DomainError:
        with pytest.raises(DomainError):
            to_ratfunc(e)
        return
    assert_same_pair(to_ratfunc(e), ref)


def canonical_pair(num, den):
    """The canonical pair of num/den by the full procedure, with no shortcut."""
    if num.is_zero:
        return RationalFunc(Poly(), normalize=False)
    common = mono_gcd(num.monomial_content(), den.monomial_content())
    if common:
        num, den = num.shift_down(common), den.shift_down(common)
    scale = den.content() * den.leading_sign()
    if scale != 1:
        num, den = num.scale(1 / scale), den.scale(1 / scale)
    return RationalFunc(num, den, normalize=False)


def slow_add(a, b):
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.den == b.den:
        return canonical_pair(a.num + b.num, a.den)
    return canonical_pair(a.num * b.den + b.num * a.den, a.den * b.den)


def slow_sub(a, b):
    return slow_add(a, RationalFunc(-b.num, b.den, normalize=False))


def slow_mul(a, b):
    if a.is_zero or b.is_zero:
        return RationalFunc(Poly(), normalize=False)
    return canonical_pair(a.num * b.num, a.den * b.den)


def slow_diff(a, index):
    dn, dd = a.num.diff(index), a.den.diff(index)
    if dd.is_zero:
        return canonical_pair(dn, a.den)
    return canonical_pair(dn * a.den - a.num * dd, a.den * a.den)


def assert_same_pair(new, ref):
    assert new == ref
    assert list(new.num.terms.items()) == list(ref.num.terms.items())
    assert list(new.den.terms.items()) == list(ref.den.terms.items())


def ratfunc_or_none(e):
    try:
        return to_ratfunc(e)
    except DomainError:
        return None


pairs = (constructor_trees.map(ratfunc_or_none).filter(lambda rf: rf is not None)
         | st.sampled_from([0, 1, -1, q(5, 2), q(-1, 3)]).map(RationalFunc.const))


@given(pairs, pairs)
@settings(max_examples=300, deadline=None)
def test_ratfunc_fast_paths_match_the_normalize_always_reference(a, b):
    for operand in (a, b):
        assert_same_pair(operand, canonical_pair(operand.num, operand.den))
        one = RationalFunc.const(1)
        if not (operand.num.is_constant and operand.den.is_constant):  # else either may return
            assert operand * one is operand and one * operand is operand
        for index in (0, 1):
            assert_same_pair(operand.diff(index), slow_diff(operand, index))
    assert_same_pair(a + b, slow_add(a, b))
    assert_same_pair(a - b, slow_sub(a, b))
    assert_same_pair(a * b, slow_mul(a, b))
    assert_same_pair(b * a, slow_mul(b, a))


@given(constructor_trees)
@settings(max_examples=100, deadline=None)
def test_nodes_are_slotted_and_round_trip(e):
    nodes = [e, e + Coord(2), expr.exp(e), expr.log(e + ONE), Div(e, Coord(0)), powi(Coord(1), -2)]
    for node in nodes:
        assert not hasattr(node, "__dict__")
        assert pickle.loads(pickle.dumps(node)) == node
        assert copy.deepcopy(node) == node


# ---------------------------------------------------------------------------
# the zero-test against the judge as it was before the cross-check point was
# fixed per coordinate count and tensors shared its memos


def reference_zero_test(e):
    """A fresh generator, conversion and cross-check point for every tree."""
    rng = random.Random(0x5EED)
    if not e.rational_only:
        return expr._sample_verdict(e, rng)
    if to_ratfunc(e).is_zero:
        point = expr.random_rational_point(expr.max_coord_index(e) + 1, rng)
        try:
            if evaluate(e, point) != 0:
                raise AssertionError("canonical form disagrees with evaluation")
        except DomainError:
            pass
        return Verdict.ZERO
    return Verdict.NONZERO


def judged(judge, *args):
    """The verdict, or the type and text of what the judge raised."""
    try:
        return judge(*args)
    except (DomainError, AssertionError) as err:
        return type(err), str(err)


three_coords = st.sampled_from([Coord(0), Coord(1), Coord(2)])
# 1/(x1 - x1) and x2/(x3 - x3): identically undefined, found by the exact form
undefined = st.sampled_from([div(ONE, Coord(0) - Coord(0)), div(Coord(1), Coord(2) - Coord(2))])


def judged_tree(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
        st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
        st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
        st.tuples(children, children).map(lambda ab: div(ab[0], ab[1] * ab[1] + ONE)),
        st.tuples(children, st.integers(min_value=0, max_value=2)).map(lambda be: be[0] ** be[1]),
    )


judged_rational = st.recursive(three_coords | consts, judged_tree, max_leaves=8)
judged_exprs = st.one_of(
    judged_rational,
    st.tuples(judged_rational, judged_rational).map(lambda ab: ab[0] - ab[1] + ab[1] - ab[0]),
    st.tuples(judged_rational, judged_rational).map(lambda ab: expr.exp(ab[0] / 8) * ab[1]),
    st.tuples(judged_rational, judged_rational).map(
        lambda ab: expr.log(ab[0] * ab[0] + 1) - expr.log(ab[0] * ab[0] + 1) + ab[1] - ab[1]),
    st.tuples(judged_rational, undefined).map(lambda au: au[0] * au[1]),
    st.tuples(judged_rational, undefined).map(lambda au: au[0] + au[1] - au[1]),
)


@given(st.lists(judged_exprs, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_zero_test_judges_as_before(parts):
    # components that share subtrees, so the shared memos are read across them
    components = parts + [parts[0] - parts[-1], parts[-1] * parts[0] - parts[0] * parts[-1]]
    for e in components:
        assert judged(is_identically_zero, e) == judged(reference_zero_test, e)

    want, stop = Verdict.ZERO, len(components)
    for index, e in enumerate(components):
        verdict = judged(reference_zero_test, e)
        if not isinstance(verdict, Verdict) or verdict is Verdict.NONZERO:
            want, stop = verdict, index + 1
            break
        if verdict is Verdict.NUMERIC_ONLY:
            want = verdict
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr, "is_identically_zero",
                      lambda e, memos=None: calls.append(e) or is_identically_zero(e, memos))
        got = judged(geometry.tensor_zero_verdict, geometry.TensorField(tuple(components)))
    assert got == want
    assert calls == components[:stop]


def test_a_canonical_form_that_disagrees_with_its_cross_check_raises(monkeypatch):
    monkeypatch.setattr(expr, "to_ratfunc", lambda e, memo=None: RationalFunc.const(0))
    e = parse_scalar("x1*x2 - 1", XY)
    with pytest.raises(AssertionError, match="canonical form disagrees"):
        is_identically_zero(e)
    with pytest.raises(AssertionError, match="canonical form disagrees"):
        geometry.tensor_zero_verdict(geometry.TensorField((ZERO, e)))
