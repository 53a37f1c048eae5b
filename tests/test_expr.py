import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineqe import expr
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
        v = evaluate(d, (0.5, 0.0))
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
        assert evaluate(e, (0.0, 0.0)) == pytest.approx(1.0)

    def test_mode_follows_the_point(self):
        e = parse_scalar("3/x1 + x2", XY)
        for point in ((2, 1), (q(2), q(1)), (2, q(1))):
            value = evaluate(e, point)
            assert type(value) is Fraction and value == q(5, 2)
        for point in ((2.0, 1), (q(2), 1.0)):
            value = evaluate(e, point)
            assert type(value) is float and value == 2.5

    def test_exact_mode_rejects_exp(self):
        for point in ((q(0), q(0)), (0, 0)):
            with pytest.raises(ExactModeError):
                evaluate(parse_scalar("exp(x1)", XY), point)

    def test_division_by_zero(self):
        for point in ((q(0), q(1)), (0.0, 1.0), (0.0, q(1))):
            with pytest.raises(DomainError):
                evaluate(parse_scalar("3/x1", XY), point)

    def test_log_domain(self):
        with pytest.raises(DomainError, match="log of a non-positive value"):
            evaluate(parse_scalar("log(x1)", XY), (-1.0,))
        # compiled code goes through the same fault rule
        compiled = expr.compile_float(parse_scalar("log(x1)", XY))
        with pytest.raises(DomainError, match="log of a non-positive value"), expr.float_faults():
            compiled((-1.0,))

    def test_float_faults_are_domain_errors(self):
        with pytest.raises(DomainError, match="overflow"):
            evaluate(parse_scalar("x1^3", XY), (1e120,))
        for point in ((0.0,), (q(0),)):
            with pytest.raises(DomainError):
                evaluate(parse_scalar("x1^-2", XY), point)


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

    def test_constant_exp_tree_is_sampled_in_floats(self):
        # a tree without coordinates still samples at a float point
        assert is_identically_zero(parse_scalar("exp(1)*exp(-1) - 1", XY)) \
            is Verdict.NUMERIC_ONLY
        assert is_identically_zero(parse_scalar("exp(1) - 2", XY)) is Verdict.NONZERO

    def test_cancellation_of_large_terms_is_not_certified(self):
        # the terms reach e^40, so their float sum cancels only to rounding
        # error far above an absolute 1e-9; a NONZERO here would be false
        e = parse_scalar("3*x2*exp(20*x1) - 3*x2*exp(10*x1)^2"
                         " + exp(10*x1)*exp(10*x1) - exp(20*x1)", XY)
        assert is_identically_zero(e) is Verdict.NUMERIC_ONLY

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
    rng = random.Random(7)
    e = parse_scalar("(1 + x1^2 - x2)/(2 + x2^2) + exp(x1/2)", XY)
    fn = expr.compile_float(e)
    for _ in range(25):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert fn(p) == pytest.approx(evaluate(e, p), rel=1e-12)


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
