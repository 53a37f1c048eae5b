import itertools
import random
from fractions import Fraction

import pytest

from affineqe import expr as ex
from affineqe import geometry as geo
from affineqe.expr import Verdict, parse_scalar

X2 = ["x1", "x2"]
X3 = ["x1", "x2", "x3"]


def q(a, b=1):
    return Fraction(a, b)


def example_b1():
    # nonzero symbols 1/3/4/5 on a 3-dimensional chart
    entries = {
        (0, 1, 2): ex.const(1),
        (0, 2, 0): ex.const(3),
        (1, 2, 1): ex.const(4),
        (2, 2, 2): ex.const(5),
    }
    return geo.from_christoffel(X3, entries)


def type_b(c, m=2):
    """Symbols C_ij^k / x1 from {(i,j,k): Fraction}."""
    x1 = ex.coord(0)
    entries = {idx: ex.const(v) / x1 for idx, v in c.items()}
    return geo.from_christoffel(X2[:m] if m == 2 else X3, entries, excluded=[x1])


class TestLoadManifold:
    def test_flat_document(self):
        m = geo.load_manifold({"dim": 2, "coords": X2, "christoffel": {}})
        assert m.dim == 2
        assert m.gamma[0][0][0] == ex.ZERO

    def test_b1_document(self):
        doc = {
            "dim": 3,
            "coords": X3,
            "christoffel": {"1,2^3": "1", "1,3^1": "3", "2,3^2": "4", "3,3^3": "5"},
        }
        m = geo.load_manifold(doc)
        assert m.gamma[1][0][2] == ex.const(1)  # symmetrized copy
        assert m.gamma[2][2][2] == ex.const(5)

    def test_asymmetric_entry_rejected(self):
        doc = {
            "dim": 2,
            "coords": X2,
            "christoffel": {"1,2^1": "1", "2,1^1": "2"},
        }
        with pytest.raises(geo.ManifoldFormatError):
            geo.load_manifold(doc)

    def test_bad_dim(self):
        with pytest.raises(geo.ManifoldFormatError):
            geo.load_manifold({"dim": 1, "christoffel": {}})

    def test_parse_failure_propagates(self):
        with pytest.raises(ex.ExprSyntaxError):
            geo.load_manifold({"dim": 2, "coords": X2,
                               "christoffel": {"1,1^1": "x9"}})

    @pytest.mark.parametrize("doc", [
        {"dim": 2, "christoffel": ["1,1^1", "x1"]},
        {"dim": 2, "christoffel": {"1,1^1": 3}},
        {"dim": 2, "christoffel": {}, "excluded": 5},
        {"dim": 2, "coords": ["x1", "x1"], "christoffel": {"1,2^1": "x1"}},
    ], ids=["christoffel-not-object", "symbol-not-string", "excluded-not-list",
            "repeated-coordinate"])
    def test_malformed_document_rejected(self, doc):
        with pytest.raises(geo.ManifoldFormatError):
            geo.load_manifold(doc)

    def test_excluded_locus_recorded(self):
        m = geo.load_manifold({"dim": 2, "coords": X2,
                               "christoffel": {"1,1^1": "-1/x1"},
                               "excluded": ["x1"]})
        with pytest.raises(geo.ExcludedLocusError):
            m.check_point((q(0), q(1)))

    def test_document_roundtrip(self):
        m = example_b1()
        again = geo.load_manifold(geo.manifold_document(m))
        assert again.gamma == m.gamma


class TestCurvature:
    def test_flat_is_zero(self):
        r = geo.curvature(geo.flat_manifold(2))
        assert geo.tensor_zero_verdict(r) is Verdict.ZERO

    def test_antisymmetry_in_first_slots(self):
        r = geo.curvature(example_b1())
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        v = ex.is_identically_zero(r.comp(i, j, k, l) + r.comp(j, i, k, l))
                        assert v is Verdict.ZERO

    def test_trace_matches_ricci_on_b1(self):
        m = example_b1()
        r = geo.curvature(m)
        rho = geo.ricci(m).full
        for j in range(3):
            for k in range(3):
                traced = ex.add(*[r.comp(i, j, k, i) for i in range(3)])
                assert ex.is_identically_zero(traced - rho.comp(j, k)) is Verdict.ZERO

    def test_inverse_wall_connection_scales_as_inverse_square(self):
        # every symbol is c/x1, so each curvature component is const/x1^2
        m = type_b({(0, 1, 0): q(1), (1, 1, 1): q(2), (0, 0, 1): q(1)})
        r = geo.curvature(m)
        x1sq = ex.powi(ex.coord(0), 2)
        seen_nonzero = False
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        scaled = ex.simplify_rational(r.comp(i, j, k, l) * x1sq)
                        assert ex.max_coord_index(scaled) == -1  # constant
                        if scaled != ex.ZERO:
                            seen_nonzero = True
        assert seen_nonzero

    def test_single_diagonal_wall_symbol_is_flat(self):
        m = type_b({(0, 0, 0): q(-1)})
        assert geo.tensor_zero_verdict(geo.curvature(m)) is Verdict.ZERO


class TestRicci:
    def test_b1_printed_value(self):
        rho = geo.ricci(example_b1()).full
        expected = {(0, 1): q(5), (1, 0): q(5), (2, 2): q(10)}
        for j in range(3):
            for k in range(3):
                want = ex.const(expected.get((j, k), 0))
                assert ex.is_identically_zero(rho.comp(j, k) - want) is Verdict.ZERO

    def test_flat_zero(self):
        parts = geo.ricci(geo.flat_manifold(3))
        assert geo.tensor_zero_verdict(parts.full) is Verdict.ZERO

    def test_split_is_exact(self):
        m = example_b1()
        parts = geo.ricci(m)
        for j in range(3):
            for k in range(3):
                total = parts.sym.comp(j, k) + parts.alt.comp(j, k)
                assert ex.is_identically_zero(total - parts.full.comp(j, k)) is Verdict.ZERO
                assert ex.is_identically_zero(
                    parts.sym.comp(j, k) - parts.sym.comp(k, j)) is Verdict.ZERO
                assert ex.is_identically_zero(
                    parts.alt.comp(j, k) + parts.alt.comp(k, j)) is Verdict.ZERO

    def test_sheared_flat_plane_has_alternating_part(self):
        # flat plane deformed by the non-closed 1-form x2 dx1
        x2 = ex.coord(1)
        m = geo.from_christoffel(X2, {
            (0, 0, 0): 2 * x2,
            (0, 1, 1): x2,
        })
        alt = geo.ricci(m).alt
        assert geo.tensor_zero_verdict(alt) is Verdict.NONZERO

    def test_negative_power_matches_quotient(self):
        # x1^-2 reaches the exact core as a negative power, 1/x1^2 as a quotient
        def chart(symbol):
            return geo.load_manifold({"dim": 2, "excluded": ["x1"],
                                      "christoffel": {"1,1^1": symbol, "1,2^2": symbol}})

        power = geo.ricci(chart("x1^-2")).full
        quotient = geo.ricci(chart("1/x1^2")).full
        assert geo.tensor_zero_verdict(power) is Verdict.NONZERO
        assert geo.tensor_zero_verdict(geo.tensor_sub(power, quotient)) is Verdict.ZERO


class TestHessian:
    def test_flat_product_function(self):
        m = geo.flat_manifold(2)
        h = geo.hessian(m, parse_scalar("x1*x2", X2))
        assert ex.is_identically_zero(h.comp(0, 1) - ex.ONE) is Verdict.ZERO
        assert ex.is_identically_zero(h.comp(1, 0) - ex.ONE) is Verdict.ZERO
        assert ex.is_identically_zero(h.comp(0, 0)) is Verdict.ZERO

    def test_flat_linear_function(self):
        h = geo.hessian(geo.flat_manifold(2), ex.coord(0))
        assert geo.tensor_zero_verdict(h) is Verdict.ZERO

    def test_connection_term_sign(self):
        m = geo.from_christoffel(X2, {(0, 0, 0): ex.ONE})
        h = geo.hessian(m, ex.coord(0))
        assert ex.is_identically_zero(h.comp(0, 0) + ex.ONE) is Verdict.ZERO
        assert ex.is_identically_zero(h.comp(0, 1)) is Verdict.ZERO


def ea3_surface(g112=q(1), g122=q(1, 2), g222=q(1)):
    """Surface with vanishing first symbol row and constant second row."""
    return geo.from_christoffel(X2, {
        (0, 0, 1): ex.const(g112),
        (0, 1, 1): ex.const(g122),
        (1, 1, 1): ex.const(g222),
    })


def ea3_wall_deformation(g112=q(1), g122=q(1, 2), g222=q(1)):
    """The same surface deformed by the closed 1-form d(-log x1)."""
    x1 = ex.coord(0)
    return geo.from_christoffel(X2, {
        (0, 0, 0): ex.const(-2) / x1,
        (0, 1, 1): ex.const(g122) - 1 / x1,
        (0, 0, 1): ex.const(g112),
        (1, 1, 1): ex.const(g222),
    }, excluded=[x1])


class TestNablaRicci:
    def test_flat_zero(self):
        assert geo.tensor_zero_verdict(geo.nabla_ricci(geo.flat_manifold(2))) is Verdict.ZERO

    def test_constant_second_row_surface_is_parallel(self):
        assert geo.tensor_zero_verdict(geo.nabla_ricci(ea3_surface())) is Verdict.ZERO

    def test_wall_deformation_value(self):
        m = ea3_surface()
        rho11 = geo.ricci(m).full.comp(0, 0)  # constant 3/4 for these parameters
        deformed = ea3_wall_deformation()
        nr = geo.nabla_ricci(deformed)
        want = ex.simplify_rational(4 * rho11 / ex.coord(0))
        assert ex.is_identically_zero(nr.comp(0, 0, 0) - want) is Verdict.ZERO
        for idx in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1), (1, 0, 1), (1, 1, 0)]:
            assert ex.is_identically_zero(nr.comp(*idx)) is Verdict.ZERO


class TestTensorShape:
    def test_rank_is_the_grid_depth(self):
        m = example_b1()
        parts = geo.ricci(m)
        assert geo.curvature(m).rank == 4
        assert (parts.full.rank, parts.sym.rank, parts.alt.rank) == (2, 2, 2)
        assert geo.nabla_ricci(m).rank == 3

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_tensor_map_is_the_componentwise_fill(self, rank):
        x1, x2 = ex.coord(0), ex.coord(1)
        shape = (2,) * rank
        a = geo.tensor_from(shape, lambda *idx: ex.const(sum(idx)) * x1)
        b = geo.tensor_from(shape, lambda *idx: ex.const(idx[0] - idx[-1]) + x2)
        c = geo.tensor_from(shape, lambda *idx: x1 ** (1 + idx[-1]))
        assert geo.tensor_map(lambda u, v: u * v, a, b) == geo.tensor_from(
            shape, lambda *idx: a.comp(*idx) * b.comp(*idx))
        mapped = geo.tensor_map(lambda u, v, w: u + v - w, a, b, c)
        assert mapped == geo.tensor_from(
            shape, lambda *idx: a.comp(*idx) + b.comp(*idx) - c.comp(*idx))
        assert mapped.rank == rank
        # components are visited in row-major order, by tensor_map and leaves alike
        seen = []
        geo.tensor_map(lambda u: seen.append(u) or u, c)
        row_major = [c.comp(*idx) for idx in itertools.product(range(2), repeat=rank)]
        assert seen == list(geo.leaves(c)) == row_major


class TestTotallySymmetric:
    def test_symmetric_pair(self):
        t = geo.tensor_from((2, 2), lambda i, j: ex.ONE if i != j else ex.ZERO)
        assert geo.is_totally_symmetric(t) is Verdict.ZERO

    def test_antisymmetric_pair(self):
        t = geo.tensor_from((2, 2),
                            lambda i, j: ex.const(j - i))
        assert geo.is_totally_symmetric(t) is Verdict.NONZERO

    def test_curvature_rank_is_rejected(self):
        with pytest.raises(ValueError):
            geo.is_totally_symmetric(geo.curvature(example_b1()))

    def test_nabla_ricci_of_projectively_flat_surface(self):
        m = ea3_surface()
        assert geo.is_totally_symmetric(geo.ricci(m).full) is Verdict.ZERO
        assert geo.is_totally_symmetric(geo.nabla_ricci(m)) is Verdict.ZERO


class TestQEOperator:
    def test_flat_constant(self):
        m = geo.flat_manifold(2)
        res = geo.apply_qe_operator(m, q(7), ex.ONE)
        assert geo.tensor_zero_verdict(res) is Verdict.ZERO

    def test_exponential_yamabe_solution(self):
        m = geo.from_christoffel(X2, {
            (0, 0, 0): ex.ONE,
            (0, 1, 1): ex.const(q(1, 2)),
        })
        res = geo.apply_qe_operator(m, q(0), parse_scalar("exp(x1)", X2))
        assert geo.tensor_zero_verdict(res) is Verdict.NUMERIC_ONLY

    def test_log_solution_on_wall_chart(self):
        m = type_b({(0, 0, 0): q(-1), (0, 0, 1): q(1), (0, 1, 1): q(1), (1, 1, 1): q(2)})
        res = geo.apply_qe_operator(m, q(0), parse_scalar("log(x1)", X2))
        # the log differentiates away, so the verdict upgrades to an exact zero
        assert geo.tensor_zero_verdict(res) is Verdict.ZERO

    def test_definition_matches_parts(self):
        m = example_b1()
        f = parse_scalar("x1^2 - x3", X3)
        mu = q(-3, 5)
        res = geo.apply_qe_operator(m, mu, f)
        hess = geo.hessian(m, f)
        rho_s = geo.ricci(m).sym
        for i in range(3):
            for j in range(3):
                want = hess.comp(i, j) - mu * f * rho_s.comp(i, j)
                assert ex.is_identically_zero(res.comp(i, j) - want) is Verdict.ZERO


def is_affine_killing(m, field) -> Verdict:
    """Verdict on the componentwise affine-Killing equation for a vector field."""
    n = m.dim
    dfield = [[ex.differentiate(field[l], i) for l in range(n)] for i in range(n)]
    verdicts = []
    for i, j, k in itertools.product(range(n), repeat=3):
        total = ex.differentiate(dfield[j][k], i)
        for l in range(n):
            total = total + field[l] * ex.differentiate(m.gamma[i][j][k], l) \
                + dfield[i][l] * m.gamma[l][j][k] + dfield[j][l] * m.gamma[i][l][k] \
                - dfield[l][k] * m.gamma[i][j][l]
        verdicts.append(ex.is_identically_zero(total))
    return ex.combine_verdicts(verdicts)


class TestAffineKilling:
    def test_flat_translation(self):
        m = geo.flat_manifold(2)
        assert is_affine_killing(m, [ex.ONE, ex.ZERO]) is Verdict.ZERO

    def test_flat_linear_field(self):
        m = geo.flat_manifold(2)
        assert is_affine_killing(m, [ex.ZERO, ex.coord(0)]) is Verdict.ZERO

    def test_flat_quadratic_field_fails(self):
        m = geo.flat_manifold(2)
        field = [ex.powi(ex.coord(0), 2), ex.ZERO]
        assert is_affine_killing(m, field) is Verdict.NONZERO

    def test_translations_preserve_constant_symbols(self):
        m = example_b1()
        for direction in range(3):
            field = [ex.ONE if i == direction else ex.ZERO for i in range(3)]
            assert is_affine_killing(m, field) is Verdict.ZERO


class TestInvariants:
    def test_trace_consistency_random_manifolds(self):
        rng = random.Random(101)
        for _ in range(50):
            entries = {}
            for i in range(2):
                for j in range(i, 2):
                    for k in range(2):
                        if rng.random() < 0.7:
                            c0 = q(rng.randint(-3, 3), rng.randint(1, 3))
                            c1 = q(rng.randint(-2, 2), rng.randint(1, 3))
                            entries[(i, j, k)] = ex.const(c0) + ex.const(c1) * ex.coord(rng.randint(0, 1))
            m = geo.from_christoffel(X2, entries)
            r = geo.curvature(m)
            rho = geo.ricci(m).full
            for j in range(2):
                for k in range(2):
                    traced = ex.add(*[r.comp(i, j, k, i) for i in range(2)])
                    assert ex.is_identically_zero(traced - rho.comp(j, k)) is Verdict.ZERO

    def test_killing_invariance_on_b1_span(self):
        # translations map eigen-solutions to eigen-solutions
        m = example_b1()
        mu = q(-3, 5)
        span = [parse_scalar("exp(3*x3)", X3), parse_scalar("x1*exp(3*x3)", X3)]
        for f in span:
            assert geo.tensor_zero_verdict(
                geo.apply_qe_operator(m, mu, f)) is Verdict.NUMERIC_ONLY
            for direction in range(3):
                xf = ex.differentiate(f, direction)
                res = geo.apply_qe_operator(m, mu, xf)
                verdict = geo.tensor_zero_verdict(res)
                assert verdict in (Verdict.ZERO, Verdict.NUMERIC_ONLY)
