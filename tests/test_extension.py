import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affineqe import catalog as cat
from affineqe import expr as ex
from affineqe import extension as xt
from affineqe import geometry as geo
from affineqe import projective as pj
from affineqe import qe_solver as qs
from affineqe.expr import Verdict
from affineqe.poly import RationalFunc


def q(a, b=1):
    return Fraction(a, b)


FLAT2 = geo.flat_manifold(2)


@pytest.fixture(autouse=True)
def fresh_shared_connection():
    # the identities and the QE residual share the chart of the last metric
    # asked for; start every test without one so call counts do not depend
    # on which test ran before
    xt._shared_connection.cache_clear()


def signature_at(metric, point) -> tuple:
    """(positive, negative) eigenvalue counts of the metric at a point."""
    values = ex.evaluate([entry for row in metric.components for entry in row], point)
    eigenvalues = np.linalg.eigvalsh(np.array(values, float).reshape(metric.n, metric.n))
    return int(np.sum(eigenvalues > 0)), int(np.sum(eigenvalues < 0))


class TestDeformedExtension:
    def test_flat_zero_deformation(self):
        metric = xt.deformed_extension(FLAT2)
        assert metric.n == 4
        for a in range(2):
            for b in range(2):
                assert metric.comp(a, b) == ex.ZERO
                assert metric.comp(2 + a, 2 + b) == ex.ZERO
        assert metric.comp(0, 2) == ex.ONE
        assert metric.comp(1, 3) == ex.ONE
        assert metric.comp(0, 3) == ex.ZERO

    def test_exp3d_fiber_linear_block(self):
        metric = xt.deformed_extension(cat.exp3d_model())
        names = metric.coords
        assert ex.format_expr(metric.comp(0, 1), names) == "(-2)*y3"
        assert ex.format_expr(metric.comp(0, 2), names) == "(-6)*y1"
        assert ex.format_expr(metric.comp(2, 2), names) == "(-10)*y3"

    def test_constant_deformation_block(self):
        phi = [[ex.ONE, ex.ZERO], [ex.ZERO, ex.ZERO]]
        metric = xt.deformed_extension(FLAT2, phi)
        assert metric.comp(0, 0) == ex.ONE
        assert metric.comp(1, 1) == ex.ZERO

    def test_asymmetric_deformation_rejected(self):
        phi = [[ex.ZERO, ex.ONE], [ex.ZERO, ex.ZERO]]
        with pytest.raises(ValueError):
            xt.deformed_extension(FLAT2, phi)

    def test_neutral_signature(self):
        rng = random.Random(14)
        metric = xt.deformed_extension(cat.exp3d_model(),
                                       xt.random_symmetric_phi(3, rng))
        point = [0.2, -0.4, 0.3, 0.1, 0.5, -0.2]
        assert signature_at(metric, point) == (3, 3)
        # at an exact point the components are exact and rounded for the eigenvalues
        exact = [q(1, 5), q(-2, 5), q(3, 10), q(1, 10), q(1, 2), q(-1, 5)]
        assert signature_at(metric, exact) == (3, 3)

class TestLeviCivita:
    def test_flat_extension_has_zero_symbols(self):
        conn = xt.levi_civita(xt.deformed_extension(FLAT2))
        assert all(conn.gamma[i][j][k] == ex.ZERO
                   for i in range(4) for j in range(4) for k in range(4))

    def test_block_inverse_is_exact(self):
        rng = random.Random(2)
        metric = xt.deformed_extension(cat.exp3d_model(),
                                       xt.random_symmetric_phi(3, rng))
        inverse = xt.inverse_metric(metric)
        for a in range(6):
            for b in range(6):
                total = ex.ZERO
                for c in range(6):
                    total = total + metric.comp(a, c) * inverse[c][b]
                want = ex.ONE if a == b else ex.ZERO
                assert ex.is_identically_zero(total - want) is Verdict.ZERO

    def test_compatibility_and_torsion_random_metrics(self):
        rng = random.Random(10)
        manifolds = [FLAT2, cat.exp3d_model(),
                     cat.wall_dim1_surface(1).manifold(),
                     cat.exp_surface(0, q(1, 2), 0).manifold()]
        metrics = [xt.deformed_extension(base, xt.random_symmetric_phi(base.dim, rng))
                   for base in manifolds * 5]
        # Phi entries equal in value but not as pairs: the symbols take the full loop
        g12 = ex.parse_scalar("(x1^2 - 1)/(x1 - 1)", ["x1", "x2"])
        x1, x2 = ex.coord(0), ex.coord(1)
        unmirrored = xt.deformed_extension(FLAT2, [[x2, g12], [x1 + 1, x1 * x2]])
        for metric in metrics + [unmirrored]:
            conn = xt.levi_civita(metric)
            n = metric.n
            for i in range(n):
                for j in range(i + 1, n):
                    if metric is not unmirrored:
                        assert conn.gamma[i][j] == conn.gamma[j][i]
                        continue
                    # torsion-free in value: the full-loop symbols need not be equal trees
                    for a, b in zip(conn.gamma[i][j], conn.gamma[j][i]):
                        assert ex.is_identically_zero(a - b) is Verdict.ZERO
            # d_k g_ij - G_ki^l g_lj - G_kj^l g_il
            residual = geo.covariant_derivative(conn, geo.TensorField(metric.components))
            assert geo.tensor_zero_verdict(residual) is Verdict.ZERO


class TestPullbackIdentities:
    def test_flat_linear_function(self):
        residuals = xt.extension_identities_residuals(FLAT2, None, ex.coord(0))
        assert geo.tensor_zero_verdict(residuals.hessian_defect) is Verdict.ZERO
        assert geo.tensor_zero_verdict(residuals.ricci_defect) is Verdict.ZERO
        assert ex.is_identically_zero(residuals.null_gradient) is Verdict.ZERO

    def test_exp3d_with_random_deformations(self):
        rng = random.Random(42)
        base = cat.exp3d_model()
        f = ex.coord(0) * ex.coord(2)
        for _ in range(3):
            phi = xt.random_symmetric_phi(3, rng)
            residuals = xt.extension_identities_residuals(base, phi, f)
            assert geo.tensor_zero_verdict(residuals.hessian_defect) is Verdict.ZERO
            assert geo.tensor_zero_verdict(residuals.ricci_defect) is Verdict.ZERO
            assert ex.is_identically_zero(residuals.null_gradient) is Verdict.ZERO

    def test_wall_chart_ricci_defect(self):
        base = cat.wall_dim1_surface(1).manifold()
        residuals = xt.extension_identities_residuals(base, None, ex.coord(0))
        assert geo.tensor_zero_verdict(residuals.ricci_defect) is Verdict.ZERO

    def test_derived_geometry_is_computed_once(self, monkeypatch):
        # one Ricci per manifold (the base and the Levi-Civita chart) and one
        # inverse for the extension metric
        ricci_calls, inverse_calls = [], []
        ricci, inverse = geo.ricci, xt.inverse_metric
        monkeypatch.setattr(geo, "ricci", lambda m: ricci_calls.append(m) or ricci(m))
        monkeypatch.setattr(xt, "inverse_metric",
                            lambda g: inverse_calls.append(g) or inverse(g))
        base = cat.exp3d_model()
        xt.extension_identities_residuals(base, None, ex.coord(0))
        assert sorted(m.dim for m in ricci_calls) == [3, 6]
        assert len(inverse_calls) == 1

    def test_extension_ricci_is_fiber_independent(self):
        rng = random.Random(3)
        base = cat.exp3d_model()
        metric = xt.deformed_extension(base, xt.random_symmetric_phi(3, rng))
        rho = geo.ricci(xt.levi_civita(metric)).full
        for a in range(6):
            for b in range(6):
                for k in range(3):
                    d = ex.differentiate(rho.comp(a, b), 3 + k)
                    assert ex.is_identically_zero(d) is Verdict.ZERO


class TestOneConnectionPerMetric:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = xt.levi_civita
        monkeypatch.setattr(xt, "levi_civita", lambda g: calls.append(g) or build(g))
        return calls

    def test_identities_and_qe_residual_share_one_build(self, builds):
        # the request `extend --mu` makes: two deformed_extension calls give
        # two metric objects of one value
        base = cat.exp3d_model()
        phi = xt.random_symmetric_phi(3, random.Random(21))
        f = ex.exp(3 * ex.coord(2))
        xt.extension_identities_residuals(base, phi, f)
        psi, qe_mu = xt.soliton_potential(f, q(-3, 5))
        metric = xt.deformed_extension(base, phi)
        assert metric is not builds[0] and metric == builds[0]
        residual = xt.quasi_einstein_residual(metric, psi, qe_mu, 0)
        assert geo.tensor_zero_verdict(residual) is Verdict.ZERO
        assert len(builds) == 1

    def test_another_phi_builds_again(self, builds):
        base = cat.exp3d_model()
        rng = random.Random(22)
        xt.extension_identities_residuals(base, xt.random_symmetric_phi(3, rng), ex.coord(0))
        metric = xt.deformed_extension(base, xt.random_symmetric_phi(3, rng))
        xt.quasi_einstein_residual(metric, ex.ZERO, q(1, 2), 0)
        assert len(builds) == 2 and builds[0] != builds[1]

    def test_another_excluded_locus_builds_again(self, builds):
        # equal coordinates and components: the key is the whole value
        metric = xt.deformed_extension(FLAT2)
        walled = dataclasses.replace(metric, excluded=(ex.coord(0),))
        xt.quasi_einstein_residual(metric, ex.ZERO, q(1, 2), 0)
        xt.quasi_einstein_residual(walled, ex.ZERO, q(1, 2), 0)
        assert len(builds) == 2

    def test_direct_builds_are_not_shared(self, builds):
        metric = xt.deformed_extension(cat.exp3d_model())
        first, second = xt.levi_civita(metric), xt.levi_civita(metric)
        assert len(builds) == 2 and first is not second


class TestQuasiEinstein:
    @pytest.mark.parametrize("text", ["1/(x1 - x1)", "x2*exp(x1) + 1/(x2 - x2)",
                                      "exp(x1/(x1 - x1))"])
    def test_undefined_functions_are_rejected(self, text):
        f = ex.parse_scalar(text, ["x1", "x2", "x3"])
        with pytest.raises(ex.DomainError, match="denominator is identically zero"):
            xt.soliton_potential(f, q(-3, 5))
        with pytest.raises(ex.DomainError, match="denominator is identically zero"):
            xt.extension_identities_residuals(cat.exp3d_model(), None, f)

    def test_flat_trivial(self):
        metric = xt.deformed_extension(FLAT2)
        residual = xt.quasi_einstein_residual(metric, ex.ZERO, q(1, 2), 0)
        assert geo.tensor_zero_verdict(residual) is Verdict.ZERO

    def test_exp3d_exponential_solution(self):
        # f = exp(3 x3) solves the eigen-equation at -3/5, so the potential
        # -(2/(-3/5)) log f = 10 x3 solves the metric equation at -3/10
        psi, qe_mu = xt.soliton_potential(ex.exp(3 * ex.coord(2)), q(-3, 5))
        assert ex.format_expr(psi) == "10*x3"
        assert qe_mu == q(-3, 10)
        metric = xt.deformed_extension(cat.exp3d_model())
        residual = xt.quasi_einstein_residual(metric, psi, qe_mu, 0)
        assert geo.tensor_zero_verdict(residual) is Verdict.ZERO
        rng = random.Random(8)
        points = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(20)]
        assert xt.sample_residual(residual, points) < 1e-8

    def test_surface_exponential_solution(self):
        # e^{2x1} solves the surface eigen-equation at 8 on the exp family
        base = cat.exp_surface(0, q(1, 2), 0).manifold()
        check = geo.apply_qe_operator(base, q(8), ex.exp(2 * ex.coord(0)))
        assert geo.tensor_zero_verdict(check) is Verdict.NUMERIC_ONLY
        psi, qe_mu = xt.soliton_potential(ex.exp(2 * ex.coord(0)), q(8))
        assert qe_mu == q(4)
        rng = random.Random(9)
        metric = xt.deformed_extension(base, xt.random_symmetric_phi(2, rng))
        residual = xt.quasi_einstein_residual(metric, psi, qe_mu, 0)
        assert geo.tensor_zero_verdict(residual) is Verdict.ZERO

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            xt.soliton_potential(ex.exp(ex.coord(0)), 0)

    def test_nonzero_lambda_breaks_flat_case(self):
        metric = xt.deformed_extension(FLAT2)
        residual = xt.quasi_einstein_residual(metric, ex.ZERO, q(1, 2), q(1))
        assert geo.tensor_zero_verdict(residual) is Verdict.NONZERO


# ----------------------------------------------------------------------------
# references: the dense formulas, every term formed on trees


def reference_ricci(m):
    """rho_jk by the traced display over every symbol, zero or not."""

    def rho_jk(j, k):
        total = ex.ZERO
        for i in range(m.dim):
            total = total + ex.differentiate(m.gamma[j][k][i], i) \
                - ex.differentiate(m.gamma[i][k][i], j)
            for n in range(m.dim):
                total = total + m.gamma[i][n][i] * m.gamma[j][k][n] \
                    - m.gamma[j][n][i] * m.gamma[i][k][n]
        return ex.simplify_rational(total)

    return tuple(tuple(rho_jk(j, k) for k in range(m.dim)) for j in range(m.dim))


def reference_hessian(m, f):
    df = [ex.differentiate(f, k) for k in range(m.dim)]

    def fill(i, j):
        total = ex.differentiate(df[j], i)
        for k in range(m.dim):
            total = total - m.gamma[i][j][k] * df[k]
        return ex.simplify_rational(total)

    return tuple(tuple(fill(i, j) for j in range(m.dim)) for i in range(m.dim))


def reference_levi_civita(metric):
    """Koszul symbols summed on trees, one bracket per (i, j, k, l)."""
    n = metric.n
    inverse = metric.inverse
    dgrid = [[[ex.differentiate(metric.comp(j, l), i) for l in range(n)]
              for j in range(n)] for i in range(n)]

    def fill(i, j, k):
        total = ex.ZERO
        for l in range(n):
            if inverse[k][l] == ex.ZERO:
                continue
            bracket = dgrid[i][j][l] + dgrid[j][i][l] - dgrid[l][i][j]
            if bracket == ex.ZERO:
                continue
            total = total + inverse[k][l] * bracket
        return ex.simplify_rational(q(1, 2) * total)

    return tuple(tuple(tuple(fill(i, j, k) for k in range(n))
                       for j in range(n)) for i in range(n))


def reference_ricci_split(full):
    """The symmetric and antisymmetric parts as the eager split formed them."""
    half = Fraction(1, 2)
    rho = full.components
    shape = (len(rho),) * 2
    sym = geo.tensor_from(shape, lambda j, k: ex.simplify_rational(half * (rho[j][k] + rho[k][j])))
    alt = geo.tensor_from(shape, lambda j, k: ex.simplify_rational(half * (rho[j][k] - rho[k][j])))
    return sym, alt


def wall_chart():
    # the README wall chart
    return geo.load_manifold({"dim": 2, "coords": ["x1", "x2"],
                              "christoffel": {"1,1^1": "3/x1", "1,2^2": "1/x1",
                                              "2,2^1": "1/x1"},
                              "excluded": ["x1"]})


def wall_extension():
    # the README wall chart, deformed by Phi_11 = x2 and Phi_12 = 1/x1
    x1, x2 = ex.coord(0), ex.coord(1)
    return xt.deformed_extension(wall_chart(), [[x2, ex.ONE / x1], [ex.ONE / x1, ex.ZERO]])


def exp_log_chart():
    x1, x2 = ex.coord(0), ex.coord(1)
    return geo.from_christoffel(("x1", "x2"), {(0, 0, 0): ex.const(q(-1, 2)) * ex.exp(x2),
                                               (0, 1, 1): x1 / 2,
                                               (1, 1, 0): ex.const(q(-1, 2))})


def exp_log_metric():
    # a deformed extension with exp/log entries in its xx-block: the tower path
    x1, x2 = ex.coord(0), ex.coord(1)
    return xt.deformed_extension(exp_log_chart(), [[ex.exp(x1 - x2), x2 * ex.exp(x1)],
                                                   [x2 * ex.exp(x1), ex.log(2 + x1 * x1)]])


def deformed_plane(potential):
    return pj.deform(FLAT2, pj.ProjectiveChange.from_potential(potential, 2))


def assert_agree_in_value(got, want, nvars):
    """Two grids of trees take equal values, to rounding, at seeded float points."""
    got, want = (ex.compile_float(geo.leaves(geo.TensorField(t))) for t in (got, want))
    rng = random.Random(5)
    for _ in range(5):
        point = ex.random_float_point(nvars, rng)
        with ex.float_faults():
            assert ex.finite(got(point)) == pytest.approx(ex.finite(want(point)),
                                                          rel=1e-9, abs=1e-9)


class TestSparseGeometryMatchesDense:
    """Levi-Civita, Ricci and Hessians over nonzero symbols only give the dense
    formulas' trees."""

    def check_trees(self, metric, f, symbols_in_value=False):
        conn = xt.levi_civita(metric)
        if symbols_in_value:
            # exp/log symbols are canonical trees over the tower's atoms, not the tree sums
            assert_agree_in_value(conn.gamma, reference_levi_civita(metric), metric.n)
        else:
            assert conn.gamma == reference_levi_civita(metric)
        assert geo.ricci(conn).full.components == reference_ricci(conn)
        assert geo.hessian(conn, f).components == reference_hessian(conn, f)

    def test_exp3d_extensions(self):
        rng = random.Random(11)
        base = cat.exp3d_model()
        f = ex.coord(0) * ex.exp(3 * ex.coord(2))
        for _ in range(10):
            self.check_trees(xt.deformed_extension(base, xt.random_symmetric_phi(3, rng)), f)

    def test_wall_extension(self):
        self.check_trees(wall_extension(), ex.coord(0) ** 2 * ex.exp(ex.coord(1)))

    def test_exp_log_metric(self):
        self.check_trees(exp_log_metric(), ex.coord(0) * ex.coord(3), symbols_in_value=True)

    def test_exp_plane_and_its_extension(self):
        plane = deformed_plane(ex.exp(ex.coord(0) - ex.coord(1)) / 2)
        f = ex.exp(ex.coord(1))
        assert geo.ricci(plane).full.components == reference_ricci(plane)
        assert geo.hessian(plane, f).components == reference_hessian(plane, f)
        self.check_trees(xt.deformed_extension(plane), f, symbols_in_value=True)

    def test_non_monomial_denominators_agree_in_value(self):
        # a RationalFunc quotient is not reduced by a polynomial GCD, so these
        # symbols may take another form than the tree sum; their values agree
        x1, x2 = ex.coord(0), ex.coord(1)
        metric = xt.deformed_extension(deformed_plane(x1 * x2 / (1 + x2 * x2)),
                                       [[x2, x1], [x1, ex.ZERO]])
        got = geo.leaves(geo.TensorField(xt.levi_civita(metric).gamma))
        want = geo.leaves(geo.TensorField(reference_levi_civita(metric)))
        rng = random.Random(5)
        for _ in range(5):
            point = ex.random_rational_point(4, rng)
            assert [ex.evaluate(e, point) for e in got] == \
                [ex.evaluate(e, point) for e in want]


class TestSymmetricSymbolsBuiltOnce:
    """A rational metric symmetric as pairs builds the symbols of (i, j), i <= j,
    and shares them with (j, i); the trees are those of the dense all-pairs sums."""

    @pytest.mark.parametrize("base", [cat.exp3d_model(), wall_chart()], ids=["exp3d", "wall"])
    def test_seeded_deformed_extensions(self, base):
        rng = random.Random(23)
        for _ in range(25):
            metric = xt.deformed_extension(base, xt.random_symmetric_phi(base.dim, rng))
            conn = xt.levi_civita(metric)
            assert conn.gamma == reference_levi_civita(metric)
            assert all(conn.gamma[j][i] is conn.gamma[i][j]
                       for i in range(metric.n) for j in range(i))

    def test_entries_equal_in_value_but_not_as_pairs_take_the_full_loop(self):
        x1, x2 = ex.coord(0), ex.coord(1)
        g12 = ex.parse_scalar("(x1^2 - 1)/(x1 - 1)", ["x1", "x2"])
        g21 = x1 + 1
        assert ex.to_ratfunc(g12) != ex.to_ratfunc(g21)
        metric = xt.deformed_extension(FLAT2, [[x2, g12], [g21, x1 * x2]])
        conn = xt.levi_civita(metric)
        assert conn.gamma[1][0] is not conn.gamma[0][1]
        assert conn.gamma == reference_levi_civita(metric)


def dense_levi_civita(metric):
    """The dense Koszul sum in the metric's tower: every derivative d_i g_jl of the
    2m grid, every bracket, and the closed-form inverse's nonzero entries in l order."""
    n = metric.n
    g, tower = metric.rows, metric.tower
    zero, one, half = (RationalFunc.const(c) for c in (0, 1, q(1, 2)))
    inverse = xt._block_grid(n // 2, lambda a, b: zero, lambda a, b: -g[a][b], one, zero)
    dgrid = [[[tower.diff(g[j][l], i) for l in range(n)] for j in range(n)] for i in range(n)]

    def symbols(i, j):
        bracket = [dgrid[i][j][l] + dgrid[j][i][l] - dgrid[l][i][j] for l in range(n)]
        nonzero = [l for l in range(n) if not bracket[l].is_zero]

        def fill(k):
            total = sum((inverse[k][l] * bracket[l] for l in nonzero
                         if not inverse[k][l].is_zero), zero)
            return ex.from_ratfunc(half * total, tower)

        return tuple(fill(k) for k in range(n))

    return tuple(tuple(symbols(i, j) for j in range(n)) for i in range(n))


def assert_metric_compatible(metric, gamma):
    """d_c g_ab = G_ca^d g_db + G_cb^d g_ad, exactly in the metric's tower: no Koszul sum."""
    n, g, tower = metric.n, metric.rows, metric.tower
    zero = RationalFunc.const(0)
    symbols = [[[ex.to_ratfunc(s, tower=tower) for s in row] for row in plane] for plane in gamma]
    for c in range(n):
        for a in range(n):
            for b in range(n):
                # terms over one denominator are summed first: unreduced pairs of
                # polynomial denominators multiply them when they differ
                terms = {}
                for d in range(n):
                    for symbol, entry in ((symbols[c][a][d], g[d][b]), (symbols[c][b][d], g[a][d])):
                        if not (symbol.is_zero or entry.is_zero):
                            term = -(symbol * entry)
                            terms[term.den] = terms.get(term.den, zero) + term
                total = sum(terms.values(), tower.diff(g[a][b], c))
                assert total.is_zero, (c, a, b)


def polynomial_denominator_extension(rng):
    # the plane deformed by x1*x2/(1 + x2^2): Gamma and Phi over 1 + x2^2 and its powers
    x1, x2 = ex.coord(0), ex.coord(1)
    phi = xt.random_symmetric_phi(2, rng)
    phi[0][1] = phi[1][0] = phi[0][1] + x2 / (1 + x2 * x2)
    return xt.deformed_extension(deformed_plane(x1 * x2 / (1 + x2 * x2)), phi)


def exp_log_extension(rng):
    x1, x2 = ex.coord(0), ex.coord(1)
    phi = xt.random_symmetric_phi(2, rng)
    phi[0][0] = phi[0][0] + ex.exp(x1 - x2)
    phi[0][1] = phi[1][0] = phi[0][1] * ex.exp(x1)
    phi[1][1] = phi[1][1] + ex.log(2 + x1 * x1)
    return xt.deformed_extension(exp_log_chart(), phi)


def shared_denominator_extension(rng):
    # constant symbols and Phi over 1 + x1 and (1 + x1)^2: a bracket shares its denominator
    # with one Sigma_l term and not the other, so the order of the sum fixes the pairs
    x1 = ex.coord(0)
    phi = xt.random_symmetric_phi(2, rng)
    phi[0][0] = phi[0][0] + ex.ONE / (1 + x1)
    phi[0][1] = phi[1][0] = phi[0][1] + ex.ONE / (1 + x1) ** 2
    return xt.deformed_extension(random_chart("typeA", rng), phi)


SEEDED_EXTENSIONS = {
    "exp3d": lambda rng: xt.deformed_extension(cat.exp3d_model(), xt.random_symmetric_phi(3, rng)),
    "wall": lambda rng: xt.deformed_extension(wall_chart(), xt.random_symmetric_phi(2, rng)),
    "polynomial_denominators": polynomial_denominator_extension,
    "exp_log": exp_log_extension,
    "shared_denominators": shared_denominator_extension,
}


class TestStructuralSymbolsAreTheDenseSums:
    """`levi_civita` forms only a deformed extension's structural nonzeros; its trees are
    the dense Koszul sum's, tree for tree, on non-homogeneous charts too, and its symbols
    are metric-compatible exactly in the metric's tower."""

    @given(st.sampled_from(sorted(SEEDED_EXTENSIONS)), st.integers(0, 2**16))
    @example("shared_denominators", 0)
    @example("polynomial_denominators", 0)
    @settings(max_examples=40, deadline=None)
    def test_seeded_extensions_give_the_dense_trees(self, chart, seed):
        metric = SEEDED_EXTENSIONS[chart](random.Random(seed))
        conn = xt.levi_civita(metric)
        assert conn.gamma == dense_levi_civita(metric)
        n = metric.n
        assert all(conn.gamma[j][i] is conn.gamma[i][j] for i in range(n) for j in range(i))

    @pytest.mark.parametrize("chart", sorted(SEEDED_EXTENSIONS))
    def test_seeded_extensions_are_metric_compatible(self, chart):
        rng = random.Random(43)
        for _ in range(2):
            metric = SEEDED_EXTENSIONS[chart](rng)
            assert_metric_compatible(metric, xt.levi_civita(metric).gamma)

    def test_polynomial_denominators_agree_with_the_tree_sums_at_exact_points(self):
        # a quotient is not reduced by a polynomial GCD, so the trees may differ
        metric = SEEDED_EXTENSIONS["polynomial_denominators"](random.Random(42))
        got, want = (geo.leaves(geo.TensorField(t)) for t in
                     (xt.levi_civita(metric).gamma, reference_levi_civita(metric)))
        rng = random.Random(5)
        for _ in range(3):
            point = ex.random_rational_point(metric.n, rng)
            assert ex.evaluate(got, point) == ex.evaluate(want, point)

    def test_exp_log_data_agrees_with_the_tree_sums_in_value(self):
        # exp/log symbols are canonical trees over the tower's atoms
        metric = SEEDED_EXTENSIONS["exp_log"](random.Random(42))
        assert_agree_in_value(xt.levi_civita(metric).gamma, reference_levi_civita(metric),
                              metric.n)

    def test_entries_equal_only_in_value_keep_their_own_pairs(self):
        x1, x2 = ex.coord(0), ex.coord(1)
        g12 = ex.parse_scalar("(x1^2 - 1)/(x1 - 1)", ["x1", "x2"])
        for chart, corner in ((FLAT2, x1 * x2), (wall_chart(), ex.ONE / x1)):
            metric = xt.deformed_extension(chart, [[x2, g12], [x1 + 1, corner]])
            conn = xt.levi_civita(metric)
            assert conn.gamma == dense_levi_civita(metric)
            assert conn.gamma[1][0] != conn.gamma[0][1]
            assert_metric_compatible(metric, conn.gamma)


SIX = {"c11_1": 1, "c11_2": -1, "c12_1": q(1, 2), "c12_2": 2, "c22_1": 0, "c22_2": 3}
CATALOG_PARAMS = {"typeA": SIX, "typeB": SIX, "family3d": {"x": 1, "y": 2, "z": -1, "w": 3}}


class TestLazyRicciSplit:
    """sym and alt, built on first read, are the trees the eager split built."""

    def check_split(self, m):
        parts = geo.ricci(m)
        sym, alt = reference_ricci_split(parts.full)
        assert (parts.sym, parts.alt) == (sym, alt)

    @pytest.mark.parametrize("kind", cat.MODEL_KINDS)
    def test_catalog_models(self, kind):
        self.check_split(cat.build_model(kind, CATALOG_PARAMS.get(kind)))

    def test_exp_log_chart(self):
        self.check_split(deformed_plane(ex.exp(ex.coord(0) - ex.coord(1)) / 2))

    def test_exp3d_extensions(self):
        rng = random.Random(12)
        base = cat.exp3d_model()
        for _ in range(5):
            metric = xt.deformed_extension(base, xt.random_symmetric_phi(3, rng))
            self.check_split(xt.levi_civita(metric))

    def test_solution_dimension_never_builds_the_alternating_part(self):
        # rho_s is summed in the jet system's tower: a solve builds no tree Ricci at all
        m = cat.exp3d_model()
        assert qs.solution_dimension(m, q(-3, 5), (0, 0, 0)).dim == 2
        assert "ricci_parts" not in vars(m)


# ----------------------------------------------------------------------------
# the exact chain against the tree formulas it replaced: every xx entry summed
# on trees and put into exact form on its own, the closed-form inverse negating
# those trees, and the Koszul sums converting both tree grids back


def tree_deformed_extension(manifold, phi):
    m = manifold.dim

    def fill(a, b):
        if a < m and b < m:
            total = ex.as_expr(phi[a][b])
            for k in range(m):
                total = total - 2 * ex.coord(m + k) * manifold.gamma[a][b][k]
            return ex.simplify_rational(total)
        return ex.ONE if abs(a - b) == m else ex.ZERO

    return tuple(tuple(fill(a, b) for b in range(2 * m)) for a in range(2 * m))


def tree_inverse(metric):
    n = metric.n
    m = n // 2

    def fill(a, b):
        if a >= m and b >= m:
            return ex.simplify_rational(ex.neg(metric.comp(a - m, b - m)))
        return ex.ONE if abs(a - b) == m else ex.ZERO

    return tuple(tuple(fill(a, b) for b in range(n)) for a in range(n))


def tree_levi_civita(metric):
    n = metric.n
    grids = (metric.components, tree_inverse(metric))
    rational = all(e.rational_only for grid in grids for row in grid for e in row)
    if rational:
        convert, rebuild, diff = ex.to_ratfunc, ex.from_ratfunc, (lambda e, i: e.diff(i))
    else:
        convert, rebuild, diff = (lambda e: e), ex.simplify_rational, ex.differentiate
    g, inverse = ([[convert(e) for e in row] for row in grid] for grid in grids)
    zero, half = convert(ex.ZERO), convert(ex.const(q(1, 2)))
    dgrid = [[[diff(g[j][l], i) for l in range(n)] for j in range(n)] for i in range(n)]

    def fill(i, j, k):
        total = zero
        for l in range(n):
            bracket = dgrid[i][j][l] + dgrid[j][i][l] - dgrid[l][i][j]
            if bracket != zero and inverse[k][l] != zero:
                total = total + inverse[k][l] * bracket
        return rebuild(half * total)

    return tuple(tuple(tuple(fill(i, j, k) for k in range(n)) for j in range(n))
                 for i in range(n))


def random_chart(kind, rng):
    names = ("c11_1", "c11_2", "c12_1", "c12_2", "c22_1", "c22_2")
    return cat.build_model(kind, {name: q(rng.randint(-6, 6), rng.randint(1, 3))
                                  for name in names})


class TestExactChainGivesTheTreeFormulasTrees:
    """deformed_extension, its inverse and levi_civita on RationalFunc rows give
    the trees, as `==` and as printed, of the formulas summed on trees."""

    def check_metric(self, metric, components):
        pairs = [(metric.components, components),
                 (metric.inverse, tree_inverse(metric)),
                 (xt.levi_civita(metric).gamma, tree_levi_civita(metric))]
        for got, want in pairs:
            assert got == want
            got_leaves, want_leaves = (geo.leaves(geo.TensorField(t)) for t in (got, want))
            assert [ex.format_expr(e) for e in got_leaves] == \
                [ex.format_expr(e) for e in want_leaves]

    def check(self, manifold, phi):
        self.check_metric(xt.deformed_extension(manifold, phi),
                          tree_deformed_extension(manifold, phi))

    def with_quotients(self, manifold, rng):
        # entries whose denominators are not monomials, beside monomial ones
        x1, x2 = ex.coord(0), ex.coord(1)
        phi = xt.random_symmetric_phi(manifold.dim, rng)
        phi[0][1] = phi[1][0] = phi[0][1] + ex.ONE / (x1 + 2)
        phi[1][1] = phi[1][1] + x2 / x1
        phi[0][0] = ex.ONE / (x1 + 2) + x2 * ex.coord(manifold.dim - 1)
        return phi

    def test_exp3d(self):
        rng = random.Random(31)
        for _ in range(4):
            self.check(cat.exp3d_model(), xt.random_symmetric_phi(3, rng))
            self.check(cat.exp3d_model(), self.with_quotients(cat.exp3d_model(), rng))

    @pytest.mark.parametrize("kind", ["typeA", "typeB"])
    def test_random_charts(self, kind):
        rng = random.Random(32)
        for _ in range(4):
            chart = random_chart(kind, rng)
            self.check(chart, xt.random_symmetric_phi(2, rng))
            self.check(chart, self.with_quotients(chart, rng))

    @pytest.mark.parametrize("sign, c", [(1, q(1, 2)), (-1, q(-1, 3)), (1, 2)])
    def test_wall_projflat_surfaces(self, sign, c):
        rng = random.Random(33)
        chart = cat.wall_projflat_surface(sign, c).manifold()
        self.check(chart, xt.random_symmetric_phi(2, rng))
        self.check(chart, self.with_quotients(chart, rng))

    def test_exp_log_phi_agrees_in_value(self):
        # exp/log entries are canonical trees over the tower's atoms: equal in value
        x1, x2, x3 = ex.coord(0), ex.coord(1), ex.coord(2)
        phi = [[ex.exp(x1 - x2) + x1 / (x2 + 3), ex.log(2 + x1 * x1), ex.ZERO],
               [ex.log(2 + x1 * x1), x3 * ex.exp(x2), x1],
               [ex.ZERO, x1, ex.ONE / (x1 + 2)]]
        metric = xt.deformed_extension(cat.exp3d_model(), phi)
        assert metric.tower.atoms == [ex.exp(x1 - x2), ex.log(2 + x1 * x1), ex.exp(x2)]
        pairs = [(metric.components, tree_deformed_extension(cat.exp3d_model(), phi)),
                 (metric.inverse, tree_inverse(metric)),
                 (xt.levi_civita(metric).gamma, tree_levi_civita(metric))]
        for got, want in pairs:
            assert_agree_in_value(got, want, metric.n)
