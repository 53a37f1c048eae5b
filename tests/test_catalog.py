import random
from fractions import Fraction

import pytest

from affineqe import catalog as cat
from affineqe import expr as ex
from affineqe import geometry as geo
from affineqe import projective as pj
from affineqe import qe_solver as qs
from affineqe.expr import Verdict


def q(a, b=1):
    return Fraction(a, b)


WALL_BASE = (q(1), q(0))
ORIGIN3 = (q(0), q(0), q(0))


class TestConstructors:
    def test_exp3d_symbols(self):
        m = cat.exp3d_model()
        assert m.gamma[0][1][2] == ex.const(1)
        assert m.gamma[2][0][0] == ex.const(3)
        assert m.gamma[1][2][1] == ex.const(4)
        assert m.gamma[2][2][2] == ex.const(5)

    def test_family3d_parameter_placement(self):
        m = cat.build_model("family3d", {"x": 1, "y": 0, "z": 0, "w": 0})
        assert m.gamma[0][0][0] == ex.ZERO            # z = 0
        assert m.gamma[0][2][0] == ex.const(1)        # x
        assert m.gamma[1][1][1] == ex.const(1)

    def test_wall_chart_has_excluded_wall(self):
        m = cat.build_model("typeB", {k: 0 for k in
                                      ("c11_1", "c11_2", "c12_1", "c12_2", "c22_1", "c22_2")})
        assert m.excluded == (ex.coord(0),)
        assert geo.tensor_zero_verdict(geo.curvature(m)) is Verdict.ZERO

    def test_incomplete_parameters_rejected(self):
        with pytest.raises(cat.RegimeError):
            cat.build_model("typeA", {"c11_1": 1})
        with pytest.raises(cat.RegimeError):
            cat.build_model("family3d", {"x": 1})
        with pytest.raises(cat.RegimeError):
            cat.build_model("wallEigenPair", {"c12_2": 0})

    def test_unknown_kind(self):
        with pytest.raises(cat.RegimeError):
            cat.build_model("septic", {})

    def test_wall_eigen_value_formula(self):
        surface = cat.wall_eigen_pair_surface(1, 1)   # pinned eigenvalue 1/2
        assert cat.wall_eigen_value(surface) == q(1, 2)


class TestExpectedDimension:
    def test_exp3d_table(self):
        assert cat.expected_dimension("exp3d", None, q(-3, 5)) == cat.Prediction.exact(2)
        assert cat.expected_dimension("exp3d", None, 0) == cat.Prediction.exact(1)
        assert cat.expected_dimension("exp3d", None, 1) == cat.Prediction.exact(0)

    @pytest.mark.parametrize("params,want", [
        ({"x": 1, "y": 0, "z": 0, "w": 0}, 0),
        ({"x": 1, "y": 0, "z": 2, "w": q(1, 4)}, 1),
        ({"x": 1, "y": 0, "z": 1, "w": 0}, 2),
        ({"x": 0, "y": 5, "z": 7, "w": -2}, 4),
    ])
    def test_family3d_cases(self, params, want):
        assert cat.expected_dimension("family3d", params, q(-1, 2)) \
            == cat.Prediction.exact(want)

    def test_family3d_other_eigenvalues_not_covered(self):
        pred = cat.expected_dimension("family3d", {"x": 1, "y": 0, "z": 0, "w": 0}, 1)
        assert pred.kind == "not-covered"
        assert pred.matches(17)

    def test_type_a_surface_eigenvalue(self):
        rng = random.Random(9)
        surface = cat.random_type_a(rng)
        assert cat.expected_dimension("typeA", surface.constants_dict(), -1) \
            == cat.Prediction.exact(3)

    def test_eigen_pair_family(self):
        params = {"eps": 1, "c12_2": 1}
        assert cat.expected_dimension("wallEigenPair", params, q(1, 2)) \
            == cat.Prediction.exact(2)
        for mu in (q(1, 3), 1, 2):
            assert cat.expected_dimension("wallEigenPair", params, mu) \
                == cat.Prediction.exact(0)

    def test_eigen_family_at_least_one(self):
        surface = cat.wall_eigen_surface(1, 0, 1, 0)
        mu = cat.wall_eigen_value(surface)
        pred = cat.expected_dimension("typeB", surface.constants_dict(), mu)
        assert pred.kind == "at-least" and pred.value == 1


class TestCrosscheck:
    def test_exp3d(self):
        report = cat.crosscheck("exp3d", None, q(-3, 5))
        assert (report.predicted.value, report.computed, report.agree) == (2, 2, True)

    def test_projflat_wall_representative(self):
        report = cat.crosscheck("wallProjFlat", {"eps": 1, "c12_2": 1}, -1)
        assert (report.predicted.value, report.computed, report.agree) == (3, 3, True)

    def test_flat_wall_chart(self):
        params = {k: 0 for k in ("c11_1", "c11_2", "c12_1", "c12_2", "c22_1", "c22_2")}
        report = cat.crosscheck("typeB", params, 5)
        assert (report.predicted.value, report.computed, report.agree) == (3, 3, True)

    def test_dim1_wall_representative(self):
        report = cat.crosscheck("wallDim1", {"c": 1}, -1)
        assert (report.predicted.value, report.computed, report.agree) == (1, 1, True)

    def test_yamabe_wall_cases(self):
        cases = [
            dict(c11_1=-1, c11_2=1, c12_1=0, c12_2=1, c22_1=0, c22_2=2),
            dict(c11_1=-2, c11_2=1, c12_1=0, c12_2=1, c22_1=0, c22_2=2),
            dict(c11_1=1, c11_2=0, c12_1=1, c12_2=0, c22_1=1, c22_2=0),
            dict(c11_1=2, c11_2=1, c12_1=1, c12_2=q(1, 2), c22_1=0, c22_2=0),
        ]
        for params in cases:
            report = cat.crosscheck("typeB", params, 0)
            assert report.agree and report.computed == 2


class TestTypeAPredictions:
    # constants with C_12^1 = C_22^1 = 0 (f(x1) solves) and C_11^2 = C_12^2 = 0
    # (f(x2) solves); the literal first-row rule once predicted 1 for both
    YAMABE_PAIRS = [
        {"c11_1": -1, "c11_2": 2, "c12_1": 0, "c12_2": -3, "c22_1": 0, "c22_2": -2},
        {"c11_1": -3, "c11_2": 0, "c12_1": 0, "c12_2": 0, "c22_1": -2, "c22_2": -2},
    ]

    @pytest.mark.parametrize("params", YAMABE_PAIRS)
    def test_null_hessian_pair_at_mu_zero(self, params):
        report = cat.crosscheck("typeA", params, 0)
        assert report.predicted == cat.Prediction.exact(2)
        assert (report.computed, report.agree) == (2, True)

    def test_mu_zero_agrees_with_solver_on_seeded_draws(self):
        rng = random.Random(61)
        kinds = set()
        for _ in range(25):
            surface = cat.random_type_a(rng)
            report = cat.crosscheck("typeA", surface.constants_dict(), 0)
            assert report.agree
            kinds.add(report.predicted.kind)
            if report.predicted.kind == "exact":
                assert parallel_pair_exists(surface)  # the test-side oracle
        assert kinds == {"exact", "at-least"}

    def test_generic_eigenvalues_follow_the_ricci_rank(self):
        # random draws have Ricci rank 2 (dim 0), the exp normal form rank 1 (dim 2)
        rng = random.Random(62)
        dims = set()
        for _ in range(6):
            second = [cat.random_constant(rng) for _ in range(3)]
            for surface in (cat.random_type_a(rng), cat.exp_surface(*second)):
                for report in cat.crosschecks("typeA", surface.constants_dict(), [q(1, 2), 2]):
                    assert report.predicted.kind == "exact" and report.agree
                    dims.add(report.computed)
        assert {0, 2} <= dims


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("c11_2", [q(1), q(1, 2)])
def test_mixed_eigen_pair_at_its_eigenvalue(eps, c11_2):
    surface = cat.wall_eigen_pair_mixed_surface(eps, c11_2)
    mu = cat.wall_eigen_pair_mixed_value(surface)
    report = cat.crosscheck("wallEigenPairMixed", {"eps": eps, "c11_2": c11_2}, mu)
    assert (report.predicted, report.computed) == (cat.Prediction.exact(2), 2)


class TestSweep:
    def test_family3d_grid_never_three(self):
        grid = [{"x": x, "y": 0, "z": z, "w": w}
                for x in (0, 1) for z in (0, 1, 2) for w in (0, q(1, 4))]
        result = cat.sweep("family3d", grid, [q(-1, 2)])
        assert result.violations == []
        assert result.dims == {0, 1, 2, 4}
        assert 3 not in result.dims

    def test_type_a_rank_dichotomy_sweep(self):
        rng = random.Random(13)
        grid = [cat.random_type_a(rng).constants_dict() for _ in range(15)]
        result = cat.sweep("typeA", grid, [q(1, 2), 2])
        assert result.violations == []
        assert result.dims <= {0, 2}

    def test_wall_surfaces_no_dim_two_at_surface_eigenvalue(self):
        rng = random.Random(77)
        grid = [cat.random_type_b(rng).constants_dict() for _ in range(40)]
        result = cat.sweep("typeB", grid, [-1])
        assert result.violations == []
        assert result.dims <= {0, 1, 3}


class TestAlphaInvariant:
    def test_reference_value(self):
        m = cat.exp_surface(0, q(1, 2), 0).manifold()
        alpha = cat.alpha_invariant(m)
        assert ex.is_identically_zero(alpha - ex.const(16)) is Verdict.ZERO

    def test_closed_formula_across_parameters(self):
        for c11_2, c12_2, c22_2 in [(0, q(1, 3), 0), (1, q(1, 2), 1), (q(1, 2), 2, -1)]:
            denom = c12_2 - c12_2 ** 2 + c11_2 * c22_2
            if denom == 0:
                continue
            m = cat.exp_surface(c11_2, c12_2, c22_2).manifold()
            alpha = cat.alpha_invariant(m)
            assert ex.is_identically_zero(alpha - ex.const(Fraction(4, 1) / denom)) \
                is Verdict.ZERO

    def test_regime_guards(self):
        with pytest.raises(cat.RegimeError):
            cat.alpha_invariant(geo.flat_manifold(2))       # rho_11 identically zero
        with pytest.raises(cat.RegimeError):
            cat.alpha_invariant(cat.exp3d_model())          # rho_11 = 0 there as well

    def test_deformation_ratio_matches_closed_form(self):
        # deform by dg with g = -log(a + e^{x1}); the invariant picks up
        # the factor (a - e^{x1})^2 (a + e^{x1})^{-2}
        a = 1
        m = cat.exp_surface(0, q(1, 2), 0).manifold()
        alpha = cat.alpha_invariant(m)
        g = ex.neg(ex.log(a + ex.exp(ex.coord(0))))
        deformed = pj.deform(m, pj.ProjectiveChange.from_potential(g, 2))
        alpha_deformed = cat.alpha_invariant(deformed)
        expected_ratio = ex.parse_scalar(
            "(1 - exp(x1))^2 * (1 + exp(x1))^-2", ["x1", "x2"])
        values_at = ex.compile_float([alpha_deformed, alpha, expected_ratio])
        rng = random.Random(5)
        for _ in range(5):
            p = [rng.uniform(-0.8, 0.8), rng.uniform(-1, 1)]
            deformed_value, value, expected = values_at(p)
            assert abs(deformed_value / value - expected) < 1e-8

    def test_zero_offset_deformation_is_isomorphic(self):
        # a = 0 gives g = -x1, a constant-symbol deformation with equal invariant
        m = cat.exp_surface(0, q(1, 2), 0).manifold()
        alpha = cat.alpha_invariant(m)
        g = ex.neg(ex.log(ex.exp(ex.coord(0))))
        assert g.rational_only  # log(exp(x1)) collapses
        deformed = pj.deform(m, pj.ProjectiveChange.from_potential(g, 2))
        alpha_deformed = cat.alpha_invariant(deformed)
        assert ex.is_identically_zero(alpha_deformed - alpha) is Verdict.ZERO


class TestRandomModels:
    def test_random_surfaces_are_curved_and_bounded(self):
        rng = random.Random(3)
        for _ in range(10):
            surface = cat.random_type_a(rng)
            values = list(surface.constants().values())
            assert all(abs(v) <= 3 and v.denominator <= 3 for v in values)
        surface = cat.random_type_b(rng)
        assert surface.manifold().excluded


# ---------------------------------------------------------------------------
# independent oracle for the parallel-Hessian dichotomy on constant surfaces
#
# A nonflat constant-symbol surface has a second parallel-Hessian function
# beyond the constants iff either a linear function works (the symbol matrix
# has a kernel covector) or an exponential e^{theta . x} works, i.e. the
# quadratic system theta_i theta_j = G_ij^k theta_k has a real solution.
# The latter reduces, with t = theta_2/theta_1, to a common real root of
#   q(t) = c11_2 t^2 + (c11_1 - c12_2) t - c12_1
#   r(t) = c11_2 t^3 + c11_1 t^2 - c22_2 t - c22_1
# subject to theta_1 = c11_1 + c11_2 t != 0 (theta_1 = 0 is a separate case).


def _poly_deg(p):
    d = len(p) - 1
    while d >= 0 and p[d] == 0:
        d -= 1
    return d


def _poly_mod(a, b):
    a = list(a)
    db = _poly_deg(b)
    while _poly_deg(a) >= db >= 0:
        da = _poly_deg(a)
        factor = a[da] / b[db]
        for i in range(db + 1):
            a[da - db + i] -= factor * b[i]
        a[da] = 0
    return a


def _poly_gcd(a, b):
    while _poly_deg(b) >= 0:
        a, b = b, _poly_mod(a, b)
    return a


def _poly_eval(p, t):
    return sum(c * t ** i for i, c in enumerate(p))


def _has_allowed_real_root(p, c11_1, c11_2):
    """Real root of p with c11_1 + c11_2 t != 0 there."""
    deg = _poly_deg(p)
    if deg <= 0:
        return False
    if c11_2 != 0:
        bad = -Fraction(c11_1, c11_2)
        while _poly_deg(p) > 0 and _poly_eval(p, bad) == 0:
            # deflate the forbidden root and look at what is left
            out = [Fraction(0)] * _poly_deg(p)
            carry = Fraction(0)
            for i in range(_poly_deg(p), 0, -1):
                carry = p[i] + carry * bad
                out[i - 1] = carry
            p = out
        deg = _poly_deg(p)
        if deg <= 0:
            return False
    elif c11_1 == 0:
        return False  # theta_1 would vanish at every root
    if deg % 2 == 1:
        return True
    disc = p[1] ** 2 - 4 * p[2] * p[0]
    return disc >= 0


def parallel_pair_exists(surface: cat.TypeASurface) -> bool:
    from affineqe.linalg import exact_rank

    rows = [[surface.c11_1, surface.c11_2],
            [surface.c12_1, surface.c12_2],
            [surface.c22_1, surface.c22_2]]
    if exact_rank(rows, 2) <= 1:
        return True  # a linear function has parallel Hessian
    if surface.c11_2 == 0 and surface.c12_2 == 0 and surface.c22_2 != 0:
        return True  # exponential with theta_1 = 0
    q_poly = [-surface.c12_1, surface.c11_1 - surface.c12_2, surface.c11_2, Fraction(0)]
    r_poly = [-surface.c22_1, -surface.c22_2, surface.c11_1, surface.c11_2]
    dq, dr = _poly_deg(q_poly), _poly_deg(r_poly)
    if dq < 0 and dr < 0:
        return False  # would force theta_1 = 0
    if dq < 0:
        common = r_poly
    elif dr < 0:
        common = q_poly
    else:
        common = _poly_gcd(list(r_poly), list(q_poly))
    return _has_allowed_real_root(list(common), surface.c11_1, surface.c11_2)


class TestParallelHessianDichotomy:
    def test_normal_forms_have_a_pair(self):
        rng = random.Random(31)
        for _ in range(5):
            second = [cat.random_constant(rng) for _ in range(3)]
            exp_form = cat.exp_surface(*second)
            par_form = cat.parallel_surface(*second)
            for surface in (exp_form, par_form):
                assert parallel_pair_exists(surface)
                m = surface.manifold()
                if cat.expected_dimension("typeA", surface.constants_dict(), 0).value == 3:
                    continue  # a flat draw
                assert qs.solution_dimension(m, q(0), (q(0), q(0))).dim == 2

    def test_oracle_matches_solver_on_seeded_draws(self):
        rng = random.Random(57)
        seen = {1: 0, 2: 0}
        for _ in range(25):
            surface = cat.random_type_a(rng)
            dim = qs.solution_dimension(surface.manifold(), q(0), (q(0), q(0))).dim
            want = 2 if parallel_pair_exists(surface) else 1
            assert dim == want
            seen[dim] += 1
        assert seen[1] >= 5  # the generic answer is the constants alone

    def test_oracle_matches_solver_on_engineered_pairs(self):
        # symbols rigged so e^{theta . x} has parallel Hessian for a theta far
        # from the coordinate axes.  (A curved surface cannot carry an
        # irrational direction: two exponential directions force dimension 3
        # and hence flatness, so the shared root is always rational.)
        engineered = [
            cat.TypeASurface(q(3), q(-1), q(0), q(1), q(2), q(1)),     # theta (1, 2)
            cat.TypeASurface(q(0), q(1), q(1), q(0), q(1), q(2)),      # theta (-1, 1)
            cat.TypeASurface(q(-2), q(1), q(-3), q(2), q(6), q(1)),    # theta (1, 3)
        ]
        for surface in engineered:
            assert parallel_pair_exists(surface)
            dim = qs.solution_dimension(surface.manifold(), q(0), (q(0), q(0))).dim
            assert dim == 2
