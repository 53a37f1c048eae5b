import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineqe import catalog as cat
from affineqe import expr as ex
from affineqe import extension as xt
from affineqe import geometry as geo
from affineqe import projective as pj
from affineqe import qe_solver as qs
from affineqe.expr import Verdict

X2 = ["x1", "x2"]


def q(a, b=1):
    return Fraction(a, b)


FLAT = geo.flat_manifold(2)
ORIGIN = (q(0), q(0))
WALL_BASE = (q(1), q(0))


def _identity_jets(size):
    return [[1.0 if a == b else 0.0 for a in range(size)] for b in range(size)]


def random_polynomial_potential(rng, degree=2):
    total = ex.ZERO
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if rng.random() < 0.6:
                c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                total = total + ex.const(c) * ex.coord(0) ** i * ex.coord(1) ** j
    return total


class TestDeform:
    def test_shear_components(self):
        deformed = pj.deform(FLAT, [ex.coord(1), ex.ZERO])
        assert ex.format_expr(deformed.gamma[0][0][0], X2) == "2*x2"
        assert ex.format_expr(deformed.gamma[0][1][1], X2) == "x2"
        assert deformed.gamma[0][1][0] == ex.ZERO
        assert deformed.gamma[1][1][1] == ex.ZERO
        assert deformed.gamma[1][1][0] == ex.ZERO

    def test_zero_form_is_identity(self):
        m = cat.exp3d_model()
        deformed = pj.deform(m, [ex.ZERO] * 3)
        assert deformed.gamma == m.gamma

    def test_deform_then_invert(self):
        omega = [ex.coord(1), ex.coord(0) ** 2]
        deformed = pj.deform(pj.deform(FLAT, omega), [ex.neg(w) for w in omega])
        assert deformed.gamma == FLAT.gamma

    def test_rational_pole_joins_excluded_locus(self):
        deformed = pj.deform(FLAT, [ex.const(-1) / ex.coord(0), ex.ZERO])
        assert any(ex.is_identically_zero(g - ex.coord(0)) is Verdict.ZERO
                   for g in deformed.excluded)

    def test_torsion_free_preserved(self):
        rng = random.Random(4)
        m = cat.random_type_a(rng).manifold()
        deformed = pj.deform(m, [random_polynomial_potential(rng, 1),
                                 random_polynomial_potential(rng, 1)])
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert ex.is_identically_zero(
                        deformed.gamma[i][j][k] - deformed.gamma[j][i][k]) is Verdict.ZERO


class TestIsStrong:
    def test_shear_form_is_not_closed(self):
        assert pj.is_strong(pj.ProjectiveChange((ex.coord(1), ex.ZERO))) is Verdict.NONZERO

    def test_exact_form_is_closed(self):
        change = pj.ProjectiveChange.from_potential(ex.coord(0) * ex.coord(1), 2)
        assert pj.is_strong(change) is Verdict.ZERO

    def test_logarithmic_differential_is_closed(self):
        change = pj.ProjectiveChange((1 / ex.coord(0), ex.ZERO))
        assert pj.is_strong(change) is Verdict.ZERO

    def test_undefined_potential_rejected(self):
        # its derivatives fold to 0, which used to give the undeformed chart
        with pytest.raises(ex.DomainError, match="denominator is identically zero"):
            pj.ProjectiveChange.from_potential(ex.ONE / (ex.coord(0) - ex.coord(0)), 2)

    def test_potential_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pj.ProjectiveChange((ex.coord(1), ex.ZERO), potential=ex.coord(0))

    def test_derived_form_is_not_zero_tested_again(self, monkeypatch):
        calls = []
        judge = ex.is_identically_zero
        monkeypatch.setattr(ex, "is_identically_zero", lambda e: calls.append(e) or judge(e))
        change = pj.ProjectiveChange.from_potential(ex.coord(0) * ex.log(ex.coord(1)), 2)
        assert change.omega[1] != ex.ZERO and calls == []


class TestRicciTransform:
    def test_flat_linear_potential(self):
        residual = pj.ricci_transform_residual(FLAT, ex.coord(0))
        assert geo.tensor_zero_verdict(residual) is Verdict.ZERO
        # and the deformed symmetric Ricci is exactly dg (x) dg scaled by m-1
        deformed = pj.deform(FLAT, pj.ProjectiveChange.from_potential(ex.coord(0), 2))
        rho = geo.ricci(deformed).sym
        assert ex.is_identically_zero(rho.comp(0, 0) - ex.ONE) is Verdict.ZERO
        assert ex.is_identically_zero(rho.comp(0, 1)) is Verdict.ZERO

    def test_constant_potential_trivial(self):
        m = cat.exp3d_model()
        residual = pj.ricci_transform_residual(m, ex.const(q(5, 3)))
        assert geo.tensor_zero_verdict(residual) is Verdict.ZERO

    def test_random_surface_potential_pairs(self):
        rng = random.Random(12)
        for _ in range(12):
            m = cat.random_type_a(rng).manifold()
            g = random_polynomial_potential(rng)
            residual = pj.ricci_transform_residual(m, g)
            assert geo.tensor_zero_verdict(residual) is Verdict.ZERO


coefficients = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def linear_charts_with_potentials(draw):
    """A 2- or 3-dim chart with random linear symbols and a quadratic potential."""
    m = draw(st.sampled_from([2, 3]))
    x = [ex.coord(i) for i in range(m)]

    def polynomial(monomials):
        total = ex.ZERO
        for monomial in monomials:
            c = draw(coefficients)
            if c:
                total = total + ex.mul(ex.const(c), *monomial)
        return total

    linear = [()] + [(xi,) for xi in x]
    entries = {(i, j, k): polynomial(linear)
               for i in range(m) for j in range(i, m) for k in range(m)
               if draw(st.booleans())}
    quadratic = linear + [(x[i], x[j]) for i in range(m) for j in range(i, m)]
    return geo.from_christoffel([f"x{i + 1}" for i in range(m)], entries), \
        polynomial(quadratic)


@given(linear_charts_with_potentials())
@settings(max_examples=20, deadline=None)
def test_ricci_identities_on_non_homogeneous_charts(chart):
    m, g = chart
    residual = pj.ricci_transform_residual(m, g)
    assert geo.tensor_zero_verdict(residual) is Verdict.ZERO
    if m.dim == 2:
        defect = xt.extension_identities_residuals(m, None, g).ricci_defect
        assert geo.tensor_zero_verdict(defect) is Verdict.ZERO


def liouville_verdicts(manifold, potential):
    """(rho_s preserved, Hess g = dg (x) dg) for the strong deformation by dg.

    The third characterization (e^{-g} has parallel Hessian) reduces to the
    Hessian condition through H e^{-g} = -e^{-g}(H g - dg (x) dg)."""
    m = manifold.dim
    change = pj.ProjectiveChange.from_potential(potential, m)
    diff = geo.tensor_sub(pj.deform(manifold, change).ricci_parts.sym, manifold.ricci_parts.sym)
    hess, dg = geo.hessian(manifold, potential), change.omega
    condition = geo.tensor_from((m, m), lambda i, j: hess.comp(i, j) - dg[i] * dg[j])
    return geo.tensor_zero_verdict(diff), geo.tensor_zero_verdict(condition)


class TestLiouville:
    def test_exponential_family_potential(self):
        m = cat.exp_surface(0, q(1, 2), 0).manifold()
        g = ex.neg(ex.log(1 + ex.exp(ex.coord(0))))
        assert liouville_verdicts(m, g) == (Verdict.NUMERIC_ONLY, Verdict.NUMERIC_ONLY)

    def test_parallel_family_potential(self):
        m = cat.parallel_surface(1, q(1, 2), 1).manifold()
        preserved, condition = liouville_verdicts(m, ex.neg(ex.log(ex.coord(0))))
        assert bool(preserved) and bool(condition)

    def test_flat_linear_potential_fails_both(self):
        assert liouville_verdicts(FLAT, ex.coord(0)) == (Verdict.NONZERO, Verdict.NONZERO)


class TestStrongFlatness:
    def test_curved_constant_surfaces_are_strongly_flat(self):
        rng = random.Random(21)
        for _ in range(5):
            m = cat.random_type_a(rng).manifold()
            report = pj.strong_flatness_test(m, ORIGIN)
            assert report.flat and report.dim == 3
            assert report.criteria_agree

    def test_dim_one_wall_surface_is_not(self):
        m = cat.wall_dim1_surface(1).manifold()
        report = pj.strong_flatness_test(m, WALL_BASE)
        assert not report.flat and report.dim == 1
        assert report.surface_symmetry is Verdict.NONZERO
        assert report.criteria_agree

    def test_flat_plane(self):
        report = pj.strong_flatness_test(FLAT, ORIGIN)
        assert report.flat and report.dim == 3


class TestFlatChart:
    def test_flat_chart_is_identity(self):
        grid = [(0.3, 0.1), (-0.2, 0.4), (0.25, -0.35)]
        chart = pj.flat_chart(FLAT, ORIGIN, grid)
        for z, p in zip(chart.z_values, grid):
            assert max(abs(z[i] - p[i]) for i in range(2)) < 1e-9
        z_err, jac_err = pj.base_invariant_errors(chart)
        assert z_err < 1e-9 and jac_err < 1e-9

    def test_wall_chart_base_invariants(self):
        m = cat.wall_projflat_surface(1, 1).manifold()
        radius = pj.chart_radius(m, WALL_BASE)
        assert radius == pytest.approx(0.25)
        chart = pj.flat_chart(m, WALL_BASE, pj.box_grid(WALL_BASE, radius, per_axis=1))
        z_err, jac_err = pj.base_invariant_errors(chart)
        assert z_err < 1e-9 and jac_err < 1e-9

    def test_strong_deformation_of_flat_has_chart(self):
        g = ex.coord(0) * ex.coord(1)
        deformed = pj.deform(FLAT, pj.ProjectiveChange.from_potential(g, 2))
        chart = pj.flat_chart(deformed, ORIGIN, [(0.2, 0.1), (-0.1, 0.15)])
        z_err, jac_err = pj.base_invariant_errors(chart)
        assert z_err < 1e-9 and jac_err < 1e-9

    def test_base_probe_stays_inside_a_small_grid(self):
        # the wall x1 = 0 lies 1/20 from the basepoint: a 0.1 probe used to touch it
        m = cat.wall_projflat_surface(1, 1).manifold()
        base = (q(-1, 20), q(0))
        radius = pj.chart_radius(m, base)
        assert radius == pytest.approx(1 / 80)
        chart = pj.flat_chart(m, base, pj.box_grid(base, radius, per_axis=1))
        z_err, jac_err = pj.base_invariant_errors(chart)
        assert z_err < 1e-9 and jac_err < 1e-9

    def test_a_probe_that_rounds_to_the_basepoint_is_rejected(self):
        # the grid's 0.25 reach vanishes beside x1 = 10^17: the out-and-back probe was a
        # zero-length path, so the base errors read 0 without measuring anything
        base = (q(10**17), q(0))
        with pytest.raises(pj.FlatnessError, match="base probe rounds to the basepoint"):
            pj.flat_chart(FLAT, base, [(1e17, 0.25)])

    def test_chart_requires_maximal_dimension(self):
        m = cat.wall_dim1_surface(1).manifold()
        with pytest.raises(pj.FlatnessError):
            pj.flat_chart(m, WALL_BASE, [(1.1, 0.0)])


class TestGeodesics:
    def test_flat_geodesics_are_straight(self):
        chart = pj.flat_chart(FLAT, ORIGIN, [(0.2, 0.2)])
        deviation = pj.geodesic_straightness(FLAT, chart, 4, random.Random(8))
        assert deviation < 1e-9

    def test_wall_chart_geodesics_straighten(self):
        m = cat.wall_projflat_surface(1, 1).manifold()
        radius = pj.chart_radius(m, WALL_BASE)
        chart = pj.flat_chart(m, WALL_BASE, pj.box_grid(WALL_BASE, radius, per_axis=1))
        deviation = pj.geodesic_straightness(m, chart, 5, random.Random(2))
        assert deviation < 1e-6

    def test_chart_without_extent_is_rejected_up_front(self):
        # a grid that is only the basepoint gives the geodesics no horizon
        chart = pj.flat_chart(FLAT, ORIGIN, [(0, 0)])
        with pytest.raises(pj.FlatnessError, match="no points besides the basepoint"):
            pj.geodesic_straightness(FLAT, chart, 1, random.Random(0))

    def test_ricci_is_computed_once_per_manifold(self, monkeypatch):
        # the solve, every transport and the geodesic check read the Ricci
        # tensor the manifold caches
        calls = []
        ricci = geo.ricci
        monkeypatch.setattr(geo, "ricci", lambda m: calls.append(m) or ricci(m))
        m = cat.wall_projflat_surface(1, 1).manifold()
        chart = pj.flat_chart(m, WALL_BASE, [(1.1, 0.05)], steps_per_segment=100)
        pj.geodesic_straightness(m, chart, 2, random.Random(2), steps_per_segment=100)
        assert len(calls) == 1 and calls[0] is m

    def test_float_forms_are_compiled_once_per_manifold_and_mu(self, monkeypatch):
        # the chart's transports and the geodesics share one compiled jet
        # system at mu = -1 (one callable per A_i) and one guard callable; the
        # geodesics add one compiled Christoffel table and nothing else
        builds = []
        compiles = []
        build = qs.tree_matrices
        compile_float = ex.compile_float
        monkeypatch.setattr(qs, "tree_matrices",
                            lambda m, mu: builds.append((m, mu)) or build(m, mu))
        monkeypatch.setattr(ex, "compile_float",
                            lambda e: compiles.append(e) or compile_float(e))
        m = cat.wall_projflat_surface(1, 1).manifold()
        chart = pj.flat_chart(m, WALL_BASE, [(1.1, 0.05), (0.9, -0.05)],
                              steps_per_segment=100)
        chart_compiles = len(compiles)
        pj.geodesic_straightness(m, chart, 3, random.Random(2), steps_per_segment=100)
        # one tree build, for the compiled float form: the exact solve reads its tower alone
        assert builds == [(m, -1)]
        # each A_i is compiled below its unit row e_(1+i), which the generated run adds itself
        tables = [tuple(e for row in grid[1:] for e in row if e != ex.ZERO)
                  for grid in build(m, -1)]
        symbols = tuple(e for plane in m.gamma for row in plane for e in row if e != ex.ZERO)
        assert compiles == [m.excluded] + tables + [symbols]
        assert chart_compiles == 1 + len(tables)

    def test_crossing_the_excluded_locus_is_detected(self):
        # x1 runs from 1 through the wall x1 = 0; transport on the same
        # segment already raised
        m = cat.wall_dim1_surface(1).manifold()
        with pytest.raises(geo.ExcludedLocusError):
            pj.integrate_geodesic(m, (1.0, 0.0), (-1.0, 0.0), 2)
        with pytest.raises(geo.ExcludedLocusError):
            pj.integrate_geodesic(m, (1.0, 0.0), (-1.0, 0.0), 2, jets=_identity_jets(3))

    def test_step_count_below_one_rejected(self):
        # 0 used to divide by zero, -3 to report that the geodesic left the region
        for steps in (0, -3):
            with pytest.raises(ValueError, match="at least one step"):
                pj.integrate_geodesic(FLAT, (0.0, 0.0), (1.0, 0.0), 1.0, steps=steps)

    @pytest.mark.parametrize("surface", ["wall", "deformed_plane"])
    def test_jets_carried_along_the_geodesic_match_straight_transport(self, surface):
        if surface == "wall":
            m, base = cat.wall_projflat_surface(1, 1).manifold(), WALL_BASE
        else:
            potential = ex.coord(0) * ex.coord(1) + ex.const(q(1, 2)) * ex.coord(0) ** 2
            m, base = pj.deform(FLAT, pj.ProjectiveChange.from_potential(potential, 2)), ORIGIN
        chart = pj.flat_chart(m, base, [(float(base[0]) + 0.1, 0.1)], steps_per_segment=100)
        start = tuple(float(c) for c in base)
        for direction in [(1.0, 0.0), (0.6, -0.8), (-0.3, 0.9)]:
            points, moved = pj.integrate_geodesic(m, start, direction, 0.2, jets=chart.jet_basis)
            assert points == pj.integrate_geodesic(m, start, direction, 0.2)
            for point, jets in zip(points, moved):
                z, _ = pj._chart_image(jets)
                straight = qs.transport_jet(m, -1, [start, point], chart.jet_basis, 600)
                assert max(abs(a - b) for a, b in zip(z, pj._chart_image(straight)[0])) <= 1e-9

    def test_overflow_in_symbols_is_domain_error(self):
        # the geodesic of the plane deformed by -x1^3 blows up before t = 50;
        # x1^2 then overflows inside the compiled symbols
        change = pj.ProjectiveChange.from_potential(ex.neg(ex.coord(0) ** 3), 2)
        deformed = pj.deform(FLAT, change)
        with pytest.raises(ex.DomainError):
            pj.integrate_geodesic(deformed, (0, 0), (1, 0), 50)


def ricci_flat_gauge(manifold, potential):
    """The deformation by dg and the verdict that its rho_s is zero; e^{-g}
    must solve the eigen-equation at -1/(m-1)."""
    mu_m = qs.distinguished_eigenvalue(manifold.dim)
    residual = geo.apply_qe_operator(manifold, mu_m, ex.exp(ex.neg(potential)))
    if not geo.tensor_zero_verdict(residual):
        raise ex.DomainError("e^{-g} does not solve the eigen-equation at -1/(m-1)")
    deformed = pj.deform(manifold, pj.ProjectiveChange.from_potential(potential, manifold.dim))
    return deformed, geo.tensor_zero_verdict(deformed.ricci_parts.sym)


def ricci_flat_residual_numeric(manifold, space, points):
    """Worst component of rho_s + (m-1) H f / f over the points, for f the
    transport of a kernel jet with nonzero value; second derivatives are
    central differences (step 1e-4) of the transported gradient."""
    m = manifold.dim
    mu_m = qs.distinguished_eigenvalue(m)
    jet = next(vec for vec in space.basis if abs(float(vec[0])) > 1e-9)
    base = tuple(float(c) for c in space.basepoint)
    rho_indices, rho_symbols = ex.compile_symbols(manifold.ricci_parts.sym.components)
    gamma_indices, gamma = manifold.float_gamma

    def jet_at(x):
        return qs.transport_jet(manifold, mu_m, [base, tuple(x)], [float(c) for c in jet], 400)

    worst = 0.0
    for x in points:
        f_val, *grad = jet_at(x)
        covariant = [[0.0] * m for _ in range(m)]
        for i in range(m):
            up, dn = (jet_at([c + s * 1e-4 * (a == i) for a, c in enumerate(x)]) for s in (1, -1))
            for j in range(m):
                covariant[i][j] = (up[1 + j] - dn[1 + j]) / 2e-4
        for (i, j, k), value in zip(gamma_indices, gamma(x)):
            covariant[i][j] -= value * grad[k]
        rho = dict(zip(rho_indices, rho_symbols(x)))
        worst = max(worst, *(abs(rho.get((i, j), 0.0) + (m - 1) * covariant[i][j] / f_val)
                             for i in range(m) for j in range(m)))
    return worst


class TestRicciFlatGauge:
    def test_already_flat_with_trivial_potential(self):
        deformed, verdict = ricci_flat_gauge(FLAT, ex.ZERO)
        assert verdict is Verdict.ZERO
        assert deformed.gamma == FLAT.gamma

    def test_unsolvable_potential_rejected(self):
        with pytest.raises(ex.DomainError):
            ricci_flat_gauge(FLAT, ex.coord(0))

    def test_strong_deformation_returns_to_flat_gauge(self):
        g = ex.coord(0) * ex.coord(1)
        deformed = pj.deform(FLAT, pj.ProjectiveChange.from_potential(g, 2))
        assert ricci_flat_gauge(deformed, ex.neg(g))[1] is Verdict.ZERO

    def test_numeric_gauge_on_wall_surface(self):
        m = cat.wall_projflat_surface(1, 1).manifold()
        space = qs.solution_dimension(m, q(-1), WALL_BASE)
        points = [(1.0 + 0.05 * k, 0.04 * k) for k in range(6)]
        worst = ricci_flat_residual_numeric(m, space, points)
        assert worst < 1e-7


class TestStrongInvariance:
    def test_conjugation_identity_sampled(self):
        rng = random.Random(6)
        mu = q(-1)
        for _ in range(4):
            m = cat.random_type_a(rng).manifold()
            g = random_polynomial_potential(rng, 1)
            f = random_polynomial_potential(rng, 2)
            deformed = pj.deform(m, pj.ProjectiveChange.from_potential(g, 2))
            lhs = geo.apply_qe_operator(m, mu, f)
            rhs = geo.apply_qe_operator(deformed, mu, ex.exp(g) * f)
            scale = ex.exp(ex.neg(g))
            for i in range(2):
                for j in range(2):
                    residual = ex.compile_float(lhs.comp(i, j) - scale * rhs.comp(i, j))
                    for _ in range(5):
                        p = [rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)]
                        assert abs(residual(p)) < 1e-9

    def test_dimension_invariant_under_strong_deformation(self):
        rng = random.Random(17)
        mu = q(-1)
        for _ in range(8):
            m = cat.random_type_a(rng).manifold()
            g = random_polynomial_potential(rng, 1)
            deformed = pj.deform(m, pj.ProjectiveChange.from_potential(g, 2))
            before = qs.solution_dimension(m, mu, ORIGIN).dim
            after = qs.solution_dimension(deformed, mu, ORIGIN).dim
            assert before == after == 3

    def test_alternating_ricci_preserved(self):
        rng = random.Random(19)
        for _ in range(6):
            m = cat.random_type_a(rng).manifold()
            g = random_polynomial_potential(rng)
            deformed = pj.deform(m, pj.ProjectiveChange.from_potential(g, 2))
            diff = geo.tensor_sub(geo.ricci(deformed).alt, geo.ricci(m).alt)
            assert geo.tensor_zero_verdict(diff) is Verdict.ZERO

    def test_maximal_dimension_off_special_eigenvalue_forces_ricci_flat(self):
        samples = [
            (geo.flat_manifold(2), ORIGIN),
            (cat.TypeBSurface(*[q(0)] * 6).manifold(), WALL_BASE),
            (cat.exp3d_model(), (q(0), q(0), q(0))),
            (cat.wall_dim1_surface(1).manifold(), WALL_BASE),
            (cat.exp_surface(0, q(1, 2), 0).manifold(), ORIGIN),
        ]
        for m, point in samples:
            mu_m = qs.distinguished_eigenvalue(m.dim)
            for mu in (q(1, 2), q(2), q(-1, 3)):
                if mu == mu_m:
                    continue
                if qs.solution_dimension(m, mu, point).dim == m.dim + 1:
                    rho = geo.ricci(m).full
                    assert geo.tensor_zero_verdict(rho) is Verdict.ZERO

    def test_surface_criteria_agree_on_catalog(self):
        rng = random.Random(23)
        models = [cat.random_type_a(rng).manifold() for _ in range(3)]
        models += [cat.wall_dim1_surface(1).manifold(),
                   cat.wall_projflat_surface(1, 1).manifold(),
                   cat.wall_eigen_pair_surface(1, 1).manifold()]
        for m in models:
            point = ORIGIN if not m.excluded else WALL_BASE
            report = pj.strong_flatness_test(m, point)
            assert report.criteria_agree
