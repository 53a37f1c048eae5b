import math
import random
from fractions import Fraction

import numpy as np
import pytest

from affineqe import catalog as cat
from affineqe import expr as ex
from affineqe import geometry as geo
from affineqe import projective as pj
from affineqe import qe_solver as qs
from affineqe.expr import Verdict
from affineqe.linalg import RowReducer, exact_rank

X2 = ["x1", "x2"]
X3 = ["x1", "x2", "x3"]


def q(a, b=1):
    return Fraction(a, b)


def example_b1():
    return geo.from_christoffel(X3, {
        (0, 1, 2): ex.const(1),
        (0, 2, 0): ex.const(3),
        (1, 2, 1): ex.const(4),
        (2, 2, 2): ex.const(5),
    })


def example_b2(x, y, z, w):
    return geo.from_christoffel(X3, {
        (0, 0, 0): ex.const(z), (0, 1, 0): ex.const(1), (0, 2, 0): ex.const(x),
        (1, 1, 1): ex.const(1), (1, 2, 0): ex.const(x),
        (2, 2, 1): ex.const(y), (2, 2, 2): ex.const(w),
    })


def type_b(c11_1=0, c11_2=0, c12_1=0, c12_2=0, c22_1=0, c22_2=0):
    x1 = ex.coord(0)
    table = {(0, 0, 0): c11_1, (0, 0, 1): c11_2, (0, 1, 0): c12_1,
             (0, 1, 1): c12_2, (1, 1, 0): c22_1, (1, 1, 1): c22_2}
    entries = {idx: ex.const(Fraction(v)) / x1 for idx, v in table.items() if v}
    return geo.from_christoffel(X2, entries, excluded=[x1])


def sheared_flat_plane():
    """Flat plane deformed by the non-closed 1-form x2 dx1."""
    x2 = ex.coord(1)
    return geo.from_christoffel(X2, {(0, 0, 0): 2 * x2, (0, 1, 1): x2})


ORIGIN3 = (q(0), q(0), q(0))
ORIGIN2 = (q(0), q(0))
WALL_BASE = (q(1), q(0))


def rand_c(rng):
    den = rng.randint(1, 3)
    return Fraction(rng.randint(-3 * den, 3 * den), den)


def in_solution_space(space, jet) -> bool:
    """Is the jet in the span of the kernel basis: exactly for an exact space at
    an exact jet, else by least squares to 1e-8 of the jet's norm."""
    if space.exact and ex.is_exact_point(jet):
        reducer = RowReducer(len(jet))
        for vec in space.basis:
            reducer.add_row(vec)
        return not reducer.add_row(jet)
    matrix, target = np.asarray(space.basis, float).T, np.asarray(jet, float)
    coeffs, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    residual = np.linalg.norm(matrix @ coeffs - target)
    return bool(residual <= 1e-8 * max(1.0, np.linalg.norm(target)))


class TestJetSystem:
    def test_flat_matrices_have_only_unit_rows(self):
        system = qs.build_jet_system(geo.flat_manifold(2), q(5))
        for i in range(2):
            grid = system.matrices[i]
            for a in range(3):
                for b in range(3):
                    want = ex.ONE if (a == 0 and b == 1 + i) else ex.ZERO
                    assert grid[a][b] == want

    def test_b1_structure(self):
        m = example_b1()
        mu = q(-3, 5)
        rho_s = geo.ricci(m).sym
        system = qs.build_jet_system(m, mu)
        for i in range(3):
            grid = system.matrices[i]
            for j in range(3):
                lead = grid[1 + j][0]
                want = ex.simplify_rational(mu * rho_s.comp(i, j))
                assert ex.is_identically_zero(lead - want) is Verdict.ZERO
                for k in range(3):
                    assert grid[1 + j][1 + k] == m.gamma[i][j][k]

    def test_hessian_symmetry_of_rows(self):
        system = qs.build_jet_system(example_b1(), q(2))
        for i in range(3):
            for j in range(3):
                assert system.matrices[i][1 + j] == system.matrices[j][1 + i]

    def test_wall_chart_entries_scale_inversely(self):
        system = qs.build_jet_system(type_b(c12_1=1, c22_2=1), q(1))
        entry = system.matrices[0][2][1]  # Gamma_12^1 = 1/x1
        assert ex.is_identically_zero(entry - 1 / ex.coord(0)) is Verdict.ZERO


class TestConstraints:
    def test_flat_stack_is_effectively_empty(self):
        system = qs.build_jet_system(geo.flat_manifold(3), q(1))
        stack = qs.integrability_constraints(system)
        assert stack.effective_rows() == []

    def test_sheared_plane_stack(self):
        system = qs.build_jet_system(sheared_flat_plane(), q(-1))
        stack = qs.integrability_constraints(system)
        rows = [r.values((q(1, 3), q(5, 7))) for r in stack.effective_rows()]
        # the commutator rows alone leave a line; one prolongation kills it
        assert exact_rank(rows, 3) == 2
        prolonged = qs.prolong(system, stack)
        rows = [r.values((q(1, 3), q(5, 7))) for r in prolonged.effective_rows()]
        assert exact_rank(rows, 3) == 3

    def test_b1_stack_already_full_rank_off_spectrum(self):
        system = qs.build_jet_system(example_b1(), q(1))
        stack = qs.integrability_constraints(system)
        rows = [r.values(ORIGIN3) for r in stack.effective_rows()]
        assert exact_rank(rows, 4) == 4  # kernel empty before any prolongation

    def test_commutator_annihilates_known_solution_jets(self):
        m = example_b1()
        system = qs.build_jet_system(m, q(-3, 5))
        stack = qs.integrability_constraints(system)
        fn = ex.parse_scalar("exp(3*x3)", X3)
        point = (0.3, -0.2, 0.1)
        jet = [ex.evaluate(fn, point)] + [
            ex.evaluate(ex.differentiate(fn, i), point) for i in range(3)]
        for row in stack.effective_rows():
            value = sum(e * j for e, j in zip(row.values(point), jet))
            assert abs(value) < 1e-12

    def test_prolong_empty_stack(self):
        system = qs.build_jet_system(geo.flat_manifold(2), q(0))
        stack = qs.integrability_constraints(system)
        assert qs.prolong(system, stack).effective_rows() == []

    def test_prolong_gradient_row_with_flat_system(self):
        system = qs.build_jet_system(geo.flat_manifold(2), q(0))
        stack = qs.ConstraintStack([qs.ConstraintRow((ex.ZERO, ex.ONE, ex.ZERO))])
        prolonged = qs.prolong(system, stack)
        assert len(prolonged.rows) == 1  # appended rows were all zero

    def test_prolonged_rows_annihilate_solution_jets(self):
        m = example_b1()
        system = qs.build_jet_system(m, q(-3, 5))
        stack = qs.prolong(system, qs.integrability_constraints(system))
        fn = ex.parse_scalar("x1*exp(3*x3)", X3)
        point = (0.4, 0.6, -0.3)
        jet = [ex.evaluate(fn, point)] + [
            ex.evaluate(ex.differentiate(fn, i), point) for i in range(3)]
        for row in stack.effective_rows():
            value = sum(e * j for e, j in zip(row.values(point), jet))
            assert abs(value) < 1e-10

    def test_rows_read_in_one_walk_match_entrywise_values(self):
        # exp rows: the plane deformed by exp(x1 - x2)/2, prolonged once
        g = ex.parse_scalar("exp(x1 - x2)/2", X2)
        plane = pj.deform(geo.flat_manifold(2), pj.ProjectiveChange.from_potential(g, 2))
        system = qs.build_jet_system(plane, q(-1))
        stack = qs.prolong(system, qs.integrability_constraints(system))
        entries = [e for row in stack.effective_rows() for e in row.entries]
        assert not all(e.rational_only for e in entries)
        rng = random.Random(11)
        for _ in range(5):
            point = ex.random_float_point(2, rng)
            apart = [ex.evaluate(e, point) for e in entries]
            for together in (ex.evaluate(entries, point),
                             [v for row in stack.effective_rows() for v in row.values(point)]):
                assert [(v, math.copysign(1.0, v)) for v in together] == \
                    [(v, math.copysign(1.0, v)) for v in apart]


class TestSolutionDimension:
    def test_flat_space_is_maximal(self):
        space = qs.solution_dimension(geo.flat_manifold(3), q(7), (q(0),) * 3)
        assert space.dim == 4
        assert space.stabilized
        assert list(space.basis) == [
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    @pytest.mark.parametrize("mu,want", [
        (q(-3, 5), 2), (q(0), 1), (q(-1), 0), (q(-1, 2), 0),
        (q(1), 0), (q(3, 5), 0), (q(2), 0),
    ])
    def test_b1_dimension_table(self, mu, want):
        assert qs.solution_dimension(example_b1(), mu, ORIGIN3).dim == want

    @pytest.mark.parametrize("params,want", [
        ((1, 0, 0, 0), 0),
        ((1, 0, 2, q(1, 4)), 1),
        ((1, 0, 1, 0), 2),
        ((0, 5, 7, -2), 4),
        ((0, 1, 2, 3), 4),
    ])
    def test_b2_case_table(self, params, want):
        m = example_b2(*[Fraction(v) for v in params])
        assert qs.solution_dimension(m, q(-1, 2), ORIGIN3).dim == want

    def test_projective_shear_destroys_solutions(self):
        assert qs.solution_dimension(geo.flat_manifold(2), q(-1), ORIGIN2).dim == 3
        assert qs.solution_dimension(sheared_flat_plane(), q(-1), ORIGIN2).dim == 0

    def test_exp_deformation_keeps_the_maximal_space(self):
        # strong projective invariance at -1/(m-1), solved on expression-tree rows
        g = ex.parse_scalar("exp(x1 - x2)/2", X2)
        m = pj.deform(geo.flat_manifold(2), pj.ProjectiveChange.from_potential(g, 2))
        assert not qs.build_jet_system(m, q(-1)).rational_only
        space = qs.solution_dimension(m, qs.distinguished_eigenvalue(2), ORIGIN2)
        assert not space.exact
        assert space.dim == 3

    @pytest.mark.parametrize("point", [(q(1), q(0)), (1.0, 0.0)])
    def test_pole_at_basepoint_is_domain_error(self, point):
        # symbols C/(x1 - 1) with no excluded locus declared
        pole = ex.coord(0) - 1
        m = geo.from_christoffel(X2, {(0, 0, 0): 3 / pole, (0, 1, 0): 1 / pole,
                                      (1, 1, 1): 1 / pole})
        with pytest.raises(ex.DomainError):
            qs.solution_dimension(m, q(-1), point)

    def test_point_on_excluded_locus_rejected(self):
        m = type_b(c12_1=1, c22_2=1)
        with pytest.raises(geo.ExcludedLocusError):
            qs.solution_dimension(m, q(-1), (q(0), q(1)))

    def test_depth_cap_is_flagged(self):
        m = example_b2(q(1), q(0), q(0), q(0))
        space = qs.solution_dimension(m, q(-1, 2), ORIGIN3, max_generations=0)
        assert not space.stabilized

    def test_float_basepoint_uses_numeric_rank(self):
        space = qs.solution_dimension(example_b1(), q(-3, 5), (0.1, -0.2, 0.05))
        assert not space.exact
        assert space.dim == 2

    def test_float_solve_without_constraint_rows(self):
        # the flat plane has no generation-0 rows, so the SVD sees an empty stack
        space = qs.solution_dimension(geo.flat_manifold(2), 0, (0.5, 0.5))
        assert space.exact is False
        assert space.dim == 3
        assert space.rank_history == (0,)

    def test_membership_in_a_float_space(self):
        space = qs.solution_dimension(cat.wall_dim1_surface(1).manifold(), -1, (1.0, 0.0))
        assert not space.exact
        assert in_solution_space(space, (2.0, 0.0, 0.0))
        assert not in_solution_space(space, (0.0, 1.0, 0.0))


class TestTransport:
    def test_flat_linear_jet(self):
        u = qs.transport_jet(geo.flat_manifold(2), q(-1), [(0, 0), (0.7, 0.3)], [0, 1, 0])
        assert u[0] == pytest.approx(0.7, abs=1e-10)
        assert u[1] == pytest.approx(1.0, abs=1e-12)
        assert u[2] == pytest.approx(0.0, abs=1e-12)

    def test_flat_constant_jet(self):
        u = qs.transport_jet(geo.flat_manifold(2), q(3),
                             [(0, 0), (0.2, 0.9), (1.5, -1.0)], [1, 0, 0])
        assert u == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_b1_exponential_solution_value(self):
        u = qs.transport_jet(example_b1(), q(-3, 5),
                             [(0, 0, 0), (0, 0, 0.5)], [1, 0, 0, 3])
        want = math.exp(1.5)
        assert abs(u[0] - want) / want < 1e-8
        assert abs(u[3] - 3 * want) / (3 * want) < 1e-8

    def test_excluded_crossing_detected(self):
        m = type_b(c11_1=-1)
        with pytest.raises(geo.ExcludedLocusError):
            qs.transport_jet(m, q(0), [(1, 0), (-1, 0)], [1, 0, 0])

    def test_jet_length_checked(self):
        with pytest.raises(ValueError):
            qs.transport_jet(geo.flat_manifold(2), q(0), [(0, 0), (1, 0)], [1, 0])

    def test_single_point_path_checks_the_jet_and_the_point(self):
        with pytest.raises(ValueError):
            qs.transport_jet(geo.flat_manifold(2), q(0), [(0, 0)], [1, 0])
        with pytest.raises(ValueError):
            qs.transport_jet(geo.flat_manifold(2), q(0), [(0, 0)], [[1, 0, 0], [1, 0]])
        wall = cat.wall_projflat_surface(1, 1).manifold()
        for u0 in ([1, 0, 0], [[1, 0, 0], [0, 1, 0]]):
            with pytest.raises(geo.ExcludedLocusError):
                qs.transport_jet(wall, q(-1), [(0, 0)], u0)
        with pytest.raises(geo.ExcludedLocusError):
            qs.holonomy_defect(wall, q(-1), [(0, 0)], [1, 0, 0])
        assert qs.transport_jet(wall, q(-1), [(1, 0)], [[1, 0, 0], [0, 1, 0]]) \
            == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            qs.transport_jet(geo.flat_manifold(2), q(0), [], [1, 0, 0])

    def test_log_of_a_negative_value_is_domain_error(self):
        # Gamma_22^1 = log(x1) on x1 < 0 used to raise a bare ValueError
        m = geo.from_christoffel(X2, {(1, 1, 0): ex.log(ex.coord(0))})
        with pytest.raises(ex.DomainError, match="log of a non-positive value"):
            qs.transport_jet(m, q(-1), [(-0.5, 0), (-0.5, 1)], [1, 0, 0])
        with pytest.raises(ValueError):  # a bad eigenvalue is not a log domain error
            qs.transport_jet(m, "zebra", [(0.5, 0), (0.5, 1)], [1, 0, 0])


def _identity_jets(size):
    return [[1.0 if a == b else 0.0 for a in range(size)] for b in range(size)]


class TestBatchedTransport:
    """Jets moved together along one path equal, bit for bit, jets moved alone."""

    @staticmethod
    def assert_batch_is_exact(manifold, mu, path, jets, steps):
        together = qs.transport_jet(manifold, mu, path, jets, steps)
        alone = [qs.transport_jet(manifold, mu, path, jet, steps) for jet in jets]
        assert together == alone

    def test_wall_chart_multi_segment_path(self):
        # four segments with guard checks on the excluded wall x1 = 0
        m = cat.wall_projflat_surface(-1, 1).manifold()
        path = [(1, 0), (1.3, 0.4), (0.8, 0.6), (0.9, -0.3), (1.1, 0.05)]
        jets = _identity_jets(3) + [[0.5, -2.0, 1.25]]
        self.assert_batch_is_exact(m, q(-1), path, jets, 200)

    def test_three_dimensional_chart(self):
        m = example_b1()
        path = [(0, 0, 0), (0.2, -0.1, 0.3), (-0.1, 0.25, 0.1)]
        self.assert_batch_is_exact(m, q(-3, 5), path, _identity_jets(4), 200)
        wall = geo.from_christoffel(X3, {
            (0, 0, 0): ex.const(2) / ex.coord(0), (0, 1, 2): ex.coord(1),
            (1, 2, 1): ex.const(q(1, 3)) / ex.coord(0)}, excluded=[ex.coord(0)])
        self.assert_batch_is_exact(wall, q(-1, 2), [(1, 0, 0), (1.2, 0.3, -0.4)],
                                   _identity_jets(4), 200)

    def test_wrong_length_column_rejected(self):
        with pytest.raises(ValueError):
            qs.transport_jet(example_b1(), q(-3, 5), [(0, 0, 0), (0, 0, 1)],
                             [[1, 0, 0, 3], [1, 0, 0]])

    def test_excluded_crossing_detected(self):
        m = cat.wall_projflat_surface(1, 1).manifold()
        with pytest.raises(geo.ExcludedLocusError):
            qs.transport_jet(m, q(-1), [(1, 0), (-1, 0)], _identity_jets(3), 100)

    def test_overflowing_symbol_is_domain_error(self):
        m = geo.from_christoffel(X2, {(0, 0, 0): ex.coord(0) ** 3})
        path = [(1e120, 0), (2e120, 0)]
        with pytest.raises(ex.DomainError):
            qs.transport_jet(m, q(-1), path, [1, 0, 0], 10)
        with pytest.raises(ex.DomainError):
            qs.transport_jet(m, q(-1), path, _identity_jets(3), 10)


# The reference integrator: the interpreted classical RK4 and jet field that
# the generated stepper replaced, kept as the oracle it matches bit for bit.


def reference_rk4(derivative, state, steps, before_step=None):
    h = 1.0 / steps
    half = h / 2
    sixth = h / 6
    with qs.float_faults():
        for step in range(steps):
            t0 = step * h
            if before_step is not None:
                before_step(t0 + h)
            k1 = derivative(t0, state)
            k2 = derivative(t0 + half, [y + half * k for y, k in zip(state, k1)])
            k3 = derivative(t0 + half, [y + half * k for y, k in zip(state, k2)])
            k4 = derivative(t0 + h, [y + h * k for y, k in zip(state, k3)])
            state = [y + sixth * (a + 2 * b + 2 * c + d)
                     for y, a, b, c, d in zip(state, k1, k2, k3, k4)]
            if not all(map(math.isfinite, state)):
                raise ex.DomainError("integration produced non-finite values")
            yield state


def reference_field(manifold, mu, count):
    """du = velocity^i A_i(x) u for ``count`` stacked jets."""
    n = manifold.dim + 1
    tables = []
    for a_i in qs.build_jet_system(manifold, mu).matrices:
        indices, fn = ex.compile_symbols(a_i)
        tables.append((fn, [(k, o + a, o + b) for k, (a, b) in enumerate(indices)
                            for o in range(0, count * n, n)]))

    def field(x, velocity, u):
        du = [0.0] * len(u)
        for v, (fn, entries) in zip(velocity, tables):
            if v != 0.0:
                values = fn(x)
                for k, a, b in entries:
                    du[a] += v * values[k] * u[b]
        return du

    return field


def reference_transport(manifold, mu, path, jets, steps):
    n = manifold.dim + 1
    field = reference_field(manifold, mu, len(jets))
    state = [float(c) for jet in jets for c in jet]
    with qs.float_faults():
        signs = qs.locus_sides(manifold, [float(c) for c in path[0]])
    for start, stop in zip(path, path[1:]):
        velocity = [float(b) - float(a) for a, b in zip(start, stop)]
        line = [(float(c), v) for c, v in zip(start, velocity)]

        def derivative(t, columns, line=line, velocity=velocity):
            return field([c + t * v for c, v in line], velocity, columns)

        def check_guards(t, line=line):
            qs.locus_sides(manifold, [c + t * v for c, v in line], signs)

        for state in reference_rk4(derivative, state, steps,
                                   check_guards if manifold.excluded else None):
            pass
    return [state[o:o + n] for o in range(0, len(state), n)]


def reference_geodesic(manifold, start, velocity, horizon, steps, jets):
    """The full trail of (x, v, jets) states of a geodesic carrying jets."""
    m = manifold.dim
    indices, gamma = manifold.float_gamma
    field = reference_field(manifold, qs.distinguished_eigenvalue(m), len(jets))

    def derivative(_t, state):
        x = state[:m]
        v = state[m:2 * m]
        acc = [0.0] * m
        for (i, j, k), value in zip(indices, gamma(x)):
            acc[k] -= value * v[i] * v[j]
        return v + acc + field(x, v, state[2 * m:])

    state = [float(c) for c in start] + [float(c) * horizon for c in velocity] + \
        [float(c) for jet in jets for c in jet]
    trail = [state]
    with qs.float_faults():
        signs = qs.locus_sides(manifold, state[:m])
        for state in reference_rk4(derivative, state, steps):
            qs.locus_sides(manifold, state[:m], signs)
            trail.append(state)
    return trail


def deformed_plane():
    """The flat plane deformed by d(x1 x2 + x1^2/2): a non-homogeneous chart."""
    potential = ex.coord(0) * ex.coord(1) + ex.const(q(1, 2)) * ex.coord(0) ** 2
    return pj.deform(geo.flat_manifold(2), pj.ProjectiveChange.from_potential(potential, 2))


def deformed_space():
    """Flat R^3 deformed by d(x1 x2/2 + x3^2/4)."""
    potential = ex.parse_scalar("x1*x2/2 + x3^2/4", X3)
    return pj.deform(geo.flat_manifold(3), pj.ProjectiveChange.from_potential(potential, 3))


class TestGeneratedStepper:
    """The generated RK4 step against the reference integrator, bit for bit."""

    @pytest.mark.parametrize("chart", ["wall", "deformed_plane", "deformed_space", "wall3d"])
    def test_transport_matches_the_reference(self, chart):
        if chart == "wall":
            # four segments with guard checks on the excluded wall x1 = 0
            m, mu = cat.wall_projflat_surface(-1, 1).manifold(), q(-1)
            path = [(1, 0), (1.3, 0.4), (0.8, 0.6), (0.9, -0.3), (1.1, 0.05)]
        elif chart == "deformed_plane":
            m, mu = deformed_plane(), q(2)
            path = [(0, 0), (0.3, -0.2), (0.1, 0.4), (0.1, 0.1)]
        elif chart == "deformed_space":
            m, mu = deformed_space(), q(-1, 2)
            path = [(0, 0, 0), (0.2, -0.1, 0.3), (0, 0.25, 0)]
        else:
            m, mu = geo.from_christoffel(X3, {
                (0, 0, 0): ex.const(2) / ex.coord(0), (0, 1, 2): ex.coord(1),
                (1, 2, 1): ex.const(q(1, 3)) / ex.coord(0)}, excluded=[ex.coord(0)]), q(-1, 2)
            path = [(1, 0, 0), (1.2, 0.3, -0.4)]
        n = m.dim + 1
        jets = _identity_jets(n) + [[0.5 - a for a in range(n)]]
        want = reference_transport(m, mu, path, jets, 150)
        assert qs.transport_jet(m, mu, path, jets, 150) == want
        assert qs.transport_jet(m, mu, path, jets[-1], 150) == want[-1]

    @pytest.mark.parametrize("surface", ["wall", "deformed_plane", "deformed_space"])
    def test_geodesic_carrying_jets_matches_the_reference(self, surface):
        if surface == "wall":
            m, start, direction = cat.wall_projflat_surface(1, 1).manifold(), (1, 0), (0.6, -0.8)
        elif surface == "deformed_plane":
            m, start, direction = deformed_plane(), (0, 0), (-0.3, 0.9)
        else:
            m, start, direction = deformed_space(), (0, 0, 0), (0.6, -0.8, 0.3)
        jets = _identity_jets(m.dim + 1)
        trail = reference_geodesic(m, start, direction, 0.3, 120, jets)
        points, moved = pj.integrate_geodesic(m, start, direction, 0.3, steps=120, jets=jets)
        picks = sorted({round(i * 120 / 10) for i in range(11)})
        assert points == [tuple(trail[i][:m.dim]) for i in picks]
        offsets = range(2 * m.dim, len(trail[0]), m.dim + 1)
        assert moved == [[trail[i][o:o + m.dim + 1] for o in offsets] for i in picks]
        # without jets the path is the same
        assert pj.integrate_geodesic(m, start, direction, 0.3, steps=120) == points

    def test_manifolds_of_one_pattern_share_the_generated_code(self):
        one = cat.wall_projflat_surface(1, 1).manifold()
        two = cat.wall_projflat_surface(-1, 3).manifold()
        other = deformed_plane()
        segment = ([1.0, 0.0], [0.1, 0.05])

        def code(manifold, *form):
            return qs.rk4_step(manifold, q(-1), 3, 0.01, *form).__code__

        assert code(one, segment) is code(two, segment)
        assert code(one) is code(two)
        assert code(other, segment) is not code(one, segment)
        assert code(one) is not code(one, segment)

    def test_zero_length_segment_takes_no_steps(self, monkeypatch):
        m = cat.wall_projflat_surface(1, 1).manifold()
        segments = []
        rk4_step = qs.rk4_step
        monkeypatch.setattr(qs, "rk4_step",
                            lambda *args: segments.append(args[4]) or rk4_step(*args))
        jets = _identity_jets(3)
        assert qs.transport_jet(m, q(-1), [(1, 0), (1, 0)], jets) == jets
        assert segments == []
        path = [(1, 0), (1.2, 0.1), (1.2, 0.1), (1, 0)]
        assert qs.transport_jet(m, q(-1), path, jets, 100) \
            == reference_transport(m, q(-1), path, jets, 100)
        assert len(segments) == 2

    def test_non_finite_state_is_domain_error(self):
        huge = [1e308] * 4
        with pytest.raises(ex.DomainError, match="non-finite"):
            qs.transport_jet(example_b1(), q(-3, 5), [(0, 0, 0), (0, 0, 1)], huge, 10)
        with pytest.raises(ex.DomainError, match="non-finite"):
            pj.integrate_geodesic(example_b1(), (0, 0, 0), (1, 1, 1), 1e200,
                                  jets=_identity_jets(4))


UNIT_LOOP_13 = [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 0, 0)]
UNIT_LOOP_23 = [(0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1), (0, 0, 0)]


class TestHolonomy:
    def test_flat_loop_defect_negligible(self):
        loop = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
        d = qs.holonomy_defect(geo.flat_manifold(2), q(-1), loop, [1, 0.5, -2])
        assert d < 1e-10

    def test_b1_admissible_jets(self):
        defects = qs.holonomy_defect(example_b1(), q(-3, 5), UNIT_LOOP_13,
                                     [(1, 0, 0, 3), (0, 1, 0, 0)])
        assert len(defects) == 2 and max(defects) < 1e-8

    def test_batched_defects_equal_single_ones(self):
        jets = [(1, 0, 0, 3), (0, 1, 0, 0), (0, 0, 1, 0)]
        assert qs.holonomy_defect(example_b1(), q(-3, 5), UNIT_LOOP_23, jets) \
            == [qs.holonomy_defect(example_b1(), q(-3, 5), UNIT_LOOP_23, u0) for u0 in jets]

    def test_b1_inadmissible_jet_detected_by_some_loop(self):
        u0 = (0, 0, 1, 0)
        defects = [qs.holonomy_defect(example_b1(), q(-3, 5), loop, u0)
                   for loop in (UNIT_LOOP_13, UNIT_LOOP_23)]
        assert max(defects) > 1e-4

    def test_open_path_rejected(self):
        with pytest.raises(ValueError):
            qs.holonomy_defect(geo.flat_manifold(2), q(0),
                               [(0, 0), (1, 0), (1, 1)], [1, 0, 0])


class TestReports:
    def test_report_document_shape(self):
        space = qs.solution_dimension(example_b1(), q(-3, 5), ORIGIN3)
        report = qs.solution_report(space)
        assert report["mu"] == "-3/5"
        assert report["dim"] == 2
        assert report["stabilized"] is True
        assert len(report["basis_jets"]) == 2
        assert report["basepoint"] == ["0", "0", "0"]


class TestInvariants:
    def test_rank_history_monotone(self):
        rng = random.Random(31)
        for _ in range(25):
            entries = {(i, j, k): ex.const(rand_c(rng))
                       for i in range(2) for j in range(i, 2) for k in range(2)
                       if rng.random() < 0.8}
            m = geo.from_christoffel(X2, entries)
            space = qs.solution_dimension(m, rand_c(rng), ORIGIN2)
            history = space.rank_history
            assert all(a <= b for a, b in zip(history, history[1:]))

    def test_dimension_bound_random_models(self):
        rng = random.Random(47)
        seen = 0
        while seen < 200:
            m_dim = rng.choice([2, 3])
            coords = X2 if m_dim == 2 else X3
            wall = rng.random() < 0.5
            entries = {}
            for i in range(m_dim):
                for j in range(i, m_dim):
                    for k in range(m_dim):
                        if rng.random() < 0.5:
                            value = ex.const(rand_c(rng))
                            entries[(i, j, k)] = value / ex.coord(0) if wall else value
            excluded = [ex.coord(0)] if wall else []
            m = geo.from_christoffel(coords, entries, excluded)
            point = (q(1),) + (q(0),) * (m_dim - 1) if wall else (q(0),) * m_dim
            space = qs.solution_dimension(m, rand_c(rng), point)
            assert 0 <= space.dim <= m_dim + 1
            assert space.dim + space.rank_history[-1] == m_dim + 1
            seen += 1

    def test_kernel_jets_have_tiny_holonomy(self):
        rng = random.Random(3)
        m = example_b1()
        space = qs.solution_dimension(m, q(-3, 5), ORIGIN3)
        # the loops drawn for each jet in turn, each moving every jet in one run
        jets = [[float(c) for c in u0] for u0 in space.basis]
        for _ in range(5 * len(jets)):
            a = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            b = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            loop = [(0, 0, 0), tuple(a), tuple(b), (0, 0, 0)]
            defects = qs.holonomy_defect(m, q(-3, 5), loop, jets, steps_per_segment=400)
            assert max(defects) < 1e-7

    def test_dimension_point_independent(self):
        models = [
            (example_b1(), q(-3, 5), ORIGIN3, (q(1, 3), q(-1, 2), q(1, 4))),
            (type_b(c12_1=1, c22_2=1), q(-1), WALL_BASE, (q(2), q(1, 3))),
            (type_b(c11_1=3, c12_2=1, c22_1=1), q(-1), WALL_BASE, (q(1, 2), q(-1))),
        ]
        for m, mu, p1, p2 in models:
            assert qs.solution_dimension(m, mu, p1).dim == qs.solution_dimension(m, mu, p2).dim

    def test_printed_generators_lie_in_kernel(self):
        # constant-symbol exponential family at the origin
        m = geo.from_christoffel(X2, {(0, 0, 0): ex.const(1), (0, 1, 1): ex.const(q(1, 2))})
        space = qs.solution_dimension(m, q(0), ORIGIN2)
        assert space.dim == 2
        assert in_solution_space(space, (q(1), q(0), q(0)))   # f = 1
        assert in_solution_space(space, (q(1), q(1), q(0)))   # f = e^{x1}

        m = geo.from_christoffel(X2, {(0, 0, 1): ex.const(1), (0, 1, 1): ex.const(q(1, 2)),
                                      (1, 1, 1): ex.const(1)})
        space = qs.solution_dimension(m, q(0), ORIGIN2)
        assert space.dim == 2
        assert in_solution_space(space, (q(0), q(1), q(0)))   # f = x1

        # wall-chart Yamabe families at (1, 0)
        yamabe = [
            (dict(c11_1=-1, c11_2=1, c12_2=1, c22_2=2), (q(0), q(1), q(0))),    # log x1
            (dict(c11_1=-2, c11_2=1, c12_2=1, c22_2=2), (q(1), q(-1), q(0))),   # 1/x1
            (dict(c11_1=1, c12_1=1, c22_1=1), (q(0), q(0), q(1))),              # x2
            (dict(c11_1=2, c12_1=1, c11_2=1, c12_2=q(1, 2)), (q(1), q(1), q(-2))),  # x1 - 2 x2
        ]
        for params, jet in yamabe:
            space = qs.solution_dimension(type_b(**params), q(0), WALL_BASE)
            assert space.dim == 2
            assert in_solution_space(space, jet)
            assert in_solution_space(space, (q(1), q(0), q(0)))

        # the 3-dimensional example with its exponential pair
        space = qs.solution_dimension(example_b1(), q(-3, 5), ORIGIN3)
        assert in_solution_space(space, (q(1), q(0), q(0), q(3)))  # e^{3x3}
        assert in_solution_space(space, (q(0), q(1), q(0), q(0)))  # x1 e^{3x3}

    def test_surface_wall_models_never_dim_two(self):
        rng = random.Random(7)
        seen = 0
        while seen < 60:
            cs = [rand_c(rng) for _ in range(6)]
            m = type_b(*cs)
            if geo.tensor_zero_verdict(geo.ricci(m).full) is not Verdict.NONZERO:
                continue
            assert qs.solution_dimension(m, q(-1), WALL_BASE).dim != 2
            seen += 1
