import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineqe import catalog as cat
from affineqe import expr as ex
from affineqe import geometry as geo
from affineqe import projective as pj
from affineqe import qe_solver as qs
from affineqe.expr import Verdict
from affineqe.linalg import RowReducer, exact_rank
from affineqe.poly import RationalFunc
from test_linalg import CURVED_SOLVES

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
    if space.exact and all(not isinstance(c, float) for c in jet):
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
        matrices = qs.tree_matrices(geo.flat_manifold(2), q(5))
        for i in range(2):
            grid = matrices[i]
            for a in range(3):
                for b in range(3):
                    want = ex.ONE if (a == 0 and b == 1 + i) else ex.ZERO
                    assert grid[a][b] == want

    def test_b1_structure(self):
        m = example_b1()
        mu = q(-3, 5)
        rho_s = geo.ricci(m).sym
        matrices = qs.tree_matrices(m, mu)
        for i in range(3):
            grid = matrices[i]
            for j in range(3):
                lead = grid[1 + j][0]
                want = ex.simplify_rational(mu * rho_s.comp(i, j))
                assert ex.is_identically_zero(lead - want) is Verdict.ZERO
                for k in range(3):
                    assert grid[1 + j][1 + k] == m.gamma[i][j][k]

    def test_hessian_symmetry_of_rows(self):
        matrices = qs.tree_matrices(example_b1(), q(2))
        for i in range(3):
            for j in range(3):
                assert matrices[i][1 + j] == matrices[j][1 + i]

    def test_wall_chart_entries_scale_inversely(self):
        entry = qs.tree_matrices(type_b(c12_1=1, c22_2=1), q(1))[0][2][1]  # Gamma_12^1 = 1/x1
        assert ex.is_identically_zero(entry - 1 / ex.coord(0)) is Verdict.ZERO


class TestConstraints:
    def test_flat_stack_is_effectively_empty(self):
        system = qs.build_jet_system(geo.flat_manifold(3), q(1))
        stack = qs.integrability_constraints(system)
        assert stack.effective_rows() == []

    def test_sheared_plane_stack(self):
        system = qs.build_jet_system(sheared_flat_plane(), q(-1))
        stack = qs.integrability_constraints(system)
        rows = [qs.row_values(r, (q(1, 3), q(5, 7))) for r in stack.effective_rows()]
        # the commutator rows alone leave a line; one prolongation kills it
        assert exact_rank(rows, 3) == 2
        prolonged = qs.prolong(system, stack, stack.effective_rows())
        rows = [qs.row_values(r, (q(1, 3), q(5, 7))) for r in prolonged.effective_rows()]
        assert exact_rank(rows, 3) == 3

    def test_b1_stack_already_full_rank_off_spectrum(self):
        system = qs.build_jet_system(example_b1(), q(1))
        stack = qs.integrability_constraints(system)
        rows = [qs.row_values(r, ORIGIN3) for r in stack.effective_rows()]
        assert exact_rank(rows, 4) == 4  # kernel empty before any prolongation

    def test_commutator_annihilates_known_solution_jets(self):
        m = example_b1()
        system = qs.build_jet_system(m, q(-3, 5))
        stack = qs.integrability_constraints(system)
        fn = ex.parse_scalar("exp(3*x3)", X3)
        point = (0.3, -0.2, 0.1)
        jet = ex.compile_float([fn, *(ex.differentiate(fn, i) for i in range(3))])(point)
        for row in stack.effective_rows():
            value = sum(e * j for e, j in zip(qs.row_values(row, point), jet))
            assert abs(value) < 1e-12

    def test_prolong_empty_stack(self):
        system = qs.build_jet_system(geo.flat_manifold(2), q(0))
        stack = qs.integrability_constraints(system)
        assert qs.prolong(system, stack, stack.rows).effective_rows() == []

    def test_prolong_gradient_row_with_flat_system(self):
        system = qs.build_jet_system(geo.flat_manifold(2), q(0))
        zero, one = RationalFunc.const(0), RationalFunc.const(1)
        row = (zero, one, zero)
        prolonged = qs.prolong(system, qs.ConstraintStack([row], {row}), [row])
        assert len(prolonged.rows) == 1  # appended rows were all zero

    def test_prolong_appends_no_row_the_stack_holds(self):
        # the stack's set carries across calls: prolonging the same rows again adds nothing
        system = qs.build_jet_system(example_b1(), q(-3, 5))
        stack = qs.integrability_constraints(system)
        once = qs.prolong(system, stack, stack.effective_rows())
        assert len(once.rows) > len(stack.rows) and once.seen == set(once.rows)
        assert qs.prolong(system, once, stack.effective_rows()).rows == once.rows

    def test_prolonged_rows_annihilate_solution_jets(self):
        m = example_b1()
        system = qs.build_jet_system(m, q(-3, 5))
        stack = qs.integrability_constraints(system)
        stack = qs.prolong(system, stack, stack.effective_rows())
        fn = ex.parse_scalar("x1*exp(3*x3)", X3)
        point = (0.4, 0.6, -0.3)
        jet = ex.compile_float([fn, *(ex.differentiate(fn, i) for i in range(3))])(point)
        for row in stack.effective_rows():
            value = sum(e * j for e, j in zip(qs.row_values(row, point), jet))
            assert abs(value) < 1e-10

    def test_rows_read_in_one_walk_match_entrywise_values(self):
        # rows with an atom: the plane sheared by x2 dx1 and deformed by exp(x1 - x2)/2,
        # prolonged once; at (x, theta(x)) they take the values their trees compile to at x
        g = ex.parse_scalar("exp(x1 - x2)/2", X2)
        plane = pj.deform(sheared_flat_plane(), pj.ProjectiveChange.from_potential(g, 2))
        system = qs.build_jet_system(plane, q(-1))
        assert system.tower.atoms == [ex.parse_scalar("exp(x1 - x2)", X2)]
        stack = qs.integrability_constraints(system)
        rows = qs.prolong(system, stack, stack.effective_rows()).effective_rows()
        trees = [ex.from_ratfunc(e, system.tower) for row in rows for e in row]
        assert rows and not all(e.rational_only for e in trees)
        rng = random.Random(11)
        for _ in range(5):
            point = ex.random_float_point(2, rng)
            at = point + ex.compile_float(system.tower.atoms)(point)
            got = [v for row in rows for v in qs.row_values(row, at)]
            assert got == pytest.approx(ex.compile_float(trees)(point), rel=1e-12, abs=1e-12)


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
        # strong projective invariance at -1/(m-1), solved on rows with an atom
        g = ex.parse_scalar("exp(x1 - x2)/2", X2)
        m = pj.deform(geo.flat_manifold(2), pj.ProjectiveChange.from_potential(g, 2))
        assert qs.build_jet_system(m, q(-1)).tower.atoms
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

    def test_float_basepoint_is_ranked_exactly(self):
        # a double is a dyadic rational: rational data at a float point is ranked at Fraction(c)
        point = (0.1, -0.2, 0.05)
        space = qs.solution_dimension(example_b1(), q(-3, 5), point)
        at_fraction = qs.solution_dimension(example_b1(), q(-3, 5), tuple(map(Fraction, point)))
        assert space.exact
        assert space.dim == 2
        assert space == at_fraction
        assert space.basepoint == tuple(map(Fraction, point))

    def test_float_basepoint_without_constraint_rows_is_exact(self):
        # the flat plane has no generation-0 rows: the empty stack is ranked exactly
        space = qs.solution_dimension(geo.flat_manifold(2), 0, (0.5, 0.5))
        assert space.exact is True
        assert space.dim == 3
        assert space.rank_history == (0,)
        assert space.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_membership_at_a_float_basepoint_is_exact(self):
        space = qs.solution_dimension(cat.wall_dim1_surface(1).manifold(), -1, (1.0, 0.0))
        assert space.exact
        assert in_solution_space(space, (q(2), q(0), q(0)))
        assert not in_solution_space(space, (q(0), q(1), q(0)))

    def test_exp_solve_without_constraint_rows(self):
        # exp/log data is ranked in floats, here an empty stack
        m = geo.from_christoffel(X2, {(0, 0, 0): ex.parse_scalar("exp(x1)", X2)})
        space = qs.solution_dimension(m, 0, ORIGIN2)
        assert space.exact is False
        assert space.dim == 3
        assert space.rank_history == (0,)

    def test_membership_in_an_exp_deformed_float_space(self):
        # strong projective invariance at -1/(m-1): the exp deformation keeps dim 1
        g = ex.parse_scalar("exp(x2)/3", X2)
        m = pj.deform(cat.wall_dim1_surface(1).manifold(), pj.ProjectiveChange.from_potential(g, 2))
        space = qs.solution_dimension(m, -1, WALL_BASE)
        assert not space.exact
        assert space.dim == 1
        assert in_solution_space(space, (3.0, 0.0, 1.0))
        assert not in_solution_space(space, (0.0, 1.0, 0.0))

    @pytest.mark.parametrize("point", [(q(0), q(0)), (0.0, 0.5)])
    def test_pole_read_by_no_row_is_domain_error(self, point):
        # every constraint row of Gamma_11^1 = 1/x1 is zero, so only the symbols see the pole
        m = geo.from_christoffel(X2, {(0, 0, 0): 1 / ex.coord(0)})
        assert not qs.integrability_constraints(qs.build_jet_system(m, q(-1))).effective_rows()
        with pytest.raises(ex.DomainError, match="pole"):
            qs.solution_dimension(m, q(-1), point)

    def test_pole_of_exp_data_read_by_no_row_is_domain_error(self):
        # tree rows: Gamma_11^1 = 1/x1 beside Gamma_22^2 = exp(x2) gives no row at mu 0
        m = geo.from_christoffel(X2, {(0, 0, 0): 1 / ex.coord(0),
                                      (1, 1, 1): ex.parse_scalar("exp(x2)", X2)})
        assert not qs.integrability_constraints(qs.build_jet_system(m, q(0))).effective_rows()
        with pytest.raises(ex.DomainError, match="pole"):
            qs.solution_dimension(m, q(0), ORIGIN2)

    def test_exp_guard_is_read_in_floats(self):
        guard = ex.parse_scalar("exp(x1) - 2", X2)
        m = geo.from_christoffel(X2, {(0, 0, 0): 1 / guard}, excluded=[guard])
        assert qs.solution_dimension(m, q(-1), ORIGIN2).dim == 3
        with pytest.raises(geo.ExcludedLocusError):
            m.check_point((math.log(2.0), 0.0))


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

    def test_empty_loop_rejected(self):
        # used to be a bare IndexError
        with pytest.raises(ValueError, match="loop has no points"):
            qs.holonomy_defect(geo.flat_manifold(2), q(0), [], [1, 0, 0])

    def test_step_count_below_one_rejected(self):
        for steps in (0, -5):  # 0 divided by zero, -5 left the jet where it was
            with pytest.raises(ValueError, match="at least one step"):
                qs.transport_jet(geo.flat_manifold(2), q(0), [(0, 0), (1, 0)], [0, 1, 0], steps)

    def test_log_of_a_negative_value_is_domain_error(self):
        # Gamma_22^1 = log(x1) on x1 < 0 used to raise a bare ValueError
        m = geo.from_christoffel(X2, {(1, 1, 0): ex.log(ex.coord(0))})
        with pytest.raises(ex.DomainError, match="log of a non-positive value"):
            qs.transport_jet(m, q(-1), [(-0.5, 0), (-0.5, 1)], [1, 0, 0])
        with pytest.raises(ValueError):  # a bad eigenvalue is not a log domain error
            qs.transport_jet(m, "zebra", [(0.5, 0), (0.5, 1)], [1, 0, 0])

    def test_non_numeric_path_coordinate_is_what_float_raises(self):
        flat = geo.flat_manifold(2)
        with pytest.raises(ValueError, match="could not convert"):
            qs.transport_jet(flat, -1, [("a", 0), (1, 0)], [1, 0, 0])
        with pytest.raises(TypeError):
            qs.transport_jet(flat, -1, [(0, 0), (None, 0)], [1, 0, 0])

    def test_path_coordinate_past_the_float_range_is_domain_error(self):
        with pytest.raises(ex.DomainError, match="float overflow"):
            qs.transport_jet(geo.flat_manifold(2), -1, [(0, 0), (10**400, 0)], [1, 0, 0])
        with pytest.raises(ex.DomainError, match="float overflow"):
            qs.holonomy_defect(geo.flat_manifold(2), -1, [(10**400, 0), (0, 0), (10**400, 0)],
                               [1, 0, 0])
        with pytest.raises(ex.DomainError, match="float overflow"):
            pj.integrate_geodesic(geo.flat_manifold(2), (10**400, 0), (1, 0), 1.0)

    def test_jet_component_past_the_float_range_is_domain_error(self):
        for u0 in ([10**400, 0, 0], [[1, 0, 0], [0, q(10**400), 0]]):
            with pytest.raises(ex.DomainError, match="float overflow"):
                qs.transport_jet(geo.flat_manifold(2), -1, [(0, 0), (1, 0)], u0)


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
    for a_i in qs.tree_matrices(manifold, mu):
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
            return qs.rk4_run(manifold, q(-1), 3, 100, *form).__code__

        assert code(one, segment) is code(two, segment)
        assert code(one) is code(two)
        assert code(other, segment) is not code(one, segment)
        assert code(one) is not code(one, segment)

    def test_zero_length_segment_takes_no_steps(self, monkeypatch):
        m = cat.wall_projflat_surface(1, 1).manifold()
        segments = []
        rk4_run = qs.rk4_run
        monkeypatch.setattr(qs, "rk4_run",
                            lambda *args: segments.append(args[4]) or rk4_run(*args))
        jets = _identity_jets(3)
        assert qs.transport_jet(m, q(-1), [(1, 0), (1, 0)], jets) == jets
        assert segments == []
        path = [(1, 0), (1.2, 0.1), (1.2, 0.1), (1, 0)]
        assert qs.transport_jet(m, q(-1), path, jets, 100) \
            == reference_transport(m, q(-1), path, jets, 100)
        assert len(segments) == 2

    @pytest.mark.parametrize("path, steps, message", [
        ([(1, 0), (-1, 0)], 10, "path touched the excluded locus at (0.0, 0.0)"),
        ([(q(1, 2), 0), (q(-1, 2), q(3, 10))], 7,
         "path crossed the excluded locus near (-0.0714285714285714, 0.1714285714285714)"),
    ])
    def test_guard_check_inside_the_run_matches_the_reference(self, path, steps, message):
        m = cat.wall_projflat_surface(1, 1).manifold()
        for transport in (qs.transport_jet, reference_transport):
            with pytest.raises(geo.ExcludedLocusError) as err:
                transport(m, q(-1), path, _identity_jets(3), steps)
            assert str(err.value) == message

    @pytest.mark.parametrize("stop, moving", [((1, 0.3), 1), ((1.2, 0), 0)])
    def test_a_straight_segment_reads_each_moving_a_i_about_twice_a_step(self, stop, moving):
        # stage 1 reuses the last step's end-point products; a still direction is read never
        m, mu, steps = cat.wall_projflat_surface(1, 1).manifold(), q(-1), 1000
        qs.rk4_run(m, mu, 3, 1, ([1.0, 0.0], [1.0, 1.0]))  # compiles the A_i
        calls = [0, 0]

        def counted(i, fn):
            def call(x):
                calls[i] += 1
                return fn(x)
            return call

        compiled = m.float_jet_systems[mu]
        assert all(indices for indices, _ in compiled)
        compiled[:] = [(indices, counted(i, fn)) for i, (indices, fn) in enumerate(compiled)]
        qs.transport_jet(m, mu, [(1, 0), stop], _identity_jets(3), steps)
        h = 1.0 / steps
        misses = sum((n + 1) * h != n * h + h for n in range(steps))
        assert calls[1 - moving] == 0
        assert 0 < calls[moving] <= 2 * steps + misses + 1

    @pytest.mark.parametrize("path, steps, message", [
        ([(1, 0), (1, 1)], 7, "path crossed the excluded locus near (1.0, 0.42857142857142855)"),
        ([(1, 0), (1, q(3, 5))], 2, "path touched the excluded locus at (1.0, 0.3)"),
        ([(1, 0), (q(1, 2), q(1, 5)), (q(3, 2), q(2, 5))], 9,
         "path crossed the excluded locus near (1.0555555555555556, 0.3111111111111111)"),
    ])
    def test_the_second_of_two_guards_is_checked_at_each_step_end(self, path, steps, message):
        m = geo.from_christoffel(X2, {
            (0, 0, 0): ex.const(3) / ex.coord(0), (0, 1, 1): ex.const(1) / ex.coord(0),
            (1, 1, 0): ex.const(1) / ex.coord(0)},
            excluded=[ex.coord(0), ex.parse_scalar("x2 - 3/10", X2)])
        for transport in (qs.transport_jet, reference_transport):
            with pytest.raises(geo.ExcludedLocusError) as err:
                transport(m, q(-1), path, _identity_jets(3), steps)
            assert str(err.value) == message
        with pytest.raises(geo.ExcludedLocusError, match=r"crossed the excluded locus near "
                           r"\(0\.8873981652865196, 0\.46119271977564075\)"):
            pj.integrate_geodesic(m, (1, 0), (0, 1), 1, steps=7)

    def test_non_finite_state_is_domain_error(self):
        huge = [1e308] * 4
        with pytest.raises(ex.DomainError, match="non-finite"):
            qs.transport_jet(example_b1(), q(-3, 5), [(0, 0, 0), (0, 0, 1)], huge, 10)
        with pytest.raises(ex.DomainError, match="non-finite"):
            pj.integrate_geodesic(example_b1(), (0, 0, 0), (1, 1, 1), 1e200,
                                  jets=_identity_jets(4))


COEFFICIENTS = st.fractions(-1, 1, max_denominator=5)


@st.composite
def charts_with_paths(draw):
    """A non-homogeneous chart with a path in it: the flat plane deformed by a
    quadratic potential with rational coefficients, or a wall chart on a path
    in x1 > 0."""
    if draw(st.booleans()):
        a, b, c = (draw(COEFFICIENTS) for _ in range(3))
        x1, x2 = ex.coord(0), ex.coord(1)
        change = pj.ProjectiveChange.from_potential(a * x1 * x2 + b * x1 * x1 + c * x2 * x2, 2)
        manifold, first = pj.deform(geo.flat_manifold(2), change), st.fractions(-1, 1)
    else:
        c12_2 = draw(COEFFICIENTS.filter(bool))
        manifold = cat.wall_projflat_surface(draw(st.sampled_from((1, -1))), c12_2).manifold()
        first = st.fractions(q(1, 4), 2)
    points = st.tuples(first.map(float), st.fractions(-1, 1).map(float))
    path = draw(st.lists(points, min_size=2, max_size=4, unique=True))
    jet = draw(st.lists(st.fractions(-2, 2).map(float), min_size=3, max_size=3))
    return manifold, draw(st.sampled_from((q(-1), q(1, 2), q(2)))), path, \
        _identity_jets(3) + [jet], draw(st.integers(1, 80))


@given(charts_with_paths())
@settings(max_examples=30, deadline=None)
def test_generated_transport_is_the_reference_on_non_homogeneous_charts(case):
    manifold, mu, path, jets, steps = case
    # repr tells -0.0 from 0.0, so equal reprs are equal bits
    assert repr(qs.transport_jet(manifold, mu, path, jets, steps)) \
        == repr(reference_transport(manifold, mu, path, jets, steps))


# The straight-segment contract of the generated run, restated in plain Python
# in the order its docstring gives: every float equals that of 0.0-seeded sums.


def stated_order_transport(manifold, mu, path, jets, steps):
    n = manifold.dim + 1
    tables = [ex.compile_symbols(a_i[1:]) for a_i in qs.tree_matrices(manifold, mu)]

    def slope(x, velocity, u):
        k = [0.0] * len(u)
        for i, (v, (indices, fn)) in enumerate(zip(velocity, tables)):
            if v == 0.0:
                continue
            for o in range(0, len(u), n):  # the unit row e_(1+i) adds v^i u_(1+i)
                k[o] += v * u[o + 1 + i]
            for (r, b), a in zip(indices, fn(x) if indices else ()):
                p = v * a
                for o in range(0, len(u), n):
                    k[o + 1 + r] += p * u[o + b]
        return k

    h = 1.0 / steps
    half, sixth = h / 2, h / 6
    state = [float(c) for jet in jets for c in jet]
    points = [[float(c) for c in point] for point in path]
    with qs.float_faults():
        signs = qs.locus_sides(manifold, points[0])
        for line, stop in zip(points, points[1:]):
            velocity = [b - a for a, b in zip(line, stop)]
            if not any(velocity):
                qs.locus_sides(manifold, line, signs)
                continue
            for number in range(steps):
                t0 = number * h
                end = [c + (t0 + h) * v for c, v in zip(line, velocity)]
                qs.locus_sides(manifold, end, signs)
                middle = [c + (t0 + half) * v for c, v in zip(line, velocity)]
                k1 = slope([c + t0 * v for c, v in zip(line, velocity)], velocity, state)
                k2 = slope(middle, velocity, [y + half * k for y, k in zip(state, k1)])
                k3 = slope(middle, velocity, [y + half * k for y, k in zip(state, k2)])
                k4 = slope(end, velocity, [y + h * k for y, k in zip(state, k3)])
                state = [y + sixth * (a + 2.0 * b + 2.0 * c + d)
                         for y, a, b, c, d in zip(state, k1, k2, k3, k4)]
                if not all(map(math.isfinite, state)):
                    raise ex.DomainError("integration produced non-finite values")
    return [state[o:o + n] for o in range(0, len(state), n)]


def _outcome(transport, *args):
    try:
        return transport(*args)
    except (ex.DomainError, geo.ExcludedLocusError) as err:
        return type(err), str(err)


def _same_bits(a, b) -> bool:
    """== on the floats, and a zero's sign too."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    flat_a = [c for jet in a for c in jet]
    flat_b = [c for jet in b for c in jet]
    return len(flat_a) == len(flat_b) and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in zip(flat_a, flat_b))


CONTRACT_GUARDS = ("x1 - 1", "x2 - 1/3", "exp(x2) - 2", "x1")


@st.composite
def contract_cases(draw):
    """A 2- or 3-dimensional chart with polynomial, C/x1 and exp symbols and 0-2
    guards; a path in x1 > 0 whose segments keep some coordinates (a zero
    velocity component, or a zero-length segment); jets with signed zeros."""
    m = draw(st.sampled_from((2, 3)))
    names = X2 if m == 2 else X3
    coefficient = st.fractions(-2, 2, max_denominator=3).filter(bool).map(lambda c: f"({c})")
    coordinate = st.sampled_from(names)
    symbol = st.one_of(
        st.builds("{} + {}*{}*{}".format, coefficient, coefficient, coordinate, coordinate),
        st.builds("{}/x1".format, coefficient),
        st.builds("{}*exp({}*{})".format, coefficient, coefficient, coordinate))
    keys = [(i, j, k) for i in range(m) for j in range(i, m) for k in range(m)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    guards = draw(st.lists(st.sampled_from(CONTRACT_GUARDS), max_size=2, unique=True))
    manifold = geo.from_christoffel(
        names, {key: ex.parse_scalar(draw(symbol), names) for key in chosen},
        excluded=[ex.parse_scalar(text, names) for text in guards])
    value = [st.fractions(q(1, 4), 2, max_denominator=8)] + [st.fractions(-1, 1)] * (m - 1)
    path = [tuple(draw(part.map(float)) for part in value)]
    for _ in range(draw(st.integers(1, 2))):
        keep = draw(st.lists(st.sampled_from((True, False, False)), min_size=m, max_size=m))
        path.append(tuple(c if kept else draw(part.map(float))
                          for c, kept, part in zip(path[-1], keep, value)))
    entry = st.one_of(st.sampled_from((0.0, -0.0)), st.fractions(-2, 2).map(float))
    jets = draw(st.lists(st.lists(entry, min_size=m + 1, max_size=m + 1), min_size=1, max_size=3))
    mu = draw(st.sampled_from((q(-1), q(-1, 2), q(1, 3), q(2))))
    return manifold, mu, path, jets, draw(st.sampled_from((1, 7, 400, 1000)))


@given(contract_cases())
@settings(max_examples=30, deadline=None)
def test_straight_transport_has_the_bits_of_zero_seeded_sums(case):
    manifold, mu, path, jets, steps = case
    got = _outcome(qs.transport_jet, manifold, mu, path, jets, steps)
    assert _same_bits(got, _outcome(stated_order_transport, manifold, mu, path, jets, steps))


SMALL = st.fractions(-2, 2, max_denominator=3)


@st.composite
def linear_charts(draw):
    """A non-homogeneous plane chart: symbols of degree <= 1 over small rationals, one
    of them plus C/x1; a basepoint off the wall; mu values with 0 and a repeat."""
    x1, x2 = ex.coord(0), ex.coord(1)
    keys = [(i, j, k) for i in range(2) for j in range(i, 2) for k in range(2)]
    coefficient = st.one_of(st.just(q(0)), st.just(q(0)), SMALL)  # mostly zero
    entries = {key: ex.add(draw(coefficient), ex.mul(draw(coefficient), x1),
                           ex.mul(draw(coefficient), x2)) for key in keys}
    wall = draw(st.sampled_from(keys))
    entries[wall] = ex.add(entries[wall], ex.div(draw(SMALL.filter(bool)), x1))
    point = (draw(st.fractions(q(1, 2), 2, max_denominator=4)),
             draw(st.fractions(-1, 1, max_denominator=4)))
    mu = draw(SMALL.filter(bool))
    return entries, point, [mu, q(0), draw(SMALL), mu]


def _pairs(row):
    """A row's entries as (numerator, denominator) term lists, in dict order."""
    return [(list(e.num.terms.items()), list(e.den.terms.items())) for e in row]


@given(linear_charts())
@settings(max_examples=25, deadline=None)
def test_one_manifold_solves_every_mu_as_fresh_copies_do(case):
    # the tower, symbols and rho sums are built once per manifold and shared by every
    # mu; in any order, each solve is the one a fresh copy of the chart gives
    entries, point, mus = case
    shared = geo.from_christoffel(X2, entries)
    solved = [(mu, qs.solution_dimension(shared, mu, point)) for mu in mus + mus[::-1]]
    for mu in set(mus):
        fresh = geo.from_christoffel(X2, entries)
        want = qs.solution_dimension(fresh, mu, point)
        assert all(space == want for other, space in solved if other == mu)
        rows = [qs.integrability_constraints(qs.build_jet_system(m, mu)).rows
                for m in (shared, fresh)]
        assert [_pairs(r) for r in rows[0]] == [_pairs(r) for r in rows[1]]


def whole_generation_solve(manifold, mu, basepoint):
    """Reference: the solve that prolongs and ranks every generation whole, with
    no stop inside a generation."""
    system = qs.build_jet_system(manifold, mu)
    n, cap = system.jet_size, 2 * manifold.dim + 6
    exact = not system.tower.atoms
    point = tuple(Fraction(c) if exact else float(c) for c in basepoint)
    at = point if exact else point + ex.compile_float(system.tower.atoms)(point)
    stack = qs.integrability_constraints(system)
    latest = stack.effective_rows()
    reducer, float_rows, history = RowReducer(n), [], []
    while True:
        if exact:
            for row in latest:
                reducer.add_row(qs.row_values(row, at))
            rank = reducer.rank
        else:
            float_rows.extend(qs.row_values(row, at) for row in latest)
            rank, kernel = qs.float_rank_kernel(float_rows, n)
        history.append(rank)
        stabilized = (rank == n or not latest
                      or len(history) >= 3 and rank == history[-2] == history[-3])
        if stabilized or len(history) > cap:
            break
        before = len(stack.rows)
        stack = qs.prolong(system, stack, latest)
        latest = stack.rows[before:]
    return qs.SolutionSpace(point, Fraction(mu), n - rank,
                            tuple(reducer.kernel_basis() if exact else kernel),
                            tuple(history), stabilized, exact)


CONSTANTS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 3))  # catalog's law


@st.composite
def catalog_solves(draw):
    """A random typeA, typeB or family3d model at its default basepoint or a random one."""
    kind = draw(st.sampled_from(("typeA", "typeB", "family3d")))
    names = "xyzw" if kind == "family3d" else ("c11_1", "c11_2", "c12_1", "c12_2", "c22_1", "c22_2")
    manifold = cat.build_model(kind, {name: draw(CONSTANTS) for name in names})
    point = draw(st.one_of(st.just(cat.default_basepoint(manifold)), st.tuples(
        st.fractions(q(1, 2), 2, max_denominator=4),  # off the wall x1 = 0 of typeB
        *[st.fractions(-1, 1, max_denominator=4)] * (manifold.dim - 1))))
    mu = draw(st.one_of(st.just(qs.distinguished_eigenvalue(manifold.dim)), CONSTANTS))
    return manifold, mu, point


@st.composite
def linear_solves(draw):
    entries, point, mus = draw(linear_charts())
    return geo.from_christoffel(X2, entries), draw(st.sampled_from(mus)), point


@st.composite
def curved_exp_log_solves(draw):
    """The curved exp/log charts of test_linalg at a pinned solve, or at a random mu and point."""
    chart, mu, point, _ = draw(st.sampled_from(CURVED_SOLVES))
    if draw(st.booleans()):
        mu = draw(SMALL)
        point = (draw(st.fractions(q(1, 2), 2, max_denominator=4)),
                 draw(st.fractions(-1, 1, max_denominator=4)))
    return chart(), mu, point


@given(st.one_of(catalog_solves(), linear_solves(), curved_exp_log_solves()))
@settings(max_examples=60, deadline=None)
def test_a_solve_that_stops_at_full_rank_is_the_whole_generation_solve(case):
    # the solve streams each generation into the reducer and stops once the rank is
    # full; dim, rank history, stabilized, exact and basis are those of whole generations
    manifold, mu, point = case
    assert qs.solution_dimension(manifold, mu, point) == whole_generation_solve(manifold, mu, point)


def test_full_rank_stops_inside_a_generation(monkeypatch):
    # generation 1 would prolong both generation-0 rows in both directions, 4 calls; the
    # derivatives of the first row already fill the rank.  Generation 0 is built from
    # _prolong_row too, so only the calls after it count
    m, mu = type_b(c11_1=1, c12_2=1, c22_1=1), q(1, 3)
    sources = qs.integrability_constraints(qs.build_jet_system(m, mu)).effective_rows()
    calls = []
    prolong_row, constraints = qs._prolong_row, qs.integrability_constraints

    def generation_zero(system):
        stack = constraints(system)
        calls.clear()
        return stack

    monkeypatch.setattr(qs, "_prolong_row", lambda *args: calls.append(args) or prolong_row(*args))
    monkeypatch.setattr(qs, "integrability_constraints", generation_zero)
    space = qs.solution_dimension(m, mu, WALL_BASE)
    assert (space.rank_history, space.dim) == ((2, 3), 0)
    assert len(calls) < len(sources) * m.dim == 4


def commutator_rows(system):
    """Reference generation 0: the rows of d_i A_j - d_j A_i + A_j A_i - A_i A_j, i < j,
    summed entry by entry."""
    diff, n = system.tower.diff, system.jet_size
    for i in range(system.dim):
        for j in range(i + 1, system.dim):
            a_i, a_j = system.grids[i], system.grids[j]
            for a in range(n):
                entries = []
                for b in range(n):
                    total = diff(a_j[a][b], i) - diff(a_i[a][b], j)
                    for s in range(n):
                        total = total + a_j[a][s] * a_i[s][b] - a_i[a][s] * a_j[s][b]
                    entries.append(total)
                yield tuple(entries)


@st.composite
def polynomial_denominator_solves(draw):
    """The plane deformed by a potential with a polynomial denominator."""
    potential = draw(st.sampled_from(("x1*x2/(1 + x2^2)", "x1/(1 + x2)", "x2/(2 + x1)")))
    g = ex.parse_scalar(potential, X2)
    plane = pj.deform(geo.flat_manifold(2), pj.ProjectiveChange.from_potential(g, 2))
    return plane, draw(st.sampled_from((q(-1), q(1, 3), q(2)))), (q(1, 3), q(-1, 5))


@given(st.one_of(st.tuples(st.one_of(catalog_solves(), linear_solves()), st.just(True)),
                 st.tuples(st.one_of(polynomial_denominator_solves(), curved_exp_log_solves()),
                           st.just(False))))
@settings(max_examples=60, deadline=None)
def test_generation_zero_is_the_commutator(case):
    # P_i(A_j[a]) - P_j(A_i[a]) is row a of the commutator: (numerator, denominator) pair
    # for pair on constant, C/x1 and linear symbols, whose pairs are canonical as their
    # denominators are monomials, and as functions of the tower on the other charts
    (manifold, mu, _), pairwise = case
    system = qs.build_jet_system(manifold, mu)
    rows = qs.integrability_constraints(system).rows
    oracle = list(commutator_rows(system))
    assert len(rows) == len(oracle) == manifold.dim * (manifold.dim - 1) // 2 * system.jet_size
    if pairwise:
        assert rows == oracle
    else:
        assert all((p - q).is_zero for row, want in zip(rows, oracle) for p, q in zip(row, want))


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
