"""Jet-space solver for the affine quasi-Einstein eigen-equation.

The second-order equation ``H f = mu f rho_s`` is rewritten as the first-order
system ``d_i u = A_i u`` on the jet vector ``u = (f, d_1 f, ..., d_m f)``.
Frobenius integrability produces linear constraints on admissible jets; the
constraints are prolonged until their rank at the basepoint stabilizes, and the
kernel of the evaluated stack is the space of admissible initial jets.  When
the system is rational, constraint rows are `poly.RationalFunc` tuples built
from the matrices converted once; exp/log systems keep expression-tree rows,
simplified after each step.  Transport moves a list of jets along one path
in a single fixed-step classical Runge-Kutta run (the m+1 basis jets move as
the fundamental matrix), from the tree matrices compiled to floats once per
(manifold, mu) and kept on the manifold; the geodesics of `projective` carry
jets through the same integrator, jet field and excluded-locus check.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import expr as ex
from . import geometry as geo
from .linalg import RowReducer, float_rank_kernel
from .poly import RationalFunc


def distinguished_eigenvalue(dim: int) -> Fraction:
    """The eigenvalue -1/(m-1) invariant under strong projective deformation."""
    return Fraction(-1, dim - 1)


# --------------------------------------------------------------------------
# first-order form


@dataclass(frozen=True)
class JetSystem:
    """Matrices A_i with d_i u = A_i u for the jet u = (f, d_1 f, ..., d_m f)."""

    manifold: geo.AffineManifold
    mu: Fraction
    matrices: tuple  # one (m+1)x(m+1) grid of ScalarExpr per coordinate

    @property
    def dim(self) -> int:
        return self.manifold.dim

    @property
    def jet_size(self) -> int:
        return self.manifold.dim + 1

    @property
    def rational_only(self) -> bool:
        return all(entry.rational_only
                   for grid in self.matrices for row in grid for entry in row)

    @cached_property
    def row_matrices(self) -> tuple:
        """The matrices in the type of the constraint rows: RationalFunc if rational."""
        if not self.rational_only:
            return self.matrices
        return tuple(tuple(tuple(ex.to_ratfunc(entry) for entry in row) for row in grid)
                     for grid in self.matrices)


def build_jet_system(manifold: geo.AffineManifold, mu) -> JetSystem:
    """First-order form of the eigen-equation: d_i d_j f = G_ij^k d_k f + mu rho_s_ij f."""
    mu = Fraction(mu)
    rho_s = manifold.ricci_parts.sym
    m = manifold.dim
    matrices = []
    for i in range(m):
        grid = []
        row0 = [ex.ZERO] * (m + 1)
        row0[1 + i] = ex.ONE
        grid.append(tuple(row0))
        for j in range(m):
            row = [ex.simplify_rational(mu * rho_s.comp(i, j))]
            for k in range(m):
                row.append(manifold.gamma[i][j][k])
            grid.append(tuple(row))
        matrices.append(tuple(grid))
    return JetSystem(manifold, mu, tuple(matrices))


# --------------------------------------------------------------------------
# constraints


@dataclass(frozen=True)
class ConstraintRow:
    entries: tuple  # jet_size RationalFunc or ScalarExpr; the constraint is entries . u = 0

    @property
    def is_structurally_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def values(self, point) -> list:
        """The entries at a point: Fractions at an exact point, else floats."""
        exact = _is_exact_point(point)
        if not isinstance(self.entries[0], RationalFunc):
            return [ex.evaluate(e, point, "exact" if exact else "float") for e in self.entries]
        try:
            return [e.eval(point) if exact else float(e.eval(point)) for e in self.entries]
        except ZeroDivisionError:
            raise ex.DomainError("division by zero at evaluation point") from None
        except OverflowError as err:
            raise ex.DomainError(f"float overflow: {err}") from None


@dataclass
class ConstraintStack:
    jet_size: int
    rows: list

    def effective_rows(self) -> list:
        return [r for r in self.rows if not r.is_structurally_zero]


def _tidy(entry):
    """Tree entries are simplified after each row operation; RationalFunc needs nothing."""
    return entry if isinstance(entry, RationalFunc) else ex.simplify_rational(entry)


def _commutator_rows(system: JetSystem, i: int, j: int):
    """Rows of d_i A_j - d_j A_i + A_j A_i - A_i A_j."""
    a_i = system.row_matrices[i]
    a_j = system.row_matrices[j]
    n = system.jet_size
    for a in range(n):
        entries = []
        for b in range(n):
            total = a_j[a][b].diff(i) - a_i[a][b].diff(j)
            for s in range(n):
                total = total + a_j[a][s] * a_i[s][b] - a_i[a][s] * a_j[s][b]
            entries.append(_tidy(total))
        yield tuple(entries)


def integrability_constraints(system: JetSystem) -> ConstraintStack:
    """Generation-0 stack: curvature of the jet system annihilates solution jets."""
    rows = []
    for i in range(system.dim):
        for j in range(i + 1, system.dim):
            for entries in _commutator_rows(system, i, j):
                rows.append(ConstraintRow(entries))
    return ConstraintStack(system.jet_size, rows)


def _prolong_row(system: JetSystem, entries: tuple, direction: int) -> tuple:
    """d_i c + c . A_i, valid on solution jets whenever c . u = 0 is."""
    a = system.row_matrices[direction]
    n = system.jet_size
    new = []
    for b in range(n):
        total = entries[b].diff(direction)
        for s in range(n):
            if entries[s].is_zero or a[s][b].is_zero:
                continue
            total = total + entries[s] * a[s][b]
        new.append(_tidy(total))
    return tuple(new)


def prolong(system: JetSystem, stack: ConstraintStack,
            rows: Sequence[ConstraintRow] | None = None) -> ConstraintStack:
    """Append the derivative of every (given) row along every direction."""
    source = stack.effective_rows() if rows is None else rows
    new_rows = list(stack.rows)
    seen = {r.entries for r in stack.rows}
    for row in source:
        for i in range(system.dim):
            entries = _prolong_row(system, row.entries, i)
            if all(e.is_zero for e in entries) or entries in seen:
                continue
            seen.add(entries)
            new_rows.append(ConstraintRow(entries))
    return ConstraintStack(stack.jet_size, new_rows)


# --------------------------------------------------------------------------
# dimension at a basepoint


@dataclass(frozen=True)
class SolutionSpace:
    """Admissible initial jets at a basepoint: dim + final rank = m + 1."""

    basepoint: tuple
    mu: Fraction
    dim: int
    basis: tuple  # jet vectors spanning the kernel of the evaluated stack
    rank_history: tuple
    stabilized: bool
    exact: bool


def _is_exact_point(point) -> bool:
    return all(not isinstance(c, float) for c in point)


def solution_dimension(manifold: geo.AffineManifold, mu, basepoint,
                       max_generations: int | None = None) -> SolutionSpace:
    """Dimension and jet basis of the local solution space at ``basepoint``.

    Prolongation stops once the evaluated rank is unchanged across two
    consecutive generations (or the kernel is already empty); hitting the
    generation cap without that is reported via ``stabilized=False``.
    """
    manifold.check_point(basepoint)
    system = build_jet_system(manifold, mu)
    n = system.jet_size
    cap = max_generations if max_generations is not None else 2 * manifold.dim + 6
    exact = system.rational_only and _is_exact_point(basepoint)
    point = tuple(Fraction(c) for c in basepoint) if exact \
        else tuple(float(c) for c in basepoint)

    stack = integrability_constraints(system)
    latest = stack.effective_rows()
    reducer = RowReducer(n) if exact else None
    float_rows: list = []
    history: list = []
    while True:
        for row in latest:
            if exact:
                reducer.add_row(row.values(point))
            else:
                float_rows.append(row.values(point))
        history.append(reducer.rank if exact else float_rank_kernel(float_rows, n)[0])
        stabilized = (history[-1] == n or not latest
                      or len(history) >= 3 and history[-1] == history[-2] == history[-3])
        if stabilized or len(history) > cap:
            break
        before = len(stack.rows)
        stack = prolong(system, stack, rows=latest)
        latest = stack.rows[before:]

    if exact:
        basis = tuple(reducer.kernel_basis())
        rank = reducer.rank
    else:
        rank, kernel = float_rank_kernel(float_rows, n)
        basis = tuple(kernel)
    return SolutionSpace(
        basepoint=tuple(point),
        mu=Fraction(mu),
        dim=n - rank,
        basis=basis,
        rank_history=tuple(history),
        stabilized=stabilized,
        exact=exact,
    )


SPAN_TOL = 1e-8  # float spaces: residual allowed relative to the jet's norm


def in_solution_space(space: SolutionSpace, jet) -> bool:
    """Is the given jet in the span of the computed kernel basis?"""
    if space.exact and _is_exact_point(jet):
        reducer = RowReducer(len(jet))
        for vec in space.basis:
            reducer.add_row(vec)
        return not reducer.add_row([Fraction(c) for c in jet])
    if not space.basis:
        return all(abs(float(c)) <= SPAN_TOL for c in jet)
    import numpy as np

    matrix = np.asarray([[float(c) for c in vec] for vec in space.basis], float).T
    target = np.asarray([float(c) for c in jet], float)
    coeffs, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    return bool(np.linalg.norm(matrix @ coeffs - target) <= SPAN_TOL * max(1.0, np.linalg.norm(target)))


def solution_report(space: SolutionSpace) -> dict:
    """JSON-ready report document."""

    def as_text(value):
        return str(Fraction(value)) if not isinstance(value, float) else repr(value)

    return {
        "mu": str(space.mu),
        "basepoint": [as_text(c) for c in space.basepoint],
        "dim": space.dim,
        "rank_history": list(space.rank_history),
        "stabilized": space.stabilized,
        "basis_jets": [[as_text(c) for c in vec] for vec in space.basis],
    }


# --------------------------------------------------------------------------
# float engine and transport


@contextmanager
def float_faults():
    """Float overflow and division by zero in the block raise DomainError."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as err:
        raise ex.DomainError(f"integration hit an overflow or a pole: {err}") from None


def runge_kutta(derivative, state: list, steps: int, before_step=None):
    """Classical Runge-Kutta for d_t y = derivative(t, y) over t in [0, 1].

    Yields the state after each of ``steps`` equal steps.  ``before_step(t)``
    runs with each step's end time before the step evaluates anything.  Float
    faults of the compiled symbols and non-finite states raise DomainError.
    """
    h = 1.0 / steps
    half = h / 2
    sixth = h / 6
    with float_faults():
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


def locus_sides(manifold: geo.AffineManifold, x, signs: list | None = None) -> list:
    """The side of each excluded-locus guard that x lies on (call inside
    `float_faults`); raises ExcludedLocusError when x touches the locus or,
    given the ``signs`` of an earlier point, lies on another side of a guard."""
    values = manifold.float_guards(x)
    if 0.0 in values:
        raise geo.ExcludedLocusError(f"path touched the excluded locus at {tuple(x)}")
    sides = [value > 0.0 for value in values]
    if signs is not None and sides != signs:
        raise geo.ExcludedLocusError(f"path crossed the excluded locus near {tuple(x)}")
    return sides


def jet_field(manifold: geo.AffineManifold, mu, count: int):
    """du(x, velocity, u) = velocity^i A_i(x) u for ``count`` jets stacked in u.

    The A_i are compiled once per (manifold, mu), one callable each, evaluated
    only where velocity^i is nonzero; each entry's term is applied to the jets
    in turn, so a jet's floats do not depend on its companions.
    """
    compiled = manifold.float_jet_systems
    mu = Fraction(mu)
    if mu not in compiled:
        compiled[mu] = [ex.compile_symbols(a_i) for a_i in build_jet_system(manifold, mu).matrices]
    offsets = range(0, count * (manifold.dim + 1), manifold.dim + 1)
    # per A_i: its callable and (position in its values, row in u, column in u)
    tables = [(fn, [(k, o + a, o + b) for k, (a, b) in enumerate(indices) for o in offsets])
              for indices, fn in compiled[mu]]

    def field(x, velocity, u):
        du = [0.0] * len(u)
        for v, (fn, entries) in zip(velocity, tables):
            if v != 0.0:
                values = fn(x)
                for k, a, b in entries:
                    du[a] += v * values[k] * u[b]
        return du

    return field


def transport_jet(manifold: geo.AffineManifold, mu, path, u0,
                  steps_per_segment: int = 1000):
    """Integrate d_t u = velocity^i A_i u along a polyline with classical RK4.

    ``u0`` is one jet, or a list of jets moved in one run (the m+1 basis jets
    move as the fundamental matrix); the result has the same form.
    """
    batched = len(u0) > 0 and isinstance(u0[0], (list, tuple))
    jets = [[float(c) for c in jet] for jet in (u0 if batched else [u0])]
    n = manifold.dim + 1
    if any(len(jet) != n for jet in jets):
        raise ValueError(f"jet must have {n} components")
    if not path:
        raise ValueError("path has no points")
    with float_faults():
        signs = locus_sides(manifold, [float(c) for c in path[0]])
    state = [c for jet in jets for c in jet]
    field = jet_field(manifold, mu, len(jets))
    for start, stop in zip(path, path[1:]):
        velocity = [float(b) - float(a) for a, b in zip(start, stop)]
        line = [(float(c), v) for c, v in zip(start, velocity)]

        def derivative(t, columns):
            return field([c + t * v for c, v in line], velocity, columns)

        def check_guards(t):
            locus_sides(manifold, [c + t * v for c, v in line], signs)

        for state in runge_kutta(derivative, state, steps_per_segment,
                                 check_guards if manifold.excluded else None):
            pass
    moved = [state[o:o + n] for o in range(0, len(state), n)]
    return moved if batched else moved[0]


def holonomy_defect(manifold: geo.AffineManifold, mu, loop, u0,
                    steps_per_segment: int = 1000) -> float:
    """Norm of (transport around the closed loop) - identity applied to u0."""
    first = [float(c) for c in loop[0]]
    last = [float(c) for c in loop[-1]]
    if any(abs(a - b) > 0.0 for a, b in zip(first, last)):
        raise ValueError("loop is not closed")
    transported = transport_jet(manifold, mu, loop, u0, steps_per_segment)
    return math.sqrt(sum((t - float(u)) ** 2 for t, u in zip(transported, u0)))
