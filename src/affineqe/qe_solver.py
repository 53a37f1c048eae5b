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
(manifold, mu) and kept on the manifold.  Each RK4 step is Python source
generated for the nonzero pattern of the A_i and shared by every manifold of
that pattern; the geodesics of `projective` carry jets through the same
generator, in its (x, v, jets) form, and the same excluded-locus check.
Float faults in row values and transport are reported by `expr.float_faults`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from . import expr as ex
from . import geometry as geo
from .expr import float_faults
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

    def values(self, point) -> tuple:
        """The entries at a point: Fractions at an exact point, else floats."""
        if not isinstance(self.entries[0], RationalFunc):
            return ex.evaluate(self.entries, point)
        exact = ex.is_exact_point(point)
        with float_faults():
            return tuple(e.eval(point) if exact else float(e.eval(point)) for e in self.entries)


@dataclass
class ConstraintStack:
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
    return ConstraintStack(rows)


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
    return ConstraintStack(new_rows)


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
    exact = system.rational_only and ex.is_exact_point(basepoint)
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
    if space.exact and ex.is_exact_point(jet):
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


def finite(state: tuple) -> tuple:
    """The state of an integration step; DomainError when it is not finite."""
    if not all(map(math.isfinite, state)):
        raise ex.DomainError("integration produced non-finite values")
    return state


@lru_cache(maxsize=64)
def _rk4_maker(m: int, count: int, tables: tuple, gamma: tuple | None):
    """Generate one classical RK4 step (Hairer-Norsett-Wanner, Solving ODEs I,
    II.1) as straight-line Python for a pattern, shared by all its manifolds.

    ``tables`` holds the (row, column) of each nonzero entry of each A_i, and
    ``count`` jets evolve by d_t u = v^i A_i(x) u.  Without ``gamma`` the point
    runs along x = c + t v and ``make(fns, None, h, c, v)`` returns
    ``step(y, t0)``.  With the (i, j, k) of the nonzero Christoffel symbols the
    state is a geodesic's (x, v, jets), d_t v^k = -G_ij^k v^i v^j, and
    ``make(fns, gamma, h)`` returns ``step(y)``.  Every term is added in a
    fixed order onto an accumulator that starts at 0.0: directions with
    v^i != 0, then entries, then jets.
    """
    head = 0 if gamma is None else 2 * m  # x and v lead a geodesic's state
    size = head + count * (m + 1)
    first = head // 2  # a geodesic's dx/dt is its v, so slopes accumulate from m
    body = ["".join(f"y{j}, " for j in range(size)) + "= y"]

    def stage(s: int, state: list, t: str, fresh: bool = True) -> list:
        # a stage that is not fresh reuses the A_i values at the previous stage's point
        k = [f"k{s}_{j}" for j in range(size)]
        if gamma is None:
            velocity = [f"v{i}" for i in range(m)]
            if fresh:
                body.append(f"t = {t}")
                body.append("x = (" + "".join(f"c{i} + t * v{i}, " for i in range(m)) + ")")
        else:
            velocity = state[m:head]
            body.append("x = (" + "".join(f"{c}, " for c in state[:m]) + ")")
            body.append("g = gamma(x)")
        body.append(" = ".join(k[first:]) + " = 0.0")
        for q, (i, j, c) in enumerate(gamma or ()):
            body.append(f"{k[m + c]} -= g[{q}] * {velocity[i]} * {velocity[j]}")
        for i, pairs in enumerate(tables):
            body.append(f"if {velocity[i]} != 0.0:")
            if fresh:
                body.append(f"    a{i} = f{i}(x)")
            body.extend(f"    {k[o + r]} += {velocity[i]} * a{i}[{q}] * {state[o + b]}"
                        for q, (r, b) in enumerate(pairs) for o in range(head, size, m + 1))
        return velocity[:first] + k[first:]

    def advance(s: int, factor: str, slopes: list) -> list:
        state = [f"s{s}_{j}" for j in range(size)]
        body.extend(f"{state[j]} = y{j} + {factor} * {slopes[j]}" for j in range(size))
        return state

    y = [f"y{j}" for j in range(size)]
    k1 = stage(1, y, "t0")
    k2 = stage(2, advance(2, "half", k1), "t0 + half")
    k3 = stage(3, advance(3, "half", k2), "t0 + half", fresh=gamma is not None)
    k4 = stage(4, advance(4, "h", k3), "t0 + h")
    body.append("return (" + "".join(
        f"y{j} + sixth * ({a} + 2 * {b} + 2 * {c} + {d}), "
        for j, (a, b, c, d) in enumerate(zip(k1, k2, k3, k4))) + ")")
    bind = ["half = h / 2", "sixth = h / 6"]
    if tables:
        bind.append("".join(f"f{i}, " for i in range(len(tables))) + "= fns")
    if gamma is None:
        bind += ["".join(f"{name}{i}, " for i in range(m)) + f"= {name}" for name in "cv"]
    source = "\n    ".join(["def make(fns, gamma, h, c=(), v=()):", *bind,
                            "def step(y, t0):" if gamma is None else "def step(y):",
                            *("    " + line for line in body), "return step"])
    namespace: dict = {}
    exec(source, ex._FLOAT_GLOBALS, namespace)  # noqa: S102
    return namespace["make"]


def rk4_step(manifold: geo.AffineManifold, mu, count: int, h: float, segment=None):
    """A generated RK4 step of size h moving ``count`` jets by d_t u = v^i A_i u
    at mu: along the straight ``segment`` (c, v) as ``step(y, t0)``, else along
    a geodesic of the manifold as ``step(y)``.  The A_i are compiled once per
    (manifold, mu) and kept on the manifold."""
    gamma_indices, gamma = (None, None) if segment else manifold.float_gamma
    compiled = manifold.float_jet_systems
    mu = Fraction(mu)
    if count and mu not in compiled:
        compiled[mu] = [ex.compile_symbols(a_i) for a_i in build_jet_system(manifold, mu).matrices]
    tables = compiled[mu] if count else ()
    make = _rk4_maker(manifold.dim, count, tuple(indices for indices, _ in tables), gamma_indices)
    return make([fn for _, fn in tables], gamma, h, *segment or ())


def _is_batch(u0) -> bool:
    return len(u0) > 0 and isinstance(u0[0], (list, tuple))


def transport_jet(manifold: geo.AffineManifold, mu, path, u0,
                  steps_per_segment: int = 1000):
    """Integrate d_t u = velocity^i A_i u along a polyline with classical RK4.

    ``u0`` is one jet, or a list of jets moved in one run (the m+1 basis jets
    move as the fundamental matrix); the result has the same form.  A
    zero-length segment leaves the jets as they are.
    """
    jets = [[float(c) for c in jet] for jet in (u0 if _is_batch(u0) else [u0])]
    n = manifold.dim + 1
    if any(len(jet) != n for jet in jets):
        raise ValueError(f"jet must have {n} components")
    if not path:
        raise ValueError("path has no points")
    h = 1.0 / steps_per_segment
    state = [c for jet in jets for c in jet]
    with float_faults():
        signs = locus_sides(manifold, [float(c) for c in path[0]])
        for start, stop in zip(path, path[1:]):
            line = [float(c) for c in start]
            velocity = [float(b) - a for a, b in zip(line, stop)]
            if not any(velocity):
                locus_sides(manifold, line, signs)
                continue
            step = rk4_step(manifold, mu, len(jets), h, (line, velocity))
            for number in range(steps_per_segment):
                t0 = number * h
                if manifold.excluded:
                    locus_sides(manifold, [c + (t0 + h) * v for c, v in zip(line, velocity)], signs)
                state = finite(step(state, t0))
    moved = [list(state[o:o + n]) for o in range(0, len(state), n)]
    return moved if _is_batch(u0) else moved[0]


def holonomy_defect(manifold: geo.AffineManifold, mu, loop, u0,
                    steps_per_segment: int = 1000):
    """Norm of (transport around the closed loop) - identity applied to u0; a
    list of jets moves in one run and gives one defect per jet."""
    first = [float(c) for c in loop[0]]
    last = [float(c) for c in loop[-1]]
    if any(abs(a - b) > 0.0 for a, b in zip(first, last)):
        raise ValueError("loop is not closed")
    jets = u0 if _is_batch(u0) else [u0]
    moved = transport_jet(manifold, mu, loop, jets, steps_per_segment)
    defects = [math.sqrt(sum((t - float(u)) ** 2 for t, u in zip(after, jet)))
               for after, jet in zip(moved, jets)]
    return defects if _is_batch(u0) else defects[0]
