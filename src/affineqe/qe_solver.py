"""Jet-space solver for the affine quasi-Einstein eigen-equation.

The second-order equation ``H f = mu f rho_s`` is rewritten as the first-order
system ``d_i u = A_i u`` on the jet vector ``u = (f, d_1 f, ..., d_m f)``.
One row operator builds every linear constraint on admissible jets: if
``c . u = 0`` on solutions, so is ``P_i(c) . u = 0``, ``P_i(c) = D_i c + c . A_i``.
Frobenius integrability ``d_i(A_j u) = d_j(A_i u)`` makes generation 0 the
rows ``P_i(A_j[a]) - P_j(A_i[a])``, the commutator of the system; each later
generation applies every P_i to the rows of the one before, until the rank at
the basepoint stabilizes, and the kernel of the evaluated stack is the space
of admissible initial jets.  An exact solve reduces each prolonged row as soon
as it is made and stops once the rank is m+1, inside a generation too.  Rows
are plain tuples of `poly.RationalFunc` in the `expr.Tower` of the chart's data, where
rho_s is summed from the symbols by `geometry.ricci_terms`, the traced curvature
display that also gives the tree Ricci; a row zero there is zero as a function.  The
symbols are converted and rho summed once per manifold (`jet_data`), shared by
every mu solved on it, so a further mu costs only its own rows.  Data
with no exp/log node is ranked exactly at any basepoint, other rows in floats at
the coordinates and atom values, by Gauss-Jordan elimination with complete
pivoting.  Transport moves a
list of jets along one path in a single fixed-step classical Runge-Kutta run
(the m+1 basis jets move as the fundamental matrix), from the tree matrices
compiled to floats once per (manifold, mu) and kept on the manifold.  Each run
of RK4 steps, a segment's or a geodesic's, is one Python loop generated for
the nonzero pattern of the A_i and shared by every manifold of that pattern:
each v^i A_i entry product is formed once for all jets, and the excluded-locus
and finiteness checks run inside the loop; the geodesics of `projective` carry
jets through the same generator, in its (x, v, jets) form.  Float faults in
transport are reported by `expr.float_faults`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    tower: ex.Tower
    grids: tuple  # one (m+1)x(m+1) grid of RationalFunc in the tower per coordinate

    @property
    def dim(self) -> int:
        return self.manifold.dim

    @property
    def jet_size(self) -> int:
        return self.manifold.dim + 1


def tree_matrices(manifold: geo.AffineManifold, mu: Fraction) -> tuple:
    """The A_i as trees from the tree Ricci, built only for transport's float compile."""
    rho_s = manifold.ricci_parts.sym
    return _jet_grids(manifold.gamma, ex.ZERO, ex.ONE,
                      lambda i, j: ex.simplify_rational(mu * rho_s.comp(i, j)))


def _jet_grids(gamma, zero, one, lead) -> tuple:
    """A_i: the row e_(1+i), then (lead(i, j), G_ij^1, ..., G_ij^m); a None symbol is zero."""
    m = len(gamma)
    return tuple((tuple(one if b == 1 + i else zero for b in range(m + 1)),
                  *((lead(i, j), *(s or zero for s in gamma[i][j])) for j in range(m)))
                 for i in range(m))


def build_jet_system(manifold: geo.AffineManifold, mu) -> JetSystem:
    """First-order form of the eigen-equation: d_i d_j f = G_ij^k d_k f + mu rho_s_ij f."""
    mu = Fraction(mu)
    tower, g, rho_sums = manifold.jet_data
    half_mu = RationalFunc.const(mu / 2)
    grids = _jet_grids(g, RationalFunc.const(0), RationalFunc.const(1),
                       lambda i, j: half_mu * rho_sums[i][j])
    return JetSystem(manifold, mu, tower, grids)


# --------------------------------------------------------------------------
# constraints


def row_values(row, point) -> tuple:
    """A row's entries at (coordinates, atom values): Fractions, or floats by `expr.finite`."""
    if not isinstance(point[0], float):
        return tuple(e.eval(point) for e in row)
    with float_faults():
        return ex.finite(e.eval(point) for e in row)


def is_zero_row(row) -> bool:
    return all(e.is_zero for e in row)


@dataclass
class ConstraintStack:
    rows: list  # tuples of jet_size RationalFunc in the tower; the constraint is row . u = 0
    seen: set  # the rows as a set: `prolong` copies it, so no row is hashed twice

    def effective_rows(self) -> list:
        return [r for r in self.rows if not is_zero_row(r)]


def _prolong_row(system: JetSystem, row: tuple, direction: int) -> tuple:
    """P_i(c) = D_i c + c . A_i, valid on solution jets whenever c . u = 0 is."""
    a = system.grids[direction]
    n = system.jet_size
    new = []
    for b in range(n):
        total = system.tower.diff(row[b], direction)
        for s in range(n):
            if row[s].is_zero or a[s][b].is_zero:
                continue
            total = total + row[s] * a[s][b]
        new.append(total)
    return tuple(new)


def integrability_constraints(system: JetSystem) -> ConstraintStack:
    """Generation-0 stack: on a solution d_i(A_j u) = d_j(A_i u), and row a of
    A_j u prolongs along i to P_i(A_j[a]) . u, so P_i(A_j[a]) - P_j(A_i[a])
    (row a of d_i A_j - d_j A_i + A_j A_i - A_i A_j) annihilates solution jets."""
    rows = []
    for i in range(system.dim):
        for j in range(i + 1, system.dim):
            for a_j, a_i in zip(system.grids[j], system.grids[i]):
                rows.append(tuple(p - q for p, q in zip(_prolong_row(system, a_j, i),
                                                        _prolong_row(system, a_i, j))))
    return ConstraintStack(rows, set(rows))


def prolong(system: JetSystem, stack: ConstraintStack, rows: Sequence[tuple]) -> ConstraintStack:
    """Append P_i of every given row along every direction i, less zero and repeated rows."""
    new_rows, seen = list(stack.rows), set(stack.seen)
    for row in rows:
        for i in range(system.dim):
            new = _prolong_row(system, row, i)
            if not is_zero_row(new) and new not in seen:
                seen.add(new)
                new_rows.append(new)
    return ConstraintStack(new_rows, seen)


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
    consecutive generations (or the kernel is already empty, which an exact
    solve sees row by row); hitting the generation cap without that is
    reported via ``stabilized=False``.
    """
    manifold.check_point(basepoint)
    system = build_jet_system(manifold, mu)
    n = system.jet_size
    cap = max_generations if max_generations is not None else 2 * manifold.dim + 6
    # a double is a dyadic rational, so Fraction(c) ranks data with no atom exactly at c itself
    exact = not system.tower.atoms
    try:
        point = tuple(map(Fraction, basepoint) if exact else ex.float_values(basepoint))
    except (OverflowError, ValueError):  # Fraction() of an inf or nan: `expr.evaluate`'s error
        raise ex.DomainError("a coordinate is not finite") from None
    with float_faults():
        at = point if exact else point + ex.finite(ex.compile_float(system.tower.atoms)(point))
    # a pole of a jet-system entry at the point is a DomainError, even where no row reads it
    dens = tuple(e.den for grid in system.grids for row in grid for e in row)
    if not all(row_values(dens, at)):
        raise ex.DomainError(f"pole of the symbols at the basepoint ({', '.join(map(str, point))})")

    def generation(sources):
        # the rows of prolong(stack, sources), made one source row at a time
        nonlocal stack
        for source in sources:
            before = len(stack.rows)
            stack = prolong(system, stack, [source])
            yield from stack.rows[before:]

    stack = integrability_constraints(system)
    rows = stack.effective_rows()
    reducer = RowReducer(n)
    float_rows: list = []
    history: list = []
    while True:
        latest = []
        for row in rows:
            latest.append(row)
            if not exact:
                float_rows.append(row_values(row, at))
            elif reducer.add_row(row_values(row, at)) and reducer.rank == n:
                break  # full rank: the rest of the generation cannot change it
        rank, kernel = (reducer.rank, None) if exact else float_rank_kernel(float_rows, n)
        history.append(rank)
        stabilized = (rank == n or not latest
                      or len(history) >= 3 and rank == history[-2] == history[-3])
        if stabilized or len(history) > cap:
            break
        rows = generation(latest)

    return SolutionSpace(
        basepoint=point,
        mu=Fraction(mu),
        dim=n - rank,
        basis=tuple(reducer.kernel_basis() if exact else kernel),
        rank_history=tuple(history),
        stabilized=stabilized,
        exact=exact,
    )


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


@lru_cache(maxsize=64)
def _rk4_maker(m: int, count: int, tables: tuple, gamma: tuple | None, guards: int,
               moving: tuple | None):
    """Generate a loop of classical RK4 steps (Hairer-Norsett-Wanner, Solving
    ODEs I, II.1), each straight-line Python for a pattern shared by all its
    manifolds; ``make(manifold, fns, gamma, steps, c=(), v=())`` returns the run.

    ``tables`` holds the (row - 1, column) of each nonzero entry of each A_i
    below its unit row e_(1+i), which is compiled nowhere, and ``count`` jets
    evolve by d_t u = v^i A_i(x) u.  Without ``gamma``, x runs along c + t v,
    only the ``moving`` directions are written out, and ``run(y, signs)``
    checks each step's end point against the ``guards`` before the step.  With
    the (i, j, k) of the nonzero Christoffel symbols the state is a geodesic's
    (x, v, jets), d_t v^k = -G_ij^k v^i v^j, with v^i != 0 tested at run time;
    ``run(y, signs, trail, limit)`` checks x after each step, appends the state
    to ``trail`` and stops once x is farther than ``limit`` from its start.
    Each step ends by checking that the state (its sum first) is finite.
    Terms are added in a fixed order: directions, entries, jets; each v^i A_i[q]
    is formed once for all jets, and the unit entry A_i[0][1+i] adds v^i
    itself.  A segment's stage 1 reuses the last step's end-point products when
    it starts at that end time (a pure callable repeats its bits), and its sums
    start at their first term, not at 0.0 as a geodesic's do.  The floats
    agree: 0.0 + a == a but for a = -0.0, whose sign y + z drops unless y is
    -0.0, and a state read + 0.0 never is (y + z is -0.0 only if y is).
    """
    head = 0 if gamma is None else 2 * m  # x and v lead a geodesic's state
    size = head + count * (m + 1)
    first = head // 2  # a geodesic's dx/dt is its v, so slopes accumulate from m
    body: list = []

    def products(i: int, velocity: str, x: str) -> list:
        unpack = "".join(f"a{i}_{q}, " for q in range(len(tables[i])))
        return [f"{unpack}= f{i}({x})",
                *(f"p{i}_{q} = {velocity} * a{i}_{q}" for q in range(len(tables[i])))]

    def stage(s: int, state: list, x: str | None) -> list:
        # without a point ``x`` the stage reuses the products already formed
        k = [f"k{s}_{j}" for j in range(size)]
        velocity = [f"v{i}" for i in range(m)] if gamma is None else state[m:head]
        seen: set = set()

        def add(total: str, term: str) -> str:  # a segment's sum takes its first term by =
            again = gamma is not None or total in seen or seen.add(total)  # add returns None
            return f"{total} {'+=' if again else '='} {term}"
        lines = [f"{k[m + c]} -= g[{q}] * {velocity[i]} * {velocity[j]}"
                 for q, (i, j, c) in enumerate(gamma or ())]
        for i, pairs in enumerate(tables):
            if gamma is None and not moving[i]:
                continue
            # the unit row e_(1+i) comes first and adds v^i itself: v * 1.0 == v
            block = [add(k[o], f"{velocity[i]} * {state[o + 1 + i]}")
                     for o in range(head, size, m + 1)]
            block += products(i, velocity[i], x) if x is not None and pairs else []
            block += [add(k[o + 1 + r], f"p{i}_{q} * {state[o + b]}")
                      for q, (r, b) in enumerate(pairs) for o in range(head, size, m + 1)]
            lines += block if gamma is None else [f"if {velocity[i]} != 0.0:",
                                                  *("    " + line for line in block)]
        zeros = [total for total in k[first:] if total not in seen]
        if gamma is not None:
            body.extend([f"x = ({', '.join(state[:m])},)", "g = gamma(x)"])
        body.extend([" = ".join(zeros) + " = 0.0"] * bool(zeros) + lines)
        return velocity[:first] + k[first:]

    def advance(s: int, factor: str, slopes: list) -> list:
        state = [f"s{s}_{j}" for j in range(size)]
        body.extend(f"{state[j]} = y{j} + {factor} * {slopes[j]}" for j in range(size))
        return state

    def point(t: str) -> str:
        return "(" + "".join(f"c{i} + {t} * v{i}, " for i in range(m)) + ")"

    y = [f"y{j}" for j in range(size)]
    state = f"({', '.join(y)},)"
    sides = " and ".join(f"(d{i} > 0.0 if side{i} else d{i} < 0.0)" for i in range(guards))
    guard = ["".join(f"d{i}, " for i in range(guards)) + "= guards(end)", f"if not ({sides}):",
             "    locus_sides(manifold, end, signs)"] if guards else []
    before = [f"{state} = y"]
    if gamma is None:  # the end point is known before the step; its products start the next
        before = [f"{state} = [c + 0.0 for c in y]", "last = -1.0"]  # + 0.0 clears -0.0
        body += ["t0 = number * h", "t = t0 + h", f"end = {point('t')}", *guard]
        if start := [line for i, pairs in enumerate(tables) if moving[i] and pairs
                     for line in products(i, f"v{i}", "x")]:
            body += ["if t0 != last:", f"    x = {point('t0')}",
                     *("    " + line for line in start), "last = t"]
    k1 = stage(1, y, None if gamma is None else "x")
    if gamma is None:
        body += ["t = t0 + half", f"x = {point('t')}"]
    k2 = stage(2, advance(2, "half", k1), "x")
    k3 = stage(3, advance(3, "half", k2), None if gamma is None else "x")
    k4 = stage(4, advance(4, "h", k3), "end" if gamma is None else "x")
    # in order: a geodesic's x reads the old v, which follows it in the state
    body += [f"y{j} = y{j} + sixth * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"
             for j, (a, b, c, d) in enumerate(zip(k1, k2, k3, k4))]
    body += [f"if not isfinite({' + '.join(y)}) and not ("
             + " and ".join(f"isfinite({j})" for j in y) + "):",
             "    raise DomainError('integration produced non-finite values')"]
    before += ["".join(f"side{i}, " for i in range(guards)) + "= signs"] if guards else []
    if gamma is not None:  # the step's end point is its new x; o is the start's
        before.append("".join(f"o{i}, " for i in range(m)) + f"= y[:{m}]")
        body += [f"end = ({', '.join(y[:m])},)", *guard, f"trail.append({state})",
                 "if limit is not None and sqrt(sum(("
                 + "".join(f"(y{i} - o{i}) ** 2, " for i in range(m)) + "))) > limit:", "    break"]
    bind = ["h = 1.0 / steps", "half = h / 2", "sixth = h / 6"]
    if guards:
        bind.append("guards = manifold.float_guards")
    if tables:
        bind.append("".join(f"f{i}, " for i in range(len(tables))) + "= fns")
    if gamma is None:
        bind += ["".join(f"{name}{i}, " for i in range(m)) + f"= {name}" for name in "cv"]
    source = "\n    ".join(["def make(manifold, fns, gamma, steps, c=(), v=()):", *bind,
                            "def run(y, signs, trail=None, limit=None):",
                            *("    " + line for line in before), "    for number in range(steps):",
                            *("        " + line for line in body), f"    return {state}",
                            "return run"])
    namespace: dict = {}
    exec(source, {"isfinite": math.isfinite, "sqrt": math.sqrt, "DomainError": ex.DomainError,
                  "locus_sides": locus_sides}, namespace)  # noqa: S102
    return namespace["make"]


def rk4_run(manifold: geo.AffineManifold, mu, count: int, steps: int, segment=None):
    """A generated run of ``steps`` RK4 steps of size 1/steps moving ``count``
    jets by d_t u = v^i A_i u at mu: along the straight ``segment`` (c, v) as
    ``run(y, signs)``, else along a geodesic as ``run(y, signs, trail, limit)``.
    The A_i are compiled once per (manifold, mu) and kept on the manifold."""
    gamma_indices, gamma = (None, None) if segment else manifold.float_gamma
    compiled = manifold.float_jet_systems
    mu = Fraction(mu)
    if count and mu not in compiled:
        compiled[mu] = [ex.compile_symbols(a_i[1:]) for a_i in tree_matrices(manifold, mu)]
    tables = compiled[mu] if count else ()
    make = _rk4_maker(manifold.dim, count, tuple(indices for indices, _ in tables), gamma_indices,
                      len(manifold.excluded), segment and tuple(v != 0.0 for v in segment[1]))
    return make(manifold, [fn for _, fn in tables], gamma, steps, *segment or ())


def _is_batch(u0) -> bool:
    return len(u0) > 0 and isinstance(u0[0], (list, tuple))


def transport_jet(manifold: geo.AffineManifold, mu, path, u0,
                  steps_per_segment: int = 1000):
    """Integrate d_t u = velocity^i A_i u along a polyline with classical RK4.

    ``u0`` is one jet, or a list of jets moved in one run (the m+1 basis jets
    move as the fundamental matrix); the result has the same form.  A
    zero-length segment leaves the jets as they are.
    """
    jets = [ex.float_values(jet) for jet in (u0 if _is_batch(u0) else [u0])]
    n = manifold.dim + 1
    if any(len(jet) != n for jet in jets):
        raise ValueError(f"jet must have {n} components")
    points = [ex.float_values(point) for point in path]
    if not points:
        raise ValueError("path has no points")
    if steps_per_segment < 1:
        raise ValueError("a segment needs at least one step")
    mu = Fraction(mu)  # outside float_faults, which reads any ValueError as a log domain error
    state = [c for jet in jets for c in jet]
    with float_faults():
        signs = locus_sides(manifold, points[0])
        for line, stop in zip(points, points[1:]):
            velocity = [b - a for a, b in zip(line, stop)]
            if any(velocity):
                run = rk4_run(manifold, mu, len(jets), steps_per_segment, (line, velocity))
                state = run(state, signs)
            else:
                locus_sides(manifold, line, signs)
    moved = [list(state[o:o + n]) for o in range(0, len(state), n)]
    return moved if _is_batch(u0) else moved[0]


def holonomy_defect(manifold: geo.AffineManifold, mu, loop, u0,
                    steps_per_segment: int = 1000):
    """Norm of (transport around the closed loop) - identity applied to u0; a
    list of jets moves in one run and gives one defect per jet."""
    if not loop:
        raise ValueError("loop has no points")
    first, last = ex.float_values(loop[0]), ex.float_values(loop[-1])
    if any(abs(a - b) > 0.0 for a, b in zip(first, last)):
        raise ValueError("loop is not closed")
    jets = u0 if _is_batch(u0) else [u0]
    moved = transport_jet(manifold, mu, loop, jets, steps_per_segment)
    defects = [math.sqrt(sum((t - float(u)) ** 2 for t, u in zip(after, jet)))
               for after, jet in zip(moved, jets)]
    return defects if _is_batch(u0) else defects[0]
