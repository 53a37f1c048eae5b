"""Projective deformations of connections and flatness machinery.

A 1-form omega deforms a connection by G~_ij^k = G_ij^k + d_i^k w_j + d_j^k w_i
(this orientation is fixed once at the API boundary; the opposite convention
differs by omega -> -omega).  Closed omega = dg gives *strong* deformations,
which preserve unparametrized geodesics, the alternating Ricci tensor, and the
solution space at the distinguished eigenvalue -1/(m-1) via f -> e^g f.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import expr as ex
from . import geometry as geo
from . import qe_solver as qs
from .expr import DomainError, ScalarExpr, Verdict, combine_verdicts
from .poly import RationalFunc


class FlatnessError(DomainError):
    """A flat-chart operation was attempted outside its regime."""


# --------------------------------------------------------------------------
# deformations


@dataclass(frozen=True)
class ProjectiveChange:
    """A 1-form, optionally presented as dg for an explicit potential g."""

    omega: tuple
    potential: ScalarExpr | None = None

    def __post_init__(self):
        if self.potential is not None:
            for i, w in enumerate(self.omega):
                derivative = ex.differentiate(self.potential, i)
                if derivative != w and \
                        ex.is_identically_zero(derivative - w) is Verdict.NONZERO:
                    raise ValueError(
                        f"potential derivative along x{i + 1} does not match omega")

    @classmethod
    def from_potential(cls, potential: ScalarExpr, dim: int) -> "ProjectiveChange":
        ex.check_defined(potential)
        omega = tuple(ex.differentiate(potential, i) for i in range(dim))
        return cls(omega, potential)

    @property
    def dim(self) -> int:
        return len(self.omega)


def _as_change(omega, dim: int) -> ProjectiveChange:
    if isinstance(omega, ProjectiveChange):
        if omega.dim != dim:
            raise ValueError("1-form dimension does not match the manifold")
        return omega
    return ProjectiveChange(tuple(ex.as_expr(w) for w in omega))


def is_strong(change: ProjectiveChange) -> Verdict:
    """Closedness of the 1-form: d_i w_j - d_j w_i identically zero."""
    if change.potential is not None:
        return Verdict.ZERO
    verdicts = []
    for i in range(change.dim):
        for j in range(i + 1, change.dim):
            verdicts.append(ex.is_identically_zero(
                ex.differentiate(change.omega[j], i)
                - ex.differentiate(change.omega[i], j)))
    return combine_verdicts(verdicts)


def _pole_locus(omega: Sequence[ScalarExpr]) -> list:
    poles = []
    for w in omega:
        if not w.rational_only:
            continue
        rf = ex.to_ratfunc(w)
        if not rf.den.is_constant:
            poles.append(ex.from_ratfunc(RationalFunc(rf.den)))
    return poles


def deform(manifold: geo.AffineManifold, omega) -> geo.AffineManifold:
    """Deformed connection G + delta (x) omega + omega (x) delta.

    Poles of rational omega components join the excluded locus automatically.
    Singularities of exp/log components (a log argument vanishing, say) are not
    detected and do not join it.
    """
    change = _as_change(omega, manifold.dim)
    m = manifold.dim

    def fill(i, j, k):
        total = manifold.gamma[i][j][k]
        if i == k:
            total = total + change.omega[j]
        if j == k:
            total = total + change.omega[i]
        return ex.simplify_rational(total)

    grid = tuple(tuple(tuple(fill(i, j, k) for k in range(m))
                       for j in range(m)) for i in range(m))
    excluded = list(manifold.excluded)
    for pole in _pole_locus(change.omega):
        if all(pole != g for g in excluded):
            excluded.append(pole)
    return geo.AffineManifold(manifold.coords, grid, tuple(excluded))


def ricci_transform_residual(manifold: geo.AffineManifold,
                             potential: ScalarExpr) -> geo.TensorField:
    """Raw rho_s(deformed) - rho_s + (m-1)(H g - dg (x) dg); identically zero always."""
    m = manifold.dim
    change = ProjectiveChange.from_potential(potential, m)
    deformed = deform(manifold, change)
    rho_before = manifold.ricci_parts.sym
    rho_after = deformed.ricci_parts.sym
    hess = geo.hessian(manifold, potential)
    dg = change.omega

    def fill(i, j):
        correction = (m - 1) * (hess.comp(i, j) - dg[i] * dg[j])
        return rho_after.comp(i, j) - rho_before.comp(i, j) + correction

    return geo.tensor_from((m, m), fill)


# --------------------------------------------------------------------------
# flatness


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    dim: int
    surface_symmetry: Verdict | None  # total symmetry of rho and grad rho (m = 2)
    criteria_agree: bool | None


def strong_flatness_test(manifold: geo.AffineManifold, basepoint) -> FlatnessReport:
    """Maximal solution space at -1/(m-1) detects strong projective flatness.

    On surfaces the independent symmetry criterion (rho and grad rho totally
    symmetric) is evaluated as well and the agreement of the two is reported.
    """
    mu_m = qs.distinguished_eigenvalue(manifold.dim)
    space = qs.solution_dimension(manifold, mu_m, basepoint)
    flat = space.dim == manifold.dim + 1
    surface_symmetry = None
    agree = None
    if manifold.dim == 2:
        sym_rho = geo.is_totally_symmetric(manifold.ricci_parts.full)
        sym_nabla = geo.is_totally_symmetric(geo.nabla_ricci(manifold))
        surface_symmetry = combine_verdicts([sym_rho, sym_nabla])
        agree = bool(surface_symmetry) == flat
    return FlatnessReport(flat, space.dim, surface_symmetry, agree)


@dataclass(frozen=True)
class FlatChart:
    """Straightening chart built from jet-normalized solutions z^i = phi_i/phi_0."""

    basepoint: tuple
    jet_basis: tuple          # m+1 jets, Theta(phi_i) = e_i
    grid_points: tuple
    z_values: tuple           # per grid point, the m chart values
    base_z: tuple             # z evaluated at the basepoint via a closed path
    base_jacobian: tuple      # dz at the basepoint via a closed path

    @property
    def dim(self) -> int:
        return len(self.base_z)


def _chart_image(jets) -> tuple:
    """z^i = phi_i/phi_0 and its x-Jacobian from the m+1 basis jets at a point."""
    phi0 = jets[0]
    if abs(phi0[0]) < 1e-12:
        raise FlatnessError("phi_0 vanishes on the grid; shrink the chart region")
    z = [jets[i][0] / phi0[0] for i in range(1, len(jets))]
    jac = [[(jets[i][1 + j] * phi0[0] - jets[i][0] * phi0[1 + j]) / phi0[0] ** 2
            for j in range(len(jets) - 1)] for i in range(1, len(jets))]
    return tuple(z), tuple(tuple(row) for row in jac)


def flat_chart(manifold: geo.AffineManifold, basepoint, grid,
               steps_per_segment: int = 1000) -> FlatChart:
    """Build the straightening chart near a basepoint of a maximal-dimension space.

    The solution jets with Theta(phi_i) = e_i are transported from the basepoint
    to every grid point; the base invariants (z = 0, dz = identity) are measured
    along a short out-and-back path so they reflect real transport error.
    """
    m = manifold.dim
    mu_m = qs.distinguished_eigenvalue(m)
    space = qs.solution_dimension(manifold, mu_m, basepoint)
    if space.dim != m + 1:
        raise FlatnessError(
            f"solution space has dimension {space.dim} < {m + 1}; no flat chart")
    # the kernel is the whole jet space, so the normalized basis is standard
    jet_basis = tuple(tuple(Fraction(1) if a == i else Fraction(0)
                            for a in range(m + 1)) for i in range(m + 1))
    z_values = []
    base = tuple(ex.float_values(basepoint))
    points = [tuple(ex.float_values(point)) for point in grid]
    for point in points:
        z, _ = _chart_image(qs.transport_jet(
            manifold, mu_m, [base, point], jet_basis, steps_per_segment))
        z_values.append(z)
    # out and back in x1: 0.1 long, or the grid's reach if shorter and nonzero
    reach = min(0.1, max((abs(c - b) for p in points for c, b in zip(p, base)), default=0.0))
    probe = tuple(c + ((reach or 0.1) if i == 0 else 0.0) for i, c in enumerate(base))
    base_z, base_jac = _chart_image(qs.transport_jet(
        manifold, mu_m, [base, probe, base], jet_basis, steps_per_segment))
    return FlatChart(base, jet_basis, tuple(tuple(p) for p in grid),
                     tuple(z_values), base_z, base_jac)


def base_invariant_errors(chart: FlatChart) -> tuple:
    """(max |z(P)|, max |dz(P) - id|) from the closed-path measurement."""
    z_err = max(abs(v) for v in chart.base_z)
    jac_err = max(abs(chart.base_jacobian[i][j] - (1.0 if i == j else 0.0))
                  for i in range(chart.dim) for j in range(chart.dim))
    return z_err, jac_err


def chart_radius(manifold: geo.AffineManifold, basepoint) -> float:
    """Quarter of the (first-order) distance to the excluded locus, at most 0.5."""
    point = ex.float_values(basepoint)
    best = 2.0
    for g in manifold.excluded:
        guard = [g, *(ex.differentiate(g, i) for i in range(manifold.dim))]
        value, *grad = ex.evaluate(guard, point)
        norm = math.hypot(*grad)
        if norm > 0:
            best = min(best, abs(value) / norm)
    return best / 4


def box_grid(basepoint, radius: float, per_axis: int = 3) -> list:
    """Axis-aligned grid of (2*per_axis+1)^m points around the basepoint."""
    base = ex.float_values(basepoint)
    offsets = [radius * k / per_axis for k in range(-per_axis, per_axis + 1)]
    points = [()]
    for c in base:
        points = [p + (c + o,) for p in points for o in offsets]
    return points


# --------------------------------------------------------------------------
# geodesics


def integrate_geodesic(manifold: geo.AffineManifold, start, velocity,
                       horizon: float, steps: int = 400,
                       max_distance: float | None = None, jets: Sequence | None = None):
    """Ten evenly spaced samples of the geodesic through (start, velocity) up
    to ``horizon``, plus its start.

    Geodesics are affinely parametrized, so coordinate speed may grow; when
    ``max_distance`` is given, integration stops once the trajectory leaves
    that ball around the start; each step's end point must stay off the excluded
    locus.  Given ``jets``, they move in the same run by d_t u = v^i A_i u at
    -1/(m-1), and the result is (samples, the moved jets at each sample).
    """
    if steps < 1:
        raise ValueError("a geodesic needs at least one step")
    m = manifold.dim
    run = qs.rk4_run(manifold, qs.distinguished_eigenvalue(m), len(jets or ()), steps)
    origin = ex.float_values(start)
    # the state is (x, v), reparametrized to unit time, then the stacked jets
    state = origin + [c * horizon for c in ex.float_values(velocity)] + \
        ex.float_values(c for jet in jets or () for c in jet)
    trail = [state]
    with ex.float_faults():
        run(state, qs.locus_sides(manifold, origin), trail, max_distance)
    if len(trail) < 3:
        raise DomainError("geodesic left the region immediately")
    picks = sorted({round(i * (len(trail) - 1) / 10) for i in range(11)})
    points = [tuple(trail[i][:m]) for i in picks]
    if jets is None:
        return points
    return points, [[list(trail[i][o:o + m + 1]) for o in range(2 * m, len(state), m + 1)]
                    for i in picks]


def _deviation_from_chord(points) -> float:
    first = points[0]
    last = points[-1]
    chord = [b - a for a, b in zip(first, last)]
    length = math.sqrt(sum(c * c for c in chord))
    if length == 0:
        raise DomainError("degenerate geodesic image")
    worst = 0.0
    for p in points[1:-1]:
        rel = [c - a for a, c in zip(first, p)]
        t = sum(r * c for r, c in zip(rel, chord)) / length ** 2
        perp = [r - t * c for r, c in zip(rel, chord)]
        worst = max(worst, math.sqrt(sum(c * c for c in perp)) / length)
    return worst


def geodesic_straightness(manifold: geo.AffineManifold, chart: FlatChart,
                          n_geodesics: int, rng: random.Random,
                          steps_per_segment: int = 400) -> float:
    """Max normalized deviation of chart images of geodesics from straight chords.

    Each geodesic is one run of ``steps_per_segment`` steps carrying the
    chart's basis jets (the chart's maximal solution space has trivial
    holonomy, so any path gives the same images).  The horizon starts at the
    chart grid's extent; it shrinks and the geodesic is retried when it leaves
    the chart region (phi_0 near zero or the excluded locus); persistent
    failure raises.
    """
    m = manifold.dim
    base = chart.basepoint
    span = max(abs(b - a) for p in chart.grid_points for a, b in zip(base, p))
    if span == 0:
        raise FlatnessError("the chart grid has no points besides the basepoint")
    worst = 0.0
    for _ in range(n_geodesics):
        direction = [rng.uniform(-1, 1) for _ in range(m)]
        norm = math.sqrt(sum(c * c for c in direction)) or 1.0
        direction = [c / norm for c in direction]
        radius = span
        for _attempt in range(4):
            try:
                _, moved = integrate_geodesic(manifold, base, direction, radius,
                                              steps=steps_per_segment,
                                              max_distance=radius, jets=chart.jet_basis)
                images = [_chart_image(jets)[0] for jets in moved]
                worst = max(worst, _deviation_from_chord(images))
                break
            except (DomainError, geo.ExcludedLocusError):
                radius /= 2
        else:
            raise FlatnessError("geodesic kept leaving the chart region")
    return worst

