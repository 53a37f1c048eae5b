"""Neutral-signature metrics on the cotangent bundle of an affine manifold.

The deformed extension of a connection with symbols G_ij^k and a symmetric
tensor Phi is the 2m-dimensional metric

    g = dx^i (.) dy_i + {Phi_ij - 2 y_k G_ij^k} dx^i (x) dx^j

(the mixed terms read as the symmetric pairing).  Its components are degree-1
polynomials in the fiber coordinates, so metrics, inverses and connections are
expression trees on the chart enlarged from m to 2m coordinates; the
Levi-Civita symbols of a rational metric are computed in `RationalFunc`.
The pullback identities and the quasi-Einstein residual of one metric value
share one Levi-Civita chart and its Ricci tensor, kept for the last metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from . import expr as ex
from . import geometry as geo
from .expr import DomainError, ScalarExpr, Verdict


@dataclass(frozen=True)
class PseudoMetric:
    """Symmetric metric grid on a 2m chart (x^1..x^m, y_1..y_m); m is read off the grid."""

    coords: tuple
    components: tuple
    excluded: tuple = ()

    def __post_init__(self):
        n = len(self.components)
        if not n or n % 2 or len(self.coords) != n or any(len(r) != n for r in self.components):
            raise ValueError(f"a metric needs a 2m x 2m grid on 2m coordinates, not {n} rows "
                             f"on {len(self.coords)} coordinates")

    @property
    def n(self) -> int:
        return len(self.components)

    def comp(self, a: int, b: int) -> ScalarExpr:
        return self.components[a][b]

    @cached_property
    def inverse(self) -> tuple:
        """The exact inverse component grid, computed once per metric."""
        return inverse_metric(self)


def _symmetric_or_raise(grid, size, what):
    for i in range(size):
        for j in range(i + 1, size):
            if grid[i][j] != grid[j][i] \
                    and ex.is_identically_zero(grid[i][j] - grid[j][i]) is Verdict.NONZERO:
                raise ValueError(f"{what} is not symmetric at ({i + 1},{j + 1})")


def deformed_extension(manifold: geo.AffineManifold,
                       phi: Sequence | None = None) -> PseudoMetric:
    """The neutral metric with xx-block Phi_ij - 2 y_k G_ij^k."""
    m = manifold.dim
    if phi is None:
        phi = [[ex.ZERO] * m for _ in range(m)]
    phi = [[ex.as_expr(entry) for entry in row] for row in phi]
    if len(phi) != m or any(len(row) != m for row in phi):
        raise ValueError(f"deformation tensor must be {m}x{m}")
    _symmetric_or_raise(phi, m, "deformation tensor")
    coords = tuple(manifold.coords) + tuple(f"y{i + 1}" for i in range(m))

    def fill(a, b):
        if a < m and b < m:
            total = phi[a][b]
            for k in range(m):
                total = total - 2 * ex.coord(m + k) * manifold.gamma[a][b][k]
            return ex.simplify_rational(total)
        if a < m <= b:
            return ex.ONE if b - m == a else ex.ZERO
        if b < m <= a:
            return ex.ONE if a - m == b else ex.ZERO
        return ex.ZERO

    grid = tuple(tuple(fill(a, b) for b in range(2 * m)) for a in range(2 * m))
    return PseudoMetric(coords, grid, excluded=manifold.excluded)


def metric_from_grid(coords, grid, excluded=()) -> PseudoMetric:
    metric = PseudoMetric(tuple(coords), tuple(tuple(ex.as_expr(e) for e in row) for row in grid),
                          excluded=tuple(excluded))
    _symmetric_or_raise(metric.components, metric.n, "metric")
    return metric


# --------------------------------------------------------------------------
# inverse metric


def _determinant(grid, rows, cols):
    if len(rows) == 1:
        return grid[rows[0]][cols[0]]
    total = ex.ZERO
    top = rows[0]
    for position, col in enumerate(cols):
        minor = _determinant(grid, rows[1:], cols[:position] + cols[position + 1:])
        term = grid[top][col] * minor
        total = total + (term if position % 2 == 0 else ex.neg(term))
    return ex.simplify_rational(total)


def inverse_metric(metric: PseudoMetric) -> tuple:
    """Exact inverse component grid.

    Metrics whose components have the form of a deformed extension (identity
    dx-dy pairing, zero yy-block) use the closed form: zero xx-block, identity
    pairing, yy-block the negative of the xx-block.  General metrics go
    through the adjugate, rejecting an identically-degenerate determinant.
    """
    n = metric.n
    m = n // 2
    if all(metric.comp(a, m + b) == metric.comp(m + b, a) == (ex.ONE if a == b else ex.ZERO)
           and metric.comp(m + a, m + b) == ex.ZERO for a in range(m) for b in range(m)):
        def fill(a, b):
            if a < m and b < m:
                return ex.ZERO
            if a < m <= b:
                return ex.ONE if b - m == a else ex.ZERO
            if b < m <= a:
                return ex.ONE if a - m == b else ex.ZERO
            return ex.simplify_rational(ex.neg(metric.comp(a - m, b - m)))

        return tuple(tuple(fill(a, b) for b in range(n)) for a in range(n))
    everything = tuple(range(n))
    det = _determinant(metric.components, everything, everything)
    if ex.is_identically_zero(det) is not Verdict.NONZERO:
        raise DomainError("metric is degenerate")
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            rows = tuple(r for r in everything if r != b)
            cols = tuple(c for c in everything if c != a)
            cofactor = _determinant(metric.components, rows, cols)
            sign = 1 if (a + b) % 2 == 0 else -1
            row.append(ex.simplify_rational(sign * cofactor / det))
        out.append(tuple(row))
    return tuple(out)


# --------------------------------------------------------------------------
# the Levi-Civita connection


def levi_civita(metric: PseudoMetric) -> geo.AffineManifold:
    """The torsion-free metric connection as an affine chart on the metric's
    coordinates: Koszul symbols (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).

    A rational metric and its inverse are converted to `RationalFunc` once and
    each symbol is rebuilt as a tree at the end; exp/log metrics stay trees.
    Only nonzero g^{kl} and brackets enter the sums.  When the converted grid
    is symmetric as pairs, the symbols of (j, i) are those of (i, j): sums of
    pairs commute, while ordered tree sums of exp/log metrics do not."""
    n = metric.n
    grids = (metric.components, metric.inverse)
    rational = all(e.rational_only for grid in grids for row in grid for e in row)
    if rational:
        convert, rebuild = ex.to_ratfunc, ex.from_ratfunc
    else:
        convert, rebuild = (lambda e: e), ex.simplify_rational
    g, inverse = ([[convert(e) for e in row] for row in grid] for grid in grids)
    zero, half = convert(ex.ZERO), convert(ex.const(Fraction(1, 2)))
    dgrid = [[[g[j][l].diff(i) for l in range(n)] for j in range(n)] for i in range(n)]

    def symbols(i, j):
        bracket = [dgrid[i][j][l] + dgrid[j][i][l] - dgrid[l][i][j] for l in range(n)]
        nonzero = [l for l in range(n) if not bracket[l].is_zero]

        def fill(k):
            total = sum((inverse[k][l] * bracket[l] for l in nonzero
                         if not inverse[k][l].is_zero), zero)
            return rebuild(half * total)

        return tuple(fill(k) for k in range(n))

    mirror = rational and all(g[a][b] == g[b][a] for a in range(n) for b in range(a + 1, n))
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            grid[i][j] = grid[j][i] if mirror and j < i else symbols(i, j)
    return geo.AffineManifold(metric.coords, tuple(map(tuple, grid)), metric.excluded)


@lru_cache(maxsize=1)
def _shared_connection(metric: PseudoMetric) -> geo.AffineManifold:
    """`levi_civita` of the last metric value asked for, with its cached Ricci."""
    return levi_civita(metric)


# --------------------------------------------------------------------------
# pullback identities


@dataclass(frozen=True)
class ExtensionResiduals:
    hessian_defect: geo.TensorField   # H_g(pullback f) - pullback(H f)
    ricci_defect: geo.TensorField     # rho_g - 2 pullback(rho_s)
    null_gradient: ScalarExpr         # |d pullback f|^2_g


def extension_identities_residuals(manifold: geo.AffineManifold,
                                   phi, f: ScalarExpr) -> ExtensionResiduals:
    """Raw residuals of the three pullback identities; all vanish for any Phi."""
    m = manifold.dim
    metric = deformed_extension(manifold, phi)
    conn = _shared_connection(metric)
    n = metric.n

    lifted_hessian = geo.hessian(conn, f)
    base_hessian = geo.hessian(manifold, f)

    def hess_fill(a, b):
        want = base_hessian.comp(a, b) if a < m and b < m else ex.ZERO
        return lifted_hessian.comp(a, b) - want

    rho_total = conn.ricci_parts.full
    rho_base = manifold.ricci_parts.sym

    def ricci_fill(a, b):
        want = 2 * rho_base.comp(a, b) if a < m and b < m else ex.ZERO
        return rho_total.comp(a, b) - want

    inverse = metric.inverse
    df = [ex.differentiate(f, a) for a in range(n)]
    norm = ex.ZERO
    for a in range(n):
        for b in range(n):
            if df[a] == ex.ZERO or df[b] == ex.ZERO:
                continue
            norm = norm + inverse[a][b] * df[a] * df[b]

    return ExtensionResiduals(
        geo.tensor_from((n, n), hess_fill),
        geo.tensor_from((n, n), ricci_fill),
        norm,
    )


# --------------------------------------------------------------------------
# quasi-Einstein verification


def quasi_einstein_residual(metric: PseudoMetric, psi: ScalarExpr, mu, lam) -> geo.TensorField:
    """Raw component grid of H psi + rho - mu dpsi (x) dpsi - lambda g."""
    mu = Fraction(mu)
    lam = Fraction(lam)
    conn = _shared_connection(metric)
    n = metric.n
    hess = geo.hessian(conn, psi)
    rho = conn.ricci_parts.full
    dpsi = [ex.differentiate(psi, a) for a in range(n)]

    def fill(a, b):
        return hess.comp(a, b) + rho.comp(a, b) \
            - mu * dpsi[a] * dpsi[b] - lam * metric.comp(a, b)

    return geo.tensor_from((n, n), fill)


def soliton_potential(f: ScalarExpr, eigenvalue) -> tuple:
    """Potential and equation parameter for a solution of the eigen-equation.

    A positive f with H f = mu_a f rho_s yields psi = -(2/mu_a) log f solving
    the quasi-Einstein equation on the extension with parameter mu_a / 2 and
    lambda = 0.
    """
    mu_a = Fraction(eigenvalue)
    if mu_a == 0:
        raise ValueError("the change of variables needs a nonzero eigenvalue")
    psi = ex.simplify_rational(ex.mul(ex.const(Fraction(-2, 1) / mu_a), ex.log(f)))
    return psi, mu_a / 2


def sample_residual(tensor: geo.TensorField, points) -> float:
    """Worst absolute component value over the sample points."""
    components = geo.leaves(tensor)
    worst = 0.0
    for p in points:
        for value in ex.evaluate(components, p):
            worst = max(worst, abs(float(value)))
    return worst


def random_symmetric_phi(dim: int, rng: random.Random) -> list:
    """Random affine-linear deformation tensor for property sweeps."""

    def entry():
        return ex.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) \
            + ex.const(Fraction(rng.randint(-2, 2), 1)) * ex.coord(rng.randrange(dim))

    grid = [[ex.ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            value = entry()
            grid[i][j] = value
            grid[j][i] = value
    return grid
