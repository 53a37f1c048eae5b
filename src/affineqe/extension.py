"""Neutral-signature metrics on the cotangent bundle of an affine manifold.

The deformed extension of a connection with symbols G_ij^k and a symmetric
tensor Phi is the 2m-dimensional metric

    g = dx^i (.) dy_i + {Phi_ij - 2 y_k G_ij^k} dx^i (x) dx^j

(the mixed terms read as the symmetric pairing).  Its components are degree-1
polynomials in the fiber coordinates, so metrics, inverses and connections are
expression trees on the chart enlarged from m to 2m coordinates.  One exact
`RationalFunc` grid, in the `expr.Tower` of the metric's data (each exp/log node
one more variable), goes from metric to inverse (its negation) to the Levi-Civita
symbols, formed from the xx block's derivatives alone, and trees are rebuilt only
for what is returned.
The pullback identities and the quasi-Einstein residual of one metric value
share one Levi-Civita chart and its Ricci tensor, kept for the last metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from . import expr as ex
from . import geometry as geo
from .expr import ScalarExpr, Verdict
from .poly import RationalFunc


def _block_grid(m, xx, yy, one, zero) -> tuple:
    """The 2m grid with xx(a, b) and yy(a, b) in its diagonal blocks, paired by the identity."""
    return tuple(tuple(xx(a, b) if a < m and b < m else yy(a - m, b - m) if a >= m and b >= m
                       else one if abs(a - b) == m else zero
                       for b in range(2 * m)) for a in range(2 * m))


@dataclass(frozen=True)
class PseudoMetric:
    """A deformed extension on its 2m chart (x^1..x^m, y_1..y_m), built by
    `deformed_extension`: the component trees, and the same grid as `rows` in `tower`."""

    coords: tuple
    components: tuple
    excluded: tuple
    rows: tuple = field(compare=False, repr=False)
    tower: ex.Tower = field(compare=False, repr=False)

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
    """The neutral metric with xx-block Phi_ij - 2 y_k G_ij^k, summed in the tower."""
    m = manifold.dim
    if phi is None:
        phi = [[ex.ZERO] * m for _ in range(m)]
    phi = [[ex.as_expr(entry) for entry in row] for row in phi]
    if len(phi) != m or any(len(row) != m for row in phi):
        raise ValueError(f"deformation tensor must be {m}x{m}")
    _symmetric_or_raise(phi, m, "deformation tensor")
    coords = tuple(manifold.coords) + tuple(f"y{i + 1}" for i in range(m))
    tower = ex.Tower(2 * m)
    lifts = [RationalFunc.const(2) * RationalFunc.coord(m + k) for k in range(m)]

    def entry(a, b):
        total = ex.to_ratfunc(phi[a][b], tower=tower)
        for lift, symbol in zip(lifts, manifold.gamma[a][b]):
            if symbol != ex.ZERO:
                total = total - lift * ex.to_ratfunc(symbol, tower=tower)
        return total

    xx, zero = [[entry(a, b) for b in range(m)] for a in range(m)], RationalFunc.const(0)
    trees = _block_grid(m, lambda a, b: ex.from_ratfunc(xx[a][b], tower), lambda a, b: ex.ZERO,
                        ex.ONE, ex.ZERO)
    rows = _block_grid(m, lambda a, b: xx[a][b], lambda a, b: zero, RationalFunc.const(1), zero)
    return PseudoMetric(coords, trees, manifold.excluded, rows, tower)


# --------------------------------------------------------------------------
# inverse metric


def inverse_metric(metric: PseudoMetric) -> tuple:
    """Exact inverse component grid, in closed form: zero xx-block, identity
    pairing, yy-block the xx rows negated in the metric's tower.  The grid
    [[A, I], [I, 0]] has determinant (-1)^m, so it is never degenerate."""
    return _block_grid(metric.n // 2, lambda a, b: ex.ZERO,
                       lambda a, b: ex.from_ratfunc(-metric.rows[a][b], metric.tower),
                       ex.ONE, ex.ZERO)


# --------------------------------------------------------------------------
# the Levi-Civita connection


def levi_civita(metric: PseudoMetric) -> geo.AffineManifold:
    """The torsion-free metric connection as an affine chart on the metric's
    coordinates: Koszul symbols (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).

    Only the xx block A of g = [[A, I], [I, 0]] has nonzero derivatives D_c A_ab, and
    the inverse is [[0, I], [I, -A]].  So in the metric's tower, with F_l = -D_{y_l} A_ij,
    G_ij^k = F_k/2 and G_ij^{m+k} = (D_i A_jk + D_j A_ik - D_k A_ij + sum_l (-A_kl) F_l)/2;
    G^{m+k} = D_{y_j} A_ik/2 for (i, m+j) and (m+j, i); every other symbol is zero.
    Only the dense sum's zero operands, which a pair sum returns unchanged, are dropped,
    so every pair and tree is the dense sum's.  For rows symmetric as pairs (j, i) shares
    the symbols of (i, j), since sums of pairs commute; Phi entries equal only in value
    take the full loop."""
    n, m, g, tower = metric.n, metric.n // 2, metric.rows, metric.tower
    half = RationalFunc.const(Fraction(1, 2))
    d = [[[tower.diff(g[a][b], c) for b in range(m)] for a in range(m)] for c in range(n)]
    inverse = [[-entry for entry in row[:m]] for row in g[:m]]  # the inverse's yy block, -A

    def tree(total):
        return ex.from_ratfunc(half * total, tower)

    def base(i, j):
        fiber = [-d[m + l][i][j] for l in range(m)]

        def upper(k):
            total = d[i][j][k] + d[j][i][k] - d[k][i][j]
            for l in range(m):
                if not (fiber[l].is_zero or inverse[k][l].is_zero):
                    total = total + inverse[k][l] * fiber[l]
            return tree(total)

        return tuple(map(tree, fiber)) + tuple(upper(k) for k in range(m))

    mirror = all(g[a][b] == g[b][a] for a in range(m) for b in range(a + 1, m))
    zeros = (ex.ZERO,) * n
    grid = [[zeros] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            grid[i][j] = grid[j][i] if mirror and j < i else base(i, j)
            grid[i][m + j] = grid[m + j][i] = zeros[:m] + tuple(map(tree, d[m + j][i]))
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
    ex.check_defined(f)
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
    nonzero = [a for a in range(n) if df[a] != ex.ZERO]
    norm = ex.add(*[inverse[a][b] * df[a] * df[b] for a in nonzero for b in nonzero])

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
    ex.check_defined(f)
    psi = ex.simplify_rational(ex.mul(ex.const(Fraction(-2, 1) / mu_a), ex.log(f)))
    return psi, mu_a / 2


def sample_residual(tensor: geo.TensorField, points) -> float:
    """Worst absolute component value over the sample points, read in floats."""
    with ex.float_faults():
        values_at = ex.compile_float(geo.leaves(tensor))
        return max((abs(value) for p in points
                    for value in ex.finite(values_at(ex.float_values(p)))), default=0.0)


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
