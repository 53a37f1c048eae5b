"""Affine manifolds from Christoffel data and their curvature invariants.

Index conventions (fixed once, validated against the worked 3-dimensional
example with nonzero symbols 1/3/4/5):

* curvature   R[i][j][k][l] = d_i G_jk^l - d_j G_ik^l + G_in^l G_jk^n - G_jn^l G_ik^n
* Ricci       rho_jk = trace of the FIRST lower slot, sum_i R[i][j][k][i]
* Hessian     H_ij f = d_i d_j f - G_ij^k d_k f
* nabla rho   (grad rho)_{i;jk} = d_i rho_jk - G_ij^l rho_lk - G_ik^l rho_jl
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from . import expr as ex
from .expr import (
    AffineQEError,
    DomainError,
    ScalarExpr,
    Verdict,
    combine_verdicts,
)


class ManifoldFormatError(AffineQEError):
    """Malformed manifold document or inconsistent Christoffel data."""


class ExcludedLocusError(DomainError):
    """A point landed on the excluded locus of the chart."""


# --------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class AffineManifold:
    """Torsion-free connection on an m-dimensional chart, given by its symbols.

    ``gamma[i][j][k]`` holds the symbol with lower indices i,j and upper index k;
    the i,j symmetry is enforced at construction.  ``excluded`` lists expressions
    whose zero sets are removed from the chart (e.g. the wall x1 = 0).
    """

    coords: tuple
    gamma: tuple
    excluded: tuple = ()

    def __post_init__(self):
        if self.dim < 2:
            raise ManifoldFormatError("dimension must be at least 2")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def check_point(self, point) -> None:
        if self.excluded and 0 in ex.evaluate(self.excluded, point):
            raise ExcludedLocusError(f"point {tuple(point)} lies on the excluded locus")

    @cached_property
    def ricci_parts(self) -> RicciTensors:
        """The Ricci tensor and its split, computed once per manifold."""
        return ricci(self)

    @cached_property
    def float_gamma(self) -> tuple:
        """(i, j, k) of each nonzero symbol and one callable for their float values."""
        return ex.compile_symbols(self.gamma)

    @cached_property
    def float_guards(self):
        """One float callable returning the excluded-locus expressions' values."""
        return ex.compile_float(self.excluded)

    @cached_property
    def float_jet_systems(self) -> dict:
        """mu -> the compiled A_i at mu, filled by `qe_solver.rk4_step`."""
        return {}


@dataclass(frozen=True)
class TensorField:
    """Componentwise tensor on a chart: a nested grid of expressions whose depth
    is the rank.  Lower slots come first; the curvature's upper slot is last."""

    components: tuple

    def comp(self, *indices) -> ScalarExpr:
        node = self.components
        for i in indices:
            node = node[i]
        return node

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def rank(self) -> int:
        node, depth = self.components, 0
        while not isinstance(node, ScalarExpr):
            node, depth = node[0], depth + 1
        return depth


def _grid(shape: Sequence[int], fill: Callable) -> tuple:
    def build(prefix, depth):
        if depth == len(shape):
            return fill(*prefix)
        return tuple(build(prefix + (i,), depth + 1) for i in range(shape[depth]))

    return build((), 0)


def tensor_from(shape: Sequence[int], fill: Callable) -> TensorField:
    return TensorField(_grid(shape, fill))


def tensor_map(fn: Callable, *tensors: TensorField) -> TensorField:
    """fn applied to the matching components of equally shaped tensors."""

    def zipped(nodes):
        if isinstance(nodes[0], ScalarExpr):
            return fn(*nodes)
        return tuple(zipped(children) for children in zip(*nodes))

    return TensorField(zipped([t.components for t in tensors]))


def leaves(t: TensorField) -> list:
    """The components in row-major index order."""
    nodes = t.components
    for _ in range(t.rank - 1):
        nodes = [leaf for node in nodes for leaf in node]
    return nodes


def tensor_sub(a: TensorField, b: TensorField) -> TensorField:
    """The raw componentwise difference, for the zero-test."""
    return tensor_map(ScalarExpr.__sub__, a, b)


def tensor_zero_verdict(t: TensorField) -> Verdict:
    return combine_verdicts(ex.is_identically_zero(c) for c in leaves(t))


# --------------------------------------------------------------------------
# loading


def from_christoffel(coords: Sequence[str], entries: dict,
                     excluded: Sequence[ScalarExpr] = ()) -> AffineManifold:
    """Build a manifold from {(i, j, k): expr} with 0-based indices.

    Entries may be given for either or both of (i, j) and (j, i); duplicates
    must agree structurally or the data is rejected as asymmetric.
    """
    dim = len(coords)
    table: dict = {}
    for (i, j, k), value in entries.items():
        if not all(0 <= n < dim for n in (i, j, k)):
            raise ManifoldFormatError(f"index out of range in entry {(i, j, k)}")
        key = (min(i, j), max(i, j), k)
        if key in table and table[key] != value:
            if ex.is_identically_zero(table[key] - value) is Verdict.NONZERO:
                raise ManifoldFormatError(
                    f"asymmetric Christoffel entry at {(i + 1, j + 1, k + 1)}")
        else:
            table[key] = value

    def fill(i, j, k):
        return table.get((min(i, j), max(i, j), k), ex.ZERO)

    grid = _grid((dim, dim, dim), fill)
    return AffineManifold(tuple(coords), grid, tuple(excluded))


def _parse_key(key: str) -> tuple:
    try:
        lower, upper = key.split("^")
        i, j = lower.split(",")
        return int(i) - 1, int(j) - 1, int(upper) - 1
    except ValueError:
        raise ManifoldFormatError(
            f"bad christoffel key {key!r}; expected 'i,j^k'") from None


def _strings(value, name: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ManifoldFormatError(f"{name!r} must be a list of strings")
    return value


def load_manifold(document: dict) -> AffineManifold:
    """Build a manifold from its JSON document form.

    Schema: ``{"dim": m, "coords": [...], "christoffel": {"i,j^k": "<expr>"},
    "excluded": ["<expr>", ...]}`` with 1-based keys; omitted symbols are zero.
    """
    try:
        dim = int(document["dim"])
    except (KeyError, TypeError, ValueError):
        raise ManifoldFormatError("missing or bad 'dim'") from None
    coords = _strings(document.get("coords") or [f"x{i + 1}" for i in range(dim)],
                      "coords")
    if len(coords) != dim:
        raise ManifoldFormatError("coords length does not match dim")
    if len(set(coords)) != dim:
        raise ManifoldFormatError("coordinate names must be distinct")
    christoffel = document.get("christoffel") or {}
    if not isinstance(christoffel, dict):
        raise ManifoldFormatError("'christoffel' must be an object of 'i,j^k': expression")
    entries = {}
    for key, text in christoffel.items():
        i, j, k = _parse_key(key)
        if not isinstance(text, str):
            raise ManifoldFormatError(f"christoffel entry {key!r} must be an expression string")
        entries[(i, j, k)] = ex.parse_scalar(text, coords)
    excluded = tuple(ex.parse_scalar(text, coords)
                     for text in _strings(document.get("excluded") or [], "excluded"))
    return from_christoffel(coords, entries, excluded)


def manifold_document(m: AffineManifold) -> dict:
    """Inverse of load_manifold, for report output."""
    christoffel = {}
    for i in range(m.dim):
        for j in range(i, m.dim):
            for k in range(m.dim):
                g = m.gamma[i][j][k]
                if g != ex.ZERO:
                    christoffel[f"{i + 1},{j + 1}^{k + 1}"] = ex.format_expr(g, m.coords)
    return {
        "dim": m.dim,
        "coords": list(m.coords),
        "christoffel": christoffel,
        "excluded": [ex.format_expr(g, m.coords) for g in m.excluded],
    }


# --------------------------------------------------------------------------
# curvature and friends


def curvature(m: AffineManifold) -> TensorField:
    """Full (1,3) curvature; antisymmetric in the first two lower slots."""
    dgamma = [[[[ex.differentiate(m.gamma[j][k][l], i) for l in range(m.dim)]
                for k in range(m.dim)] for j in range(m.dim)] for i in range(m.dim)]

    def fill(i, j, k, l):
        total = dgamma[i][j][k][l] - dgamma[j][i][k][l]
        for n in range(m.dim):
            total = total + m.gamma[i][n][l] * m.gamma[j][k][n] \
                - m.gamma[j][n][l] * m.gamma[i][k][n]
        return ex.simplify_rational(total)

    return tensor_from((m.dim,) * 4, fill)


@dataclass(frozen=True)
class RicciTensors:
    full: TensorField

    def _part(self, op: Callable) -> TensorField:
        rho = self.full.components
        return tensor_from((len(rho),) * 2, lambda j, k: ex.simplify_rational(
            Fraction(1, 2) * op(rho[j][k], rho[k][j])))

    @cached_property
    def sym(self) -> TensorField:
        return self._part(ScalarExpr.__add__)

    @cached_property
    def alt(self) -> TensorField:
        return self._part(ScalarExpr.__sub__)


def ricci(m: AffineManifold) -> RicciTensors:
    """Ricci tensor; its symmetric and antisymmetric parts are built on first read.

    Computed from the traced curvature display directly; the trace-consistency
    with :func:`curvature` is a tested invariant rather than an assumption.
    Each component is one sum of the display's terms in their order, skipping
    every term with a zero symbol, which would add nothing to the tree.
    """
    # the symbols, None where zero
    g = [[[None if s == ex.ZERO else s for s in row] for row in plane] for plane in m.gamma]

    def rho_jk(j, k):
        terms = []
        for i in range(m.dim):
            if g[j][k][i]:
                terms.append(ex.differentiate(g[j][k][i], i))
            if g[i][k][i]:
                terms.append(ex.neg(ex.differentiate(g[i][k][i], j)))
            for n in range(m.dim):
                if g[i][n][i] and g[j][k][n]:
                    terms.append(g[i][n][i] * g[j][k][n])
                if g[j][n][i] and g[i][k][n]:
                    terms.append(ex.neg(g[j][n][i] * g[i][k][n]))
        return ex.simplify_rational(ex.add(*terms))

    return RicciTensors(tensor_from((m.dim, m.dim), rho_jk))


def hessian(m: AffineManifold, f: ScalarExpr) -> TensorField:
    df = [ex.differentiate(f, k) for k in range(m.dim)]

    def fill(i, j):
        terms = [ex.neg(m.gamma[i][j][k] * df[k]) for k in range(m.dim)
                 if m.gamma[i][j][k] != ex.ZERO and df[k] != ex.ZERO]
        return ex.simplify_rational(ex.add(ex.differentiate(df[j], i), *terms))

    return tensor_from((m.dim, m.dim), fill)


def covariant_derivative(m: AffineManifold, t: TensorField) -> TensorField:
    """Raw components of the covariant derivative of a (0,2) tensor, derivative
    slot first: d_i T_jk - G_ij^l T_lk - G_ik^l T_jl."""

    def fill(i, j, k):
        total = ex.differentiate(t.comp(j, k), i)
        for l in range(m.dim):
            total = total - m.gamma[i][j][l] * t.comp(l, k) \
                - m.gamma[i][k][l] * t.comp(j, l)
        return total

    return tensor_from((m.dim,) * 3, fill)


def nabla_ricci(m: AffineManifold) -> TensorField:
    """Covariant derivative of the full Ricci tensor, derivative slot first."""
    return tensor_map(ex.simplify_rational, covariant_derivative(m, m.ricci_parts.full))


def is_totally_symmetric(t: TensorField) -> Verdict:
    """True-ish verdict when every index permutation fixes the tensor."""
    if t.rank not in (2, 3):
        raise ValueError("total symmetry is defined here for (0,2) and (0,3) tensors")
    verdicts = []
    n = t.dim
    if t.rank == 2:
        for i in range(n):
            for j in range(i + 1, n):
                verdicts.append(ex.is_identically_zero(t.comp(i, j) - t.comp(j, i)))
    else:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    base = t.comp(i, j, k)
                    for perm in ((i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
                        verdicts.append(ex.is_identically_zero(base - t.comp(*perm)))
    return combine_verdicts(verdicts)


def apply_qe_operator(m: AffineManifold, mu: Fraction, f: ScalarExpr) -> TensorField:
    """Raw residual H f - mu f rho_s; f solves the eigen-equation iff this is zero."""
    rho_s = m.ricci_parts.sym
    hess = hessian(m, f)
    mu = Fraction(mu)
    return tensor_map(lambda h, r: h - mu * f * r, hess, rho_s)


def flat_manifold(dim: int) -> AffineManifold:
    return from_christoffel(tuple(f"x{i + 1}" for i in range(dim)), {})
