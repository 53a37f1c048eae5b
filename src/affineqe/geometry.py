"""Affine manifolds from Christoffel data and their curvature invariants.

Index conventions (fixed once, validated against the worked 3-dimensional
example with nonzero symbols 1/3/4/5):

* curvature   R[i][j][k][l] = d_i G_jk^l - d_j G_ik^l + G_in^l G_jk^n - G_jn^l G_ik^n
* Ricci       rho_jk = trace of the FIRST lower slot, sum_i R[i][j][k][i]
* nabla       (nabla T)_{i;j_1..j_r} = d_i T_{j_1..j_r} - sum_s G_{i j_s}^l T_{j_1..l..j_r},
              l in slot s
* Hessian     H_ij f = (nabla df)_{i;j} = d_i d_j f - G_ij^k d_k f
* nabla rho   (nabla rho)_{i;jk} = d_i rho_jk - G_ij^l rho_lk - G_ik^l rho_jl

Curvature, the tree Ricci and the solver's tower Ricci are sums of one display's
terms (`curvature_terms`), and every tensor here reads the symbols with None
where zero (`AffineManifold.symbols`), so zero symbols cost nothing.
"""

from __future__ import annotations

import itertools
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
from .poly import RationalFunc


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
        """Raise ExcludedLocusError on the excluded locus; exp/log guards are read in floats."""
        for g in self.excluded:
            if g.rational_only:
                value = ex.evaluate(g, point)
            else:
                with ex.float_faults():
                    value, = ex.finite([ex.compile_float(g)(ex.float_values(point))])
            if value == 0:
                shown = ", ".join(map(str, point))
                raise ExcludedLocusError(f"point ({shown}) lies on the excluded locus")

    @cached_property
    def ricci_parts(self) -> RicciTensors:
        """The Ricci tensor and its split, computed once per manifold."""
        return ricci(self)

    @cached_property
    def symbols(self) -> tuple:
        """The symbols with None where zero, the grid every tensor kernel reads."""
        return tuple(tuple(tuple(None if s == ex.ZERO else s for s in row) for row in plane)
                     for plane in self.gamma)

    @cached_property
    def jet_data(self) -> tuple:
        """(tower, symbols, rho sums), the mu-free half of every jet system, built once: the
        symbols converted into one `expr.Tower` (None where zero) and rho_jk + rho_kj for each
        ordered (j, k), with rho summed from them by `ricci_terms`."""
        m, tower, zero = self.dim, ex.Tower(self.dim), RationalFunc.const(0)
        g = [[[s and ex.to_ratfunc(s, tower=tower) for s in row] for row in plane]
             for plane in self.symbols]
        rho = [[sum(ricci_terms(g, tower.diff, j, k), zero) for k in range(m)] for j in range(m)]
        return tower, g, [[rho[j][k] + rho[k][j] for k in range(m)] for j in range(m)]

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
        """mu -> the compiled A_i at mu, filled by `qe_solver.rk4_run`."""
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
    """Each component goes through the judge; they share its walks' memos."""
    memos = ({}, {})
    return combine_verdicts(ex.is_identically_zero(c, memos) for c in leaves(t))


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
    dim = document.get("dim") if isinstance(document, dict) else None
    if type(dim) is not int:  # a JSON integer: not 2.5, true or "3"
        raise ManifoldFormatError("missing or bad 'dim'")
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


def curvature_terms(g, diff: Callable, i: int, j: int, k: int, l: int) -> list:
    """The terms of R_ijk^l in the module docstring's display, in order, over the symbols
    ``g`` (None where zero, and such terms left out) with the derivative ``diff(s, i)``."""
    terms = [diff(g[j][k][l], i)] if g[j][k][l] else []
    if g[i][k][l]:
        terms.append(-diff(g[i][k][l], j))
    for n in range(len(g)):
        if g[i][n][l] and g[j][k][n]:
            terms.append(g[i][n][l] * g[j][k][n])
        if g[j][n][l] and g[i][k][n]:
            terms.append(-(g[j][n][l] * g[i][k][n]))
    return terms


def curvature(m: AffineManifold) -> TensorField:
    """Full (1,3) curvature; antisymmetric in the first two lower slots."""
    return tensor_from((m.dim,) * 4, lambda *ijkl: ex.simplify_rational(
        ex.add(*curvature_terms(m.symbols, ex.differentiate, *ijkl))))


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


def ricci_terms(g, diff: Callable, j: int, k: int) -> list:
    """The terms of rho_jk: the curvature terms R_ijk^i for each i in turn."""
    return [t for i in range(len(g)) for t in curvature_terms(g, diff, i, j, k, i)]


def ricci(m: AffineManifold) -> RicciTensors:
    """Ricci tensor; its symmetric and antisymmetric parts are built on first read.
    Each component is one sum of the curvature display's traced terms."""
    return RicciTensors(tensor_from((m.dim, m.dim), lambda j, k: ex.simplify_rational(
        ex.add(*ricci_terms(m.symbols, ex.differentiate, j, k)))))


def covariant_derivative(m: AffineManifold, t: TensorField) -> TensorField:
    """Raw components of the covariant derivative of a (0,r) tensor, derivative slot first,
    summed over the nonzero symbols and components only."""
    g = m.symbols

    def fill(i, *js):
        terms = [ex.differentiate(t.comp(*js), i)]
        for l in range(m.dim):
            for s, j in enumerate(js):
                if g[i][j][l]:
                    moved = t.comp(*js[:s], l, *js[s + 1:])
                    if moved != ex.ZERO:
                        terms.append(ex.neg(g[i][j][l] * moved))
        return ex.add(*terms)

    return tensor_from((m.dim,) * (t.rank + 1), fill)


def hessian(m: AffineManifold, f: ScalarExpr) -> TensorField:
    """The canonical covariant derivative of df."""
    df = TensorField(tuple(ex.differentiate(f, k) for k in range(m.dim)))
    return tensor_map(ex.simplify_rational, covariant_derivative(m, df))


def nabla_ricci(m: AffineManifold) -> TensorField:
    """The canonical covariant derivative of the full Ricci tensor."""
    return tensor_map(ex.simplify_rational, covariant_derivative(m, m.ricci_parts.full))


def is_totally_symmetric(t: TensorField) -> Verdict:
    """True-ish verdict when every index permutation fixes the tensor: each component is
    compared once with each distinct rearrangement of its indices that sorts after it."""
    if t.rank not in (2, 3):
        raise ValueError("total symmetry is defined here for (0,2) and (0,3) tensors")
    return combine_verdicts(ex.is_identically_zero(t.comp(*idx) - t.comp(*perm))
                            for idx in itertools.product(range(t.dim), repeat=t.rank)
                            for perm in set(itertools.permutations(idx)) if perm > idx)


def apply_qe_operator(m: AffineManifold, mu: Fraction, f: ScalarExpr) -> TensorField:
    """Raw residual H f - mu f rho_s; f solves the eigen-equation iff this is zero."""
    rho_s = m.ricci_parts.sym
    hess = hessian(m, f)
    mu = Fraction(mu)
    return tensor_map(lambda h, r: h - mu * f * r, hess, rho_s)


def flat_manifold(dim: int) -> AffineManifold:
    return from_christoffel(tuple(f"x{i + 1}" for i in range(dim)), {})
