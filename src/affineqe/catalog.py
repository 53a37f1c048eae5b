"""Catalog of locally homogeneous models with known solution-space dimensions.

Two surface families carry the catalog: constant-symbol charts ("type A") and
wall charts with symbols C/x1 on x1 > 0 ("type B"), plus two 3-dimensional
constant-symbol models with worked dimension tables.  ``expected_dimension``
evaluates the published case analysis literally and therefore applies only to
parameters already in the stated normal forms; wall charts outside them get a
bound from the solutions of x1 alone, and anything else is classified by the
solver alone (``crosscheck`` / ``sweep``).  A curved constant-symbol chart at
mu = 0 has dimension exactly 2 when C_12^1 = C_22^1 = 0 or C_11^2 = C_12^2 = 0
(a function of x1 or of x2 alone joins the constants) and at least 1 otherwise.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import expr as ex
from . import geometry as geo
from . import qe_solver as qs
from .expr import AffineQEError, Verdict
from .linalg import exact_rank


class RegimeError(AffineQEError):
    """Model parameters are outside the regime an operation is defined for."""


def q(value) -> Fraction:
    return Fraction(value)


# --------------------------------------------------------------------------
# surface families


@dataclass(frozen=True)
class SixConstantSurface:
    """Surface chart whose six independent symbols are set by constants C_ij^k."""

    c11_1: Fraction
    c11_2: Fraction
    c12_1: Fraction
    c12_2: Fraction
    c22_1: Fraction
    c22_2: Fraction

    def constants(self) -> dict:
        return {(0, 0, 0): self.c11_1, (0, 0, 1): self.c11_2,
                (0, 1, 0): self.c12_1, (0, 1, 1): self.c12_2,
                (1, 1, 0): self.c22_1, (1, 1, 1): self.c22_2}

    def constants_dict(self) -> dict:
        return {name: getattr(self, name) for name in _SIX}

    def manifold(self) -> geo.AffineManifold:
        """The chart, built once per record, so its derived geometry is shared."""
        return self._chart


@dataclass(frozen=True)
class TypeASurface(SixConstantSurface):
    """Constant Christoffel symbols on the plane."""

    @cached_property
    def _chart(self) -> geo.AffineManifold:
        entries = {idx: ex.const(v) for idx, v in self.constants().items() if v}
        return geo.from_christoffel(("x1", "x2"), entries)


@dataclass(frozen=True)
class TypeBSurface(SixConstantSurface):
    """Symbols C_ij^k / x1 on the half-plane x1 > 0."""

    @cached_property
    def _chart(self) -> geo.AffineManifold:
        x1 = ex.coord(0)
        entries = {idx: ex.const(v) / x1
                   for idx, v in self.constants().items() if v}
        return geo.from_christoffel(("x1", "x2"), entries, excluded=[x1])

    def is_also_constant_type(self) -> bool:
        return not (self.c12_1 or self.c22_1 or self.c22_2)


@dataclass(frozen=True)
class Family3dParams:
    """Parameters (x, y, z, w) of the degenerate-Ricci 3-dimensional family."""

    x: Fraction
    y: Fraction
    z: Fraction
    w: Fraction

    def manifold(self) -> geo.AffineManifold:
        c = self
        entries = {
            (0, 0, 0): c.z, (0, 1, 0): q(1), (0, 2, 0): c.x,
            (1, 1, 1): q(1), (1, 2, 0): c.x, (2, 2, 1): c.y, (2, 2, 2): c.w,
        }
        return geo.from_christoffel(("x1", "x2", "x3"),
                                    {idx: ex.const(v) for idx, v in entries.items() if v})


def exp3d_model() -> geo.AffineManifold:
    """The 3-dimensional constant model with nondegenerate Ricci and
    solution span {exp(3 x3), x1 exp(3 x3)} at its special eigenvalue."""
    return geo.from_christoffel(("x1", "x2", "x3"), {
        (0, 1, 2): ex.const(1),
        (0, 2, 0): ex.const(3),
        (1, 2, 1): ex.const(4),
        (2, 2, 2): ex.const(5),
    })


def exp_surface(c11_2=0, c12_2=0, c22_2=0) -> TypeASurface:
    """Normal form with first symbol row (1,0,0); exp(x1) is a parallel-Hessian
    function and the cubed-Ricci scalar invariant is defined on it."""
    return TypeASurface(q(1), q(c11_2), q(0), q(c12_2), q(0), q(c22_2))


def parallel_surface(c11_2=0, c12_2=0, c22_2=0) -> TypeASurface:
    """Normal form with vanishing first symbol row; x1 is parallel-Hessian and
    the Ricci tensor is parallel."""
    return TypeASurface(q(0), q(c11_2), q(0), q(c12_2), q(0), q(c22_2))


# wall-chart normal forms (all on x1 > 0)


def wall_dim1_surface(c=1, c11_1=0, c11_2=0, c12_2=0) -> TypeBSurface:
    """C_22^1 = 0 and C_22^2 = C_12^1 = c != 0: a single solution line at the
    distinguished surface eigenvalue."""
    if not q(c):
        raise RegimeError("c must be nonzero")
    return TypeBSurface(q(c11_1), q(c11_2), q(c), q(c12_2), q(0), q(c))


def wall_dim1_mixed_surface(eps=1, c11_2=1, c12_2=0) -> TypeBSurface:
    """Second dimension-one normal form; sign eps picks the +-branch."""
    if eps not in (1, -1):
        raise RegimeError("eps must be +1 or -1")
    if not q(c11_2):
        raise RegimeError("c11_2 must be nonzero")
    return TypeBSurface(1 + 2 * q(c12_2) + eps * q(c11_2) ** 2, q(c11_2),
                        q(0), q(c12_2), q(eps), 2 * eps * q(c11_2))


def wall_projflat_surface(eps=1, c12_2=1) -> TypeBSurface:
    """Strongly projectively flat wall chart that is not a constant chart."""
    if eps not in (1, -1):
        raise RegimeError("eps must be +1 or -1")
    if not q(c12_2):
        raise RegimeError("c12_2 must be nonzero")
    return TypeBSurface(1 + 2 * q(c12_2), q(0), q(0), q(c12_2), q(eps), q(0))


def wall_eigen_surface(eps=1, c11_1=0, c11_2=0, c12_2=0) -> TypeBSurface:
    """Family whose nontrivial eigenvalue is pinned by its constants."""
    if eps not in (1, -1):
        raise RegimeError("eps must be +1 or -1")
    return TypeBSurface(q(c11_1), q(c11_2), q(0), q(c12_2),
                        q(eps), 2 * eps * q(c11_2))


def wall_eigen_value(surface: TypeBSurface) -> Fraction:
    """The pinned eigenvalue of a wall_eigen_surface instance."""
    eps = 1 if surface.c22_1 > 0 else -1
    delta = 1 - surface.c11_1 + surface.c12_2
    if delta == 0:
        raise RegimeError("degenerate family member: 1 - C_11^1 + C_12^2 = 0")
    return (1 + 2 * surface.c12_2 + eps * 2 * surface.c11_2 ** 2
            - (surface.c11_1 - surface.c12_2) ** 2) / delta ** 2


def wall_eigen_pair_surface(eps=1, c12_2=1) -> TypeBSurface:
    """Two-dimensional solution space at the eigenvalue C_12^2 / 2."""
    if eps not in (1, -1):
        raise RegimeError("eps must be +1 or -1")
    if not q(c12_2):
        raise RegimeError("c12_2 must be nonzero")
    return TypeBSurface(-1 + q(c12_2), q(0), q(0), q(c12_2), q(eps), q(0))


def wall_eigen_pair_mixed_surface(eps=1, c11_2=1) -> TypeBSurface:
    """Second two-dimensional normal form; eigenvalue -(3+-8c^2)/(4+-8c^2)."""
    if eps not in (1, -1):
        raise RegimeError("eps must be +1 or -1")
    if not q(c11_2):
        raise RegimeError("c11_2 must be nonzero")
    c = q(c11_2)
    return TypeBSurface(-Fraction(1, 2) * (5 + eps * 16 * c ** 2), c,
                        q(0), -Fraction(1, 2) * (3 + eps * 8 * c ** 2),
                        q(eps), 2 * eps * c)


def wall_eigen_pair_mixed_value(surface: TypeBSurface) -> Fraction:
    eps = 1 if surface.c22_1 > 0 else -1
    c = surface.c11_2
    return -(3 + eps * 8 * c ** 2) / (4 + eps * 8 * c ** 2)


# --------------------------------------------------------------------------
# generic entry points


_SIX = ("c11_1", "c11_2", "c12_1", "c12_2", "c22_1", "c22_2")

_BUILDERS = {
    "typeA": TypeASurface,
    "typeB": TypeBSurface,
    "exp3d": exp3d_model,
    "family3d": Family3dParams,
    "expSurface": exp_surface,
    "parallelSurface": parallel_surface,
    "wallDim1": wall_dim1_surface,
    "wallDim1Mixed": wall_dim1_mixed_surface,
    "wallProjFlat": wall_projflat_surface,
    "wallEigen": wall_eigen_surface,
    "wallEigenPair": wall_eigen_pair_surface,
    "wallEigenPairMixed": wall_eigen_pair_mixed_surface,
}
MODEL_KINDS = tuple(_BUILDERS)


def model_for(kind: str, params: dict | None = None):
    """Catalog object (surface record or manifold) for a kind/params pair.

    Parameter records (the surface families, family3d) need every parameter;
    the named builders default the ones left out.  Unknown names are rejected.
    """
    if kind not in _BUILDERS:
        raise RegimeError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    builder = _BUILDERS[kind]
    names = tuple(inspect.signature(builder).parameters)
    params = params or {}
    unknown = [key for key in params if key not in names]
    if unknown:
        raise RegimeError(f"unknown parameter {unknown[0]!r} for {kind}; "
                          f"expected {', '.join(names) or 'none'}")
    if isinstance(builder, type):
        missing = [name for name in names if name not in params]
        if missing:
            raise RegimeError(f"missing parameter {missing[0]!r} for {kind}")
        return builder(**{name: q(params[name]) for name in names})
    return builder(**params)


def _chart_of(model) -> geo.AffineManifold:
    return model if isinstance(model, geo.AffineManifold) else model.manifold()


def build_model(kind: str, params: dict | None = None) -> geo.AffineManifold:
    return _chart_of(model_for(kind, params))


def default_basepoint(manifold: geo.AffineManifold) -> tuple:
    if manifold.excluded:
        return (q(1),) + (q(0),) * (manifold.dim - 1)
    return (q(0),) * manifold.dim


# --------------------------------------------------------------------------
# expected dimensions


@dataclass(frozen=True)
class Prediction:
    kind: str  # "exact" | "at-least" | "not-covered"
    value: int | None = None

    @classmethod
    def exact(cls, value: int) -> "Prediction":
        return cls("exact", value)

    @classmethod
    def at_least(cls, value: int) -> "Prediction":
        return cls("at-least", value)

    def matches(self, computed: int) -> bool:
        if self.kind == "exact":
            return computed == self.value
        if self.kind == "at-least":
            return computed >= self.value
        return True

    def __str__(self) -> str:
        if self.kind == "exact":
            return str(self.value)
        if self.kind == "at-least":
            return f">={self.value}"
        return "not-covered"


NOT_COVERED = Prediction("not-covered")


def _surface_constants(tensor: geo.TensorField, point) -> list:
    values = ex.evaluate(geo.leaves(tensor), point)
    return [list(values[:2]), list(values[2:])]


def _ricci_constants_a(s: TypeASurface):
    return _surface_constants(s.manifold().ricci_parts.full, (q(0), q(0)))


def _ricci_constants_b(s: TypeBSurface):
    # every component is const / x1^2; evaluate at x1 = 1 to read the constants
    rho = s.manifold().ricci_parts
    point = (q(1), q(0))
    return _surface_constants(rho.full, point), _surface_constants(rho.sym, point)


def _expected_type_a(s: TypeASurface, mu: Fraction) -> Prediction:
    rho = _ricci_constants_a(s)
    rank = exact_rank(rho, 2)
    if rank == 0:  # flat plane: parallel-Hessian functions are the affine ones
        return Prediction.exact(3)
    if mu == -1:
        return Prediction.exact(3)
    if mu == 0:
        # f(x1) (or f(x2)) with f'' = C_11^1 f' (or C_22^2 f') has a null
        # Hessian beside the constants; the curvature rules out a third one
        if not (s.c12_1 or s.c22_1) or not (s.c11_2 or s.c12_2):
            return Prediction.exact(2)
        return Prediction.at_least(1)
    return Prediction.exact(2 if rank == 1 else 0)


def _is_normal_form(s: TypeBSurface, builder, *args, mu=None, value=None) -> bool:
    """Is s the surface builder(*args), and mu the eigenvalue value(s) it pins?

    A RegimeError from either means no match.  A wall normal form's sign eps
    is its C_22^1, so callers pass s.c22_1 for it.
    """
    try:
        return s == builder(*args) and (value is None or mu == value(s))
    except RegimeError:
        return False


def _expected_yamabe_wall(s: TypeBSurface) -> Prediction:
    first = (s.c11_1, s.c12_1, s.c22_1)
    second = (s.c11_2, s.c12_2, s.c22_2)
    if first[1] == 0 and first[2] == 0:            # includes log and power cases
        return Prediction.exact(2)
    if second == (q(0), q(0), q(0)):
        return Prediction.exact(2)
    if any(second):                                 # first row proportional to second
        ratios = {Fraction(a, b) for a, b in zip(first, second) if b}
        if len(ratios) == 1 and all(a == 0 for a, b in zip(first, second) if not b):
            return Prediction.exact(2)
    return Prediction.exact(1)


def _x1_only_bound(s: TypeBSurface, sym, mu: Fraction) -> Prediction:
    """Prediction from the solutions f(x1) alone, where rho_s = sym / x1^2.

    The symmetries x -> t x and x2 -> x2 + s act on the solution space, the
    translations nilpotently, so a nonzero space holds a nonzero solution of
    x1 alone.  With x1 f' = p f the equation reads p(p-1) - p C_11^1 = mu sym_11
    and -p C_ij^1 = mu sym_ij for ij = 12, 22: a nonzero C_12^1 or C_22^1 pins
    p, and otherwise the first (Euler) equation has two independent solutions.
    """
    pinned = [(-mu * sym[0][1], s.c12_1), (-mu * sym[1][1], s.c22_1)]
    powers = {value / c for value, c in pinned if c}
    if any(value and not c for value, c in pinned) or len(powers) > 1:
        return Prediction.exact(0)
    if not powers:
        return Prediction.at_least(2)
    p = powers.pop()
    euler = p * (p - 1) - p * s.c11_1 == mu * sym[0][0]
    return Prediction.at_least(1) if euler else Prediction.exact(0)


def _expected_type_b(s: TypeBSurface, mu: Fraction) -> Prediction:
    full, sym = _ricci_constants_b(s)
    if exact_rank(full, 2) == 0:  # flat half-plane
        return Prediction.exact(3)
    if mu == 0:
        return _expected_yamabe_wall(s)
    if exact_rank(sym, 2) == 0:
        # symmetric Ricci part vanishes: the equation is mu-independent
        return _expected_yamabe_wall(s)
    if mu == -1:
        if (_is_normal_form(s, wall_dim1_surface, s.c12_1, s.c11_1, s.c11_2, s.c12_2)
                or _is_normal_form(s, wall_dim1_mixed_surface, s.c22_1, s.c11_2, s.c12_2)):
            return Prediction.exact(1)
        if (s.is_also_constant_type()
                or _is_normal_form(s, wall_projflat_surface, s.c22_1, s.c12_2)):
            return Prediction.exact(3)
        return _x1_only_bound(s, sym, mu)
    # mu outside {0, -1}
    if s.is_also_constant_type():
        # linearly equivalent to a constant chart with rank-one Ricci
        return Prediction.exact(2)
    if (_is_normal_form(s, wall_eigen_pair_surface, s.c22_1, s.c12_2,
                        mu=mu, value=lambda t: t.c12_2 / 2)
            or _is_normal_form(s, wall_eigen_pair_mixed_surface, s.c22_1, s.c11_2,
                               mu=mu, value=wall_eigen_pair_mixed_value)):
        return Prediction.exact(2)
    if _is_normal_form(s, wall_eigen_surface, s.c22_1, s.c11_1, s.c11_2, s.c12_2,
                       mu=mu, value=wall_eigen_value):
        return Prediction.at_least(1)
    return _x1_only_bound(s, sym, mu)


def _expected_exp3d(mu: Fraction) -> Prediction:
    if mu == Fraction(-3, 5):
        return Prediction.exact(2)
    if mu == 0:
        return Prediction.exact(1)
    return Prediction.exact(0)


def _expected_family3d(p: Family3dParams, mu: Fraction) -> Prediction:
    if mu != Fraction(-1, 2):
        return NOT_COVERED
    x, z, w = p.x, p.z, p.w
    if x == 0 or (w == x and z == 1):
        return Prediction.exact(4)
    if z == 1:
        return Prediction.exact(2)
    if z == 0:
        return Prediction.exact(0)
    return Prediction.exact(1 if w == (x + 2 * x * z - x * z ** 2) / (2 * z) else 0)


def _prediction(kind: str, model, mu: Fraction) -> Prediction:
    if isinstance(model, TypeASurface):
        return _expected_type_a(model, mu)
    if isinstance(model, TypeBSurface):
        return _expected_type_b(model, mu)
    if isinstance(model, Family3dParams):
        return _expected_family3d(model, mu)
    if kind == "exp3d":
        return _expected_exp3d(mu)
    return NOT_COVERED


def expected_dimension(kind: str, params: dict | None, mu) -> Prediction:
    """Published case analysis, evaluated literally on normal-form parameters."""
    return _prediction(kind, model_for(kind, params), q(mu))


# --------------------------------------------------------------------------
# crosschecks and sweeps


@dataclass(frozen=True)
class CrosscheckReport:
    kind: str
    params: dict
    mu: Fraction
    basepoint: tuple
    predicted: Prediction
    computed: int
    agree: bool


def crosschecks(kind: str, params: dict | None, mus: Sequence) -> list:
    """Prediction against the solver at each eigenvalue, on one model, so that
    the prediction and every solve share its chart and Ricci tensor."""
    model = model_for(kind, params)
    manifold = _chart_of(model)
    point = default_basepoint(manifold)
    reports = []
    for mu in mus:
        predicted = _prediction(kind, model, q(mu))
        computed = qs.solution_dimension(manifold, mu, point).dim
        reports.append(CrosscheckReport(kind, dict(params or {}), q(mu), point,
                                        predicted, computed, predicted.matches(computed)))
    return reports


def crosscheck(kind: str, params: dict | None, mu) -> CrosscheckReport:
    return crosschecks(kind, params, [mu])[0]


@dataclass
class SweepResult:
    rows: list
    violations: list

    @property
    def dims(self) -> set:
        return {row["dim"] for row in self.rows}


def _surface_checks(kind, params, mu, dim, rho_rank, violations):
    if mu == -1 and dim == 2:
        violations.append(f"{kind} {params}: dim 2 at the surface eigenvalue")
    if kind == "typeA" and mu not in (0, -1) and rho_rank:
        want = {0: 3, 1: 2, 2: 0}[rho_rank]
        if dim != want:
            violations.append(
                f"typeA {params}: rank {rho_rank} but dim {dim} at mu={mu}")


def sweep(kind: str, param_grid: Sequence[dict], mu_list: Sequence) -> SweepResult:
    """Solver dimensions over a parameter/eigenvalue grid plus property audit."""
    rows = []
    violations: list = []
    for params in param_grid:
        try:
            obj = model_for(kind, params)
            manifold = _chart_of(obj)
            point = default_basepoint(manifold)
            rho_rank = exact_rank(_ricci_constants_a(obj), 2) \
                if isinstance(obj, TypeASurface) else None
            for mu in mu_list:
                mu = q(mu)
                space = qs.solution_dimension(manifold, mu, point)
                if not space.stabilized:
                    violations.append(f"{kind} {params} mu={mu}: not stabilized")
                if space.dim > manifold.dim + 1:
                    violations.append(f"{kind} {params} mu={mu}: bound exceeded")
                if manifold.dim == 2:
                    _surface_checks(kind, params, mu, space.dim, rho_rank, violations)
                rows.append({"params": dict(params), "mu": str(mu), "dim": space.dim})
        except AffineQEError as err:
            violations.append(f"{kind} {params}: {err}")
    return SweepResult(rows, violations)


# --------------------------------------------------------------------------
# random models


def random_constant(rng: random.Random) -> Fraction:
    den = rng.randint(1, 3)
    return Fraction(rng.randint(-3 * den, 3 * den), den)


def _random_six(rng: random.Random) -> list:
    return [random_constant(rng) for _ in range(6)]


def _random_curved(rng: random.Random, family, ricci_constants):
    for _ in range(200):
        surface = family(*_random_six(rng))
        if exact_rank(ricci_constants(surface), 2):
            return surface
    raise RegimeError("could not draw a curved surface")


def random_type_a(rng: random.Random) -> TypeASurface:
    """Random constant-symbol surface with nonvanishing Ricci tensor."""
    return _random_curved(rng, TypeASurface, _ricci_constants_a)


def random_type_b(rng: random.Random) -> TypeBSurface:
    """Random wall-chart surface with nonvanishing Ricci tensor."""
    return _random_curved(rng, TypeBSurface, lambda s: _ricci_constants_b(s)[0])


# --------------------------------------------------------------------------
# the cubed-Ricci scalar invariant


def alpha_invariant(manifold: geo.AffineManifold) -> ex.ScalarExpr:
    """The scalar (grad rho)_{111}^2 / rho_11^3.

    Defined in the regime where rho_11 is not identically zero and the
    covariant derivative of the Ricci tensor is a multiple of dx1 (x) dx1 (x) dx1;
    it is unchanged under chart maps fixing that regime.
    """
    rho11 = manifold.ricci_parts.full.comp(0, 0)
    if ex.is_identically_zero(rho11) is not Verdict.NONZERO:
        raise RegimeError("rho_11 is identically zero")
    nabla = geo.nabla_ricci(manifold)
    m = manifold.dim
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if (i, j, k) == (0, 0, 0):
                    continue
                if ex.is_identically_zero(nabla.comp(i, j, k)) is Verdict.NONZERO:
                    raise RegimeError(
                        "grad Ricci is not a multiple of dx1 (x) dx1 (x) dx1")
    return ex.simplify_rational(ex.powi(nabla.comp(0, 0, 0), 2) / ex.powi(rho11, 3))
