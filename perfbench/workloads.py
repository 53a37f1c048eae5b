"""The benchmark's three workloads: seeded inputs, timed steps, reference checks.

Inputs are drawn here from the seed, with the benchmark's own copies of the
catalog's random laws, so that a change to the package cannot change them.
A workload turns its input stream into steps.  A step makes the package calls
of one unit of work and returns a JSON-ready record; most steps are items,
whose latency is measured and whose record is checked against a reference
that does not come from the code being timed.  Checks run after the timed
phase.  Each step names the (manifold, mu) it solves on and its whole input,
so a run can report how much of its work repeats earlier work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from affineqe import catalog as cat
from affineqe import expr as ex
from affineqe import extension as xt
from affineqe import geometry as geo
from affineqe import projective as pj
from affineqe import qe_solver as qs


@dataclass(frozen=True)
class Step:
    run: Callable[[], object]  # the package calls; returns the step's record
    item: bool                 # items are timed and checked one by one
    manifold_mu: tuple         # the (manifold, mu) the step works on
    input_key: tuple           # the step's whole input


# ------------------------------------------------------------------ exact_sweep

_SIX = ("c11_1", "c11_2", "c12_1", "c12_2", "c22_1", "c22_2")
_SWEEP_MUS = {
    "typeB": (Fraction(-1), Fraction(1, 3)),
    "typeA": (Fraction(-1), Fraction(1, 2), Fraction(2)),
    "family3d": (Fraction(-1, 2),),
}
# 6 typeB : 2 typeA : 2 family3d, interleaved so every ten items have the same mix
_SWEEP_PATTERN = ("typeB", "typeB", "typeB", "typeA", "typeB",
                  "family3d", "typeB", "typeA", "typeB", "family3d")


def _random_constant(rng: random.Random) -> Fraction:
    """The law of catalog.random_constant: p/q with q in 1..3 and |p/q| <= 3."""
    den = rng.randint(1, 3)
    return Fraction(rng.randint(-3 * den, 3 * den), den)


def _x1_only_solutions(params: dict, mu: Fraction) -> int:
    """Dimension of the solutions f(x1) of Hess f = mu f rho_s on a wall chart.

    With symbols C/x1 and rho_s = R/x1^2 the equation for f(x1) reads
    p(p-1) - p C_11^1 = mu R_11 and -p C_ij^1 = mu R_ij for (i,j) = (1,2), (2,2),
    where x1 f' = p f.  If C_12^1 or C_22^1 is nonzero, p is pinned and x1^p is the
    only candidate; otherwise the first (Euler) equation has a 2-dim solution space.
    """
    point = (Fraction(1), Fraction(0))
    rho = geo.ricci(cat.TypeBSurface(**params).manifold()).sym
    r = [[ex.evaluate(rho.comp(i, j), point) for j in range(2)] for i in range(2)]
    pinned = [(-mu * r[0][1], params["c12_1"]), (-mu * r[1][1], params["c22_1"])]
    if any(c == 0 and value != 0 for value, c in pinned):
        return 0
    powers = {value / c for value, c in pinned if c}
    if not powers:
        return 2
    if len(powers) > 1:
        return 0
    p = powers.pop()
    return 1 if p * (p - 1) - p * params["c11_1"] == mu * r[0][0] else 0


def _wall_prediction(params: dict, mu: Fraction, predicted):
    """The literal case analysis, checked against an independent bound.

    The wall-chart symmetries x -> t x and x2 -> x2 + s act on the solution
    space, and the translations act nilpotently on it, so a nonzero solution
    space always holds a nonzero solution of x1 alone: the space is zero exactly
    when `_x1_only_solutions` is, and at least that large otherwise.  The case
    analysis is literal on normal forms and can miss such solutions on a random
    chart; there the bound replaces it.
    """
    lower = _x1_only_solutions(params, mu)
    if lower == 0:
        return cat.Prediction.exact(0)
    if predicted.kind == "exact" and predicted.value < lower:
        return cat.Prediction.at_least(lower)
    return predicted


class ExactSweep:
    """One catalog.sweep call per item over a fresh seeded model."""

    name = "exact_sweep"
    why = ("affineqe sweep/classify traffic: exact prolongation and row reduction "
           "on a new 2-/3-dim model per item, so (manifold, mu) reuse is ~0")
    tail_percentile = 95
    min_items = 200
    digest_items = 60
    trace_items = 120
    setup_units = 1000

    def inputs(self, seed: int) -> Iterator:
        rng = random.Random(seed)
        for index in itertools.count():
            kind = _SWEEP_PATTERN[index % len(_SWEEP_PATTERN)]
            names = "xyzw" if kind == "family3d" else _SIX
            params = {name: _random_constant(rng) for name in names}
            yield kind, params, _SWEEP_MUS[kind]

    def steps(self, unit) -> Iterator[Step]:
        kind, params, mus = unit
        key = (kind, tuple(sorted((k, str(v)) for k, v in params.items())))

        def run():
            result = cat.sweep(kind, [params], list(mus))
            return {"kind": kind,
                    "params": {k: str(v) for k, v in params.items()},
                    "mus": [str(mu) for mu in mus],
                    "dims": [row["dim"] for row in result.rows],
                    "violations": list(result.violations)}

        yield Step(run, True, key + (tuple(str(mu) for mu in mus),), key)

    def check(self, record) -> bool:
        """The closed-form case analysis, and no violations."""
        if record["violations"] or len(record["dims"]) != len(record["mus"]):
            return False
        kind = record["kind"]
        params = {k: Fraction(v) for k, v in record["params"].items()}
        for mu, dim in zip(record["mus"], record["dims"]):
            predicted = cat.expected_dimension(kind, params, Fraction(mu))
            if kind == "typeB":
                predicted = _wall_prediction(params, Fraction(mu), predicted)
            if predicted.kind == "not-covered" or not predicted.matches(dim):
                return False
        return True

    def digest_extra(self, record) -> object:
        """Rank histories of the item's solves, recomputed outside the timed phase."""
        params = {k: Fraction(v) for k, v in record["params"].items()}
        manifold = cat.build_model(record["kind"], params)
        point = cat.default_basepoint(manifold)
        return [list(qs.solution_dimension(manifold, Fraction(mu), point).rank_history)
                for mu in record["mus"]]


# ------------------------------------------------------------------- flat_chart

_WALL_C = (Fraction(-2), Fraction(-1), Fraction(-1, 3), Fraction(1, 3),
           Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
_POTENTIAL_COEFFS = (Fraction(-1, 2), Fraction(-1, 3), Fraction(-1, 4), Fraction(-1, 5),
                     Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))
GEODESICS_PER_CHART = 4
CHART_BOUND = 1e-9      # criterion 10: z and dz errors at the basepoint
DEVIATION_BOUND = 1e-6  # criterion 10: geodesic images are straight


def _potential(a, b, c) -> ex.ScalarExpr:
    x1, x2 = ex.coord(0), ex.coord(1)
    return a * x1 * x2 + b * x1 * x1 + c * x2 * x2


class FlatChart:
    """Flat charts of strongly projectively flat surfaces, then geodesic checks."""

    name = "flat_chart"
    why = ("affineqe flatten traffic: float compile, RK4 jet transport and geodesics; "
           "every transport reuses one (manifold, mu), so reuse is ~1")
    tail_percentile = 75
    min_items = 40
    digest_items = 8
    trace_items = 12
    setup_units = 40

    def inputs(self, seed: int) -> Iterator:
        rng = random.Random(seed)
        for index in itertools.count():
            shape = index % 3
            if shape < 2:
                surface = ("wall", 1 if shape == 0 else -1, rng.choice(_WALL_C))
            else:
                surface = ("deform",) + tuple(rng.choice(_POTENTIAL_COEFFS) for _ in range(3))
            yield surface, rng.getrandbits(32)

    def steps(self, unit) -> Iterator[Step]:
        surface, geodesic_seed = unit
        key = tuple(str(v) for v in surface)
        state: dict = {}

        def build():
            if surface[0] == "wall":
                manifold = cat.wall_projflat_surface(surface[1], surface[2]).manifold()
                base = (Fraction(1), Fraction(0))
            else:
                change = pj.ProjectiveChange.from_potential(_potential(*surface[1:]), 2)
                manifold = pj.deform(geo.flat_manifold(2), change)
                base = (Fraction(0), Fraction(0))
            radius = pj.chart_radius(manifold, base)
            chart = pj.flat_chart(manifold, base, pj.box_grid(base, radius, per_axis=1))
            state.update(manifold=manifold, chart=chart,
                         errors=pj.base_invariant_errors(chart))
            return {"surface": list(key), "radius": radius,
                    "z": [list(z) for z in chart.z_values],
                    "errors": list(state["errors"])}

        yield Step(build, False, (key, "-1"), key)
        rng = random.Random(geodesic_seed)
        for number in range(GEODESICS_PER_CHART):
            def geodesic(number=number):
                if "chart" not in state:
                    raise RuntimeError("no chart: its build failed")
                deviation = pj.geodesic_straightness(state["manifold"], state["chart"], 1, rng)
                return {"surface": list(key), "geodesic": number,
                        "errors": list(state["errors"]), "deviation": deviation}

            yield Step(geodesic, True, (key, "-1"), key + (geodesic_seed, number))

    def check(self, record) -> bool:
        """Criterion 10's bounds on the chart and on each geodesic."""
        return (max(record["errors"]) < CHART_BOUND
                and record["deviation"] < DEVIATION_BOUND)

    def digest_extra(self, record) -> object:
        return None


# ----------------------------------------------------------------- extension_qe

EXP3D_EIGENVALUE = Fraction(-3, 5)


def _test_functions():
    x1, x3 = ex.coord(0), ex.coord(2)
    # (f, whether f solves Hess f = mu f rho_s on exp3d at mu = -3/5)
    return ((ex.exp(3 * x3), True), (x1 * ex.exp(3 * x3), True), (x1 * x3, False))


def _random_phi(dim: int, rng: random.Random) -> list:
    """The law of extension.random_symmetric_phi at degree 1."""
    grid = [[ex.ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            value = ex.const(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) \
                + ex.const(Fraction(rng.randint(-2, 2), 1)) * ex.coord(rng.randrange(dim))
            grid[i][j] = value
            grid[j][i] = value
    return grid


class ExtensionQE:
    """Pullback identities and the quasi-Einstein residual on exp3d's extension."""

    name = "extension_qe"
    why = ("affineqe extend traffic: 6-dim Levi-Civita and Ricci, sampled exp/log "
           "zero-tests; one base manifold, a new Phi per item")
    tail_percentile = 75
    min_items = 40
    digest_items = 12
    trace_items = 24
    setup_units = 200

    def inputs(self, seed: int) -> Iterator:
        base = cat.exp3d_model()
        functions = _test_functions()
        rng = random.Random(seed)
        for index in itertools.count():
            number = index % len(functions)
            yield base, number, functions[number], _random_phi(3, rng)

    def steps(self, unit) -> Iterator[Step]:
        base, number, (f, eigen), phi = unit
        phi_key = tuple(ex.format_expr(e) for row in phi for e in row)

        def run():
            residuals = xt.extension_identities_residuals(base, phi, f)
            verdicts = [geo.tensor_zero_verdict(residuals.hessian_defect).value,
                        geo.tensor_zero_verdict(residuals.ricci_defect).value,
                        ex.is_identically_zero(residuals.null_gradient).value]
            if eigen:
                psi, qe_mu = xt.soliton_potential(f, EXP3D_EIGENVALUE)
                metric = xt.deformed_extension(base, phi)
                residual = xt.quasi_einstein_residual(metric, psi, qe_mu, 0)
                verdicts.append(geo.tensor_zero_verdict(residual).value)
            return {"f": number, "phi": list(phi_key), "verdicts": verdicts,
                    "expected": 4 if eigen else 3}

        mu = str(EXP3D_EIGENVALUE) if eigen else "-"
        yield Step(run, True, ("exp3d", mu), (number,) + phi_key)

    def check(self, record) -> bool:
        """The identities hold for every Phi and the QE residual vanishes for
        eigenfunctions, so only a `nonzero` verdict is wrong."""
        verdicts = record["verdicts"]
        return (len(verdicts) == record["expected"]
                and all(v in ("zero", "numeric-only") for v in verdicts))

    def digest_extra(self, record) -> object:
        return None


WORKLOADS = {w.name: w for w in (ExactSweep(), FlatChart(), ExtensionQE())}
