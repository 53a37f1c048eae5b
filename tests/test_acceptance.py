"""Acceptance suite: the thirteen headline checks, one test per criterion.

Every tolerance is pinned here; a criterion passes only at its stated bound.
Each test prints a single PASS line (pytest's own report marks failures).
"""

import random
from fractions import Fraction

from affineqe import catalog as cat
from affineqe import expr as ex
from affineqe import extension as xt
from affineqe import geometry as geo
from affineqe import projective as pj
from affineqe import qe_solver as qs
from affineqe.expr import Verdict
from affineqe.linalg import exact_rank


def q(a, b=1):
    return Fraction(a, b)


ORIGIN2 = (q(0), q(0))
ORIGIN3 = (q(0), q(0), q(0))
WALL_BASE = (q(1), q(0))


def passed(number: int, text: str) -> None:
    print(f"PASS criterion {number:2d}: {text}")


def test_criterion_01_exp3d_dimension_table():
    m = cat.exp3d_model()
    table = {q(-3, 5): 2, q(0): 1, q(-1): 0, q(-1, 2): 0, q(1): 0, q(3, 5): 0, q(2): 0}
    for mu, want in table.items():
        space = qs.solution_dimension(m, mu, ORIGIN3)
        assert space.stabilized
        assert space.dim == want, f"mu={mu}: got {space.dim}, want {want}"
    passed(1, "3d exponential model dimension table reproduced exactly")


def test_criterion_02_family3d_case_table_and_sweep():
    cases = [
        ({"x": q(1), "y": q(0), "z": q(0), "w": q(0)}, 0),
        ({"x": q(1), "y": q(0), "z": q(2), "w": q(1, 4)}, 1),
        ({"x": q(1), "y": q(0), "z": q(1), "w": q(0)}, 2),
        ({"x": q(0), "y": q(5), "z": q(7), "w": q(-2)}, 4),
    ]
    for params, want in cases:
        m = cat.build_model("family3d", params)
        assert qs.solution_dimension(m, q(-1, 2), ORIGIN3).dim == want
    grid = [{"x": x, "y": 0, "z": z, "w": w}
            for x in (0, 1) for z in (0, 1, 2) for w in (0, q(1, 4))]
    result = cat.sweep("family3d", grid, [q(-1, 2)])
    assert result.violations == []
    assert 3 not in result.dims
    assert result.dims == {0, 1, 2, 4}
    passed(2, "3d family case table exact; sweep dims {0,1,2,4}, never 3")


def test_criterion_03_projective_shear():
    flat = geo.flat_manifold(2)
    assert qs.solution_dimension(flat, q(-1), ORIGIN2).dim == 3
    sheared = pj.deform(flat, [ex.coord(1), ex.ZERO])
    assert qs.solution_dimension(sheared, q(-1), ORIGIN2).dim == 0
    passed(3, "flat plane dim 3 at mu=-1; x2 dx1 shear collapses it to 0")


def test_criterion_04_constant_surfaces_at_surface_eigenvalue():
    rng = random.Random(2024_04)
    for _ in range(20):
        m = cat.random_type_a(rng).manifold()
        assert qs.solution_dimension(m, q(-1), ORIGIN2).dim == 3
    passed(4, "20 random curved constant surfaces all have dim 3 at mu=-1")


def test_criterion_05_constant_surface_rank_dichotomy():
    rng = random.Random(202412)  # seed chosen so both Ricci ranks occur
    ranks_seen = set()
    for _ in range(20):
        surface = cat.random_type_a(rng)
        rank = exact_rank(cat._ricci_constants_a(surface), 2)
        ranks_seen.add(rank)
        m = surface.manifold()
        for mu in (q(1, 2), q(2)):
            dim = qs.solution_dimension(m, mu, ORIGIN2).dim
            assert (dim == 2) == (rank == 1)
            assert (dim == 0) == (rank == 2)
    assert ranks_seen == {1, 2}
    passed(5, "dim 2 iff Ricci rank 1, dim 0 iff rank 2, for 20 seeded surfaces")


def test_criterion_06_wall_surface_sweep_never_two():
    rng = random.Random(7)
    dims_seen = set()
    count = 0
    while count < 500:
        surface = cat.TypeBSurface(*[cat.random_constant(rng) for _ in range(6)])
        full, _ = cat._ricci_constants_b(surface)
        if exact_rank(full, 2) == 0:
            continue
        dim = qs.solution_dimension(surface.manifold(), q(-1), WALL_BASE).dim
        assert dim != 2
        assert dim in (0, 1, 3)
        dims_seen.add(dim)
        count += 1
    reps = {
        0: cat.TypeBSurface(q(1), q(1), q(1), q(0), q(1), q(2)),
        1: cat.wall_dim1_surface(1),
        3: cat.wall_projflat_surface(1, 1),
    }
    for want, surface in reps.items():
        assert qs.solution_dimension(surface.manifold(), q(-1), WALL_BASE).dim == want
    passed(6, "500 wall surfaces at mu=-1: dims in {0,1,3}; representatives hit 0/1/3")


def test_criterion_07_pinned_eigenvalue_families():
    pair = cat.wall_eigen_pair_surface(1, 1).manifold()
    assert qs.solution_dimension(pair, q(1, 2), WALL_BASE).dim == 2
    for mu in (q(1, 3), q(1), q(2)):
        assert qs.solution_dimension(pair, mu, WALL_BASE).dim == 0
    rng = random.Random(2024_07)
    verified = 0
    while verified < 5:
        eps = rng.choice([1, -1])
        surface = cat.wall_eigen_surface(eps, cat.random_constant(rng),
                                         cat.random_constant(rng),
                                         cat.random_constant(rng))
        try:
            mu = cat.wall_eigen_value(surface)
        except cat.RegimeError:
            continue
        if mu in (0, -1):
            continue
        _, sym = cat._ricci_constants_b(surface)
        if exact_rank(sym, 2) == 0 or surface.is_also_constant_type():
            continue
        m = surface.manifold()
        assert qs.solution_dimension(m, mu, WALL_BASE).dim >= 1
        for _ in range(5):
            other = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if other in (mu, 0, -1):
                continue
            assert qs.solution_dimension(m, other, WALL_BASE).dim == 0
        verified += 1
    passed(7, "pinned-eigenvalue families: dim 2 at mu=1/2 (and 0 off it); "
              "5 seeded draws solve exactly at the closed-form eigenvalue")


def test_criterion_08_ricci_transform_identity():
    rng = random.Random(2024_08)
    for _ in range(50):
        m = cat.random_type_a(rng).manifold()
        g = ex.ZERO
        for i in range(3):
            for j in range(3 - i):
                if rng.random() < 0.5:
                    coeff = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                    g = g + ex.const(coeff) * ex.coord(0) ** i * ex.coord(1) ** j
        residual = pj.ricci_transform_residual(m, g)
        assert geo.tensor_zero_verdict(residual) is Verdict.ZERO
    passed(8, "symmetric-Ricci deformation identity: 50 exact zero certificates")


def test_criterion_09_strong_deformation_invariance():
    rng = random.Random(2024_09)
    for _ in range(30):
        m = cat.random_type_a(rng).manifold()
        g = ex.ZERO
        for i in range(2):
            for j in range(2 - i):
                coeff = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                g = g + ex.const(coeff) * ex.coord(0) ** (i + 1) * ex.coord(1) ** j
        deformed = pj.deform(m, pj.ProjectiveChange.from_potential(g, 2))
        before = qs.solution_dimension(m, q(-1), ORIGIN2).dim
        after = qs.solution_dimension(deformed, q(-1), ORIGIN2).dim
        assert before == after
        alt_diff = geo.tensor_sub(geo.ricci(deformed).alt, geo.ricci(m).alt)
        assert geo.tensor_zero_verdict(alt_diff) is Verdict.ZERO
    passed(9, "dim at -1/(m-1) and alternating Ricci invariant for 30 deformations")


def test_criterion_10_flat_chart_and_straight_geodesics():
    m = cat.wall_projflat_surface(1, 1).manifold()
    radius = pj.chart_radius(m, WALL_BASE)
    chart = pj.flat_chart(m, WALL_BASE, pj.box_grid(WALL_BASE, radius, per_axis=1))
    z_err, jac_err = pj.base_invariant_errors(chart)
    assert z_err < 1e-9
    assert jac_err < 1e-9
    deviation = pj.geodesic_straightness(m, chart, 20, random.Random(2024_10))
    assert deviation < 1e-6
    passed(10, f"flat chart base errors {z_err:.1e}/{jac_err:.1e}; "
               f"20 geodesics straighten to {deviation:.1e}")


def test_criterion_11_extension_identities_and_metric_equation():
    rng = random.Random(2024_11)
    base = cat.exp3d_model()
    f = ex.coord(0) * ex.coord(2)
    for _ in range(3):
        phi = xt.random_symmetric_phi(3, rng)
        residuals = xt.extension_identities_residuals(base, phi, f)
        assert geo.tensor_zero_verdict(residuals.hessian_defect) is Verdict.ZERO
        assert geo.tensor_zero_verdict(residuals.ricci_defect) is Verdict.ZERO
        assert ex.is_identically_zero(residuals.null_gradient) is Verdict.ZERO
    psi, qe_mu = xt.soliton_potential(ex.exp(3 * ex.coord(2)), q(-3, 5))
    metric = xt.deformed_extension(base)
    residual = xt.quasi_einstein_residual(metric, psi, qe_mu, 0)
    points = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(20)]
    worst = xt.sample_residual(residual, points)
    assert worst < 1e-8
    passed(11, f"three pullback identities exact for 3 seeded deformations; "
               f"metric equation residual {worst:.1e} at 20 points")


def test_criterion_12_holonomy_soundness():
    fixtures = [
        (cat.exp3d_model(), q(-3, 5), ORIGIN3,
         [(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1), (0, 0, 0)]),
        (cat.wall_dim1_surface(1).manifold(), q(-1), WALL_BASE,
         [(1, 0), (2, 0), (2, 1), (1, 1), (1, 0)]),
        (cat.wall_projflat_surface(1, 1).manifold(), q(-1), WALL_BASE,
         [(1, 0), (2, 0), (2, 1), (1, 1), (1, 0)]),
    ]
    worst = 0.0
    for manifold, mu, basepoint, loop in fixtures:
        space = qs.solution_dimension(manifold, mu, basepoint)
        assert space.dim >= 1
        defects = qs.holonomy_defect(manifold, mu, loop,
                                     [[float(c) for c in jet] for jet in space.basis])
        worst = max(worst, *defects)
        assert max(defects) < 1e-7
    passed(12, f"admissible jets return on unit loops; worst defect {worst:.1e}")


def test_criterion_13_alpha_invariant():
    m = cat.exp_surface(0, q(1, 2), 0).manifold()
    alpha = cat.alpha_invariant(m)
    assert ex.is_identically_zero(alpha - ex.const(16)) is Verdict.ZERO
    a = 1
    g = ex.neg(ex.log(a + ex.exp(ex.coord(0))))
    deformed = pj.deform(m, pj.ProjectiveChange.from_potential(g, 2))
    alpha_deformed = cat.alpha_invariant(deformed)
    ratio_expr = ex.parse_scalar("(1 - exp(x1))^2 * (1 + exp(x1))^-2", ["x1", "x2"])
    values_at = ex.compile_float([alpha_deformed, alpha, ratio_expr])
    rng = random.Random(2024_13)
    worst = 0.0
    for _ in range(5):
        p = [rng.uniform(-0.8, 0.8), rng.uniform(-1, 1)]
        deformed_value, value, expected = values_at(p)
        worst = max(worst, abs(deformed_value / value - expected))
    assert worst < 1e-8
    passed(13, f"alpha = 16 exact; deformation ratio matches within {worst:.1e}")
