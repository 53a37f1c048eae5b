"""Per-call times of the ROADMAP baseline calls, traced and untraced.

Usage: python3 perfbench/reconcile.py

Runs each call of the ROADMAP baseline table five times with the benchmark's
wrappers installed and five times without, and prints the traced median and
best and the untraced best beside the table's figure, which is a best of 5.
A gap of the traced best beyond the table's +-20% noise is flagged.
"""

import statistics
from fractions import Fraction
from time import perf_counter

import harness

REPEATS = 5
NOISE = 0.20


def main() -> int:
    harness.pin_threads()
    harness.load_package()
    from affineqe import catalog as cat
    from affineqe import extension as xt
    from affineqe import geometry as geo
    from affineqe import qe_solver as qs
    from tracer import Tracer

    exp3d = cat.exp3d_model()
    wall = cat.wall_dim1_surface(1).manifold()
    projflat = cat.wall_projflat_surface(1, 1).manifold()
    origin = (Fraction(0),) * 3
    metric = xt.deformed_extension(exp3d)
    # (label, span, ROADMAP ms, call, RK4 steps per call or None)
    cases = [
        ("geometry.ricci, exp3d", "geometry.ricci", 5.3, lambda: geo.ricci(exp3d), None),
        ("qe_solver.solution_dimension, exp3d @ -3/5", "qe_solver.solution_dimension", 16.5,
         lambda: qs.solution_dimension(exp3d, Fraction(-3, 5), origin), None),
        ("qe_solver.solution_dimension, wallDim1 @ -1", "qe_solver.solution_dimension", 8.8,
         lambda: qs.solution_dimension(wall, -1, (Fraction(1), Fraction(0))), None),
        ("qe_solver.transport_jet per 1000 RK4 steps, wallProjFlat @ -1",
         "qe_solver.transport_jet", 16.8,
         lambda: qs.transport_jet(projflat, -1, [(1, 0), (1.25, 0.25)], [1.0, 0.0, 0.0]),
         1000),
        ("extension.levi_civita, 6-dim extension of exp3d", "extension.levi_civita", 17.9,
         lambda: xt.levi_civita(metric), None),
    ]
    print(f"{'call (ms)':64s} {'ROADMAP':>8s} {'traced':>8s} {'best':>8s} {'untraced':>8s}"
          f"  gap (best)")
    for label, span, baseline, call, steps in cases:
        untraced = []
        for _ in range(REPEATS):
            began = perf_counter()
            call()
            untraced.append(perf_counter() - began)
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            for _ in range(REPEATS):
                call()
        finally:
            tracer.uninstall()
        scale = 1000 * (1000 / steps if steps else 1)
        traced = tracer.durations(span)
        best_ms = min(traced) * scale
        gap = best_ms / baseline - 1
        flag = "  beyond +-20%" if abs(gap) > NOISE else ""
        print(f"{label:64s} {baseline:8.1f} {statistics.median(traced) * scale:8.1f} "
              f"{best_ms:8.1f} {min(untraced) * scale:8.1f}  {gap:+.0%}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
