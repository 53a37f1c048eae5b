"""The benchmark's own tests: wrapper coverage, digests and reference checks.

Usage: python3 perfbench/selftest.py        (about a minute on one core)
"""

import json
import sys
import unittest

import harness

harness.pin_threads()
harness.load_package()

import workloads  # noqa: E402  (needs the package from src/ on sys.path)
from tracer import COUNTED, SPANS, Tracer, package_modules  # noqa: E402

SEED, OTHER_SEED = 11, 12

# Functions each workload must reach, from the layer table in README.md.
# linalg.float_rank_kernel (float basepoints only) and geometry.curvature (the
# `curvature`/`verify` commands only) lie on no workload's path.
ACTIVE = {
    "exact_sweep": (
        "expr.simplify_rational", "expr.differentiate", "expr.evaluate",
        "poly.to_ratfunc", "poly.from_ratfunc",
        "linalg.add_row", "linalg.exact_rank", "geometry.ricci",
        "qe_solver.solution_dimension", "qe_solver.build_jet_system",
        "qe_solver.integrability_constraints", "qe_solver.prolong", "catalog.sweep"),
    "flat_chart": (
        "expr.compile_float", "qe_solver.transport_jet", "qe_solver.build_jet_system",
        "qe_solver.solution_dimension", "projective.flat_chart",
        "projective.geodesic_straightness", "projective.integrate_geodesic",
        "projective.chart_radius", "projective.deform"),
    "extension_qe": (
        "expr.simplify_rational", "expr.differentiate", "expr.zero_test",
        "poly.to_ratfunc", "poly.from_ratfunc",
        "geometry.ricci", "geometry.hessian", "geometry.tensor_zero_verdict",
        "extension.deformed_extension", "extension.levi_civita",
        "extension.inverse_metric", "extension.extension_identities_residuals",
        "extension.quasi_einstein_residual"),
}


def _bindings() -> dict:
    """Every module global and class attribute of the package, by identity."""
    seen = {}
    for module in package_modules():
        for attribute, value in vars(module).items():
            seen[(module.__name__, attribute)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member, item in vars(value).items():
                    seen[(f"{module.__name__}.{attribute}", member)] = item
    return seen


class WrapperTests(unittest.TestCase):
    def test_bindings_made_at_import_are_wrapped(self):
        from affineqe import catalog, linalg, projective, qe_solver

        tracer = Tracer()
        tracer.install()
        try:
            self.assertTrue(hasattr(qe_solver.float_rank_kernel, "__wrapped__"))
            self.assertIs(qe_solver.RowReducer, linalg.RowReducer)
            self.assertTrue(hasattr(qe_solver.RowReducer.add_row, "__wrapped__"))
            self.assertTrue(hasattr(catalog.exact_rank, "__wrapped__"))
            self.assertTrue(hasattr(projective.RationalFunc, "__wrapped__"))
            for name, (home, attribute) in {**SPANS, **COUNTED}.items():
                if "." in attribute:
                    continue
                original = getattr(sys.modules[f"affineqe.{home}"], attribute).__wrapped__
                if isinstance(original, type):
                    continue
                for module in package_modules():
                    self.assertIsNot(vars(module).get(attribute), original,
                                     f"{module.__name__}.{attribute} escapes {name}")
        finally:
            tracer.uninstall()

    def test_uninstall_restores_every_binding(self):
        before = _bindings()
        tracer = Tracer()
        tracer.install()
        self.assertNotEqual(_bindings(), before)
        tracer.uninstall()
        after = _bindings()
        self.assertEqual(after.keys(), before.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertEqual(tracer.wrapped_bindings(), [])

    def test_benchmark_json_names_the_printed_metrics(self):
        with open(harness.ROOT / "BENCHMARK.json") as handle:
            spec = json.load(handle)
        self.assertEqual([(w["name"], w["why"]) for w in spec["workloads"]],
                         [(w.name, w.why) for w in workloads.WORKLOADS.values()])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(harness.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(harness.PER_LAYER))


class WorkloadTests(unittest.TestCase):
    def check(self, name):
        workload = workloads.WORKLOADS[name]

        def upto(count):
            return lambda items, elapsed: items >= count

        first = harness.run_phase(workload, harness.prepare(workload, SEED),
                                  upto(workload.digest_items))
        again = harness.run_phase(workload, harness.prepare(workload, SEED),
                                  upto(workload.digest_items))
        tracer = Tracer()
        tracer.install()
        try:
            traced = harness.run_phase(workload, harness.prepare(workload, SEED),
                                       upto(workload.trace_items), tracer)
        finally:
            tracer.uninstall()
        other = harness.run_phase(workload, harness.prepare(workload, OTHER_SEED),
                                  upto(workload.digest_items))

        for phase in (first, again, traced, other):
            self.assertEqual(harness.failures(workload, phase), [])
        expected = harness.digest(workload, first)
        self.assertNotEqual(expected, "incomplete")
        self.assertEqual(harness.digest(workload, again), expected)
        self.assertEqual(harness.digest(workload, traced), expected)
        self.assertNotEqual(harness.digest(workload, other), expected)

        calls = tracer.calls()
        for span in ACTIVE[name]:
            self.assertGreaterEqual(calls[span], 1, f"{span} never called on {name}")
        self.assertEqual(tracer.wrapped_bindings(), [])

    def test_exact_sweep(self):
        self.check("exact_sweep")

    def test_flat_chart(self):
        self.check("flat_chart")

    def test_extension_qe(self):
        self.check("extension_qe")


if __name__ == "__main__":
    unittest.main()
