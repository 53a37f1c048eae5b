"""Spans and counters recorded around affineqe's public functions.

`Tracer.install` rebinds each wrapped function in every affineqe module that
looks it up by name, because several modules bind functions at import time
(`qe_solver` binds `float_rank_kernel`, `catalog` binds `exact_rank`, the
package root re-exports `expr` functions).  Methods are patched on their class
(`linalg.RowReducer.add_row`), which covers `qe_solver`'s binding of the class.
The one wrapped class, `poly.RationalFunc`, is rebound only in `projective`,
the one module that calls it as a constructor; `expr` uses its class methods
and is measured through `to_ratfunc`/`from_ratfunc` instead.
`Tracer.uninstall` restores every binding.

Spans are kept in memory (name, start, end, parent) until the traced phase
ends.  Spans are recorded only while `Tracer.active` is true, so the
benchmark's own reference checks and input generation are never traced.
`differentiate` and `evaluate` are counted, not timed: one span costs about
as much as a typical call, so their time stays in the calling span's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = ("expr", "poly", "linalg", "geometry", "qe_solver", "projective",
           "extension", "catalog", "cli")

# span name -> (home module, attribute); an attribute "Class.method" patches a method
SPANS = {
    "expr.simplify_rational": ("expr", "simplify_rational"),
    "expr.zero_test": ("expr", "is_identically_zero"),
    "expr.compile_float": ("expr", "compile_float"),
    "poly.to_ratfunc": ("expr", "to_ratfunc"),
    "poly.from_ratfunc": ("expr", "from_ratfunc"),
    "poly.RationalFunc": ("projective", "RationalFunc"),
    "linalg.add_row": ("linalg", "RowReducer.add_row"),
    "linalg.kernel_basis": ("linalg", "RowReducer.kernel_basis"),
    "linalg.exact_rank": ("linalg", "exact_rank"),
    "linalg.float_rank_kernel": ("linalg", "float_rank_kernel"),
    "geometry.from_christoffel": ("geometry", "from_christoffel"),
    "geometry.curvature": ("geometry", "curvature"),
    "geometry.ricci": ("geometry", "ricci"),
    "geometry.hessian": ("geometry", "hessian"),
    "geometry.nabla_ricci": ("geometry", "nabla_ricci"),
    "geometry.tensor_zero_verdict": ("geometry", "tensor_zero_verdict"),
    "geometry.is_totally_symmetric": ("geometry", "is_totally_symmetric"),
    "geometry.apply_qe_operator": ("geometry", "apply_qe_operator"),
    "qe_solver.build_jet_system": ("qe_solver", "build_jet_system"),
    "qe_solver.integrability_constraints": ("qe_solver", "integrability_constraints"),
    "qe_solver.prolong": ("qe_solver", "prolong"),
    "qe_solver.solution_dimension": ("qe_solver", "solution_dimension"),
    "qe_solver.transport_jet": ("qe_solver", "transport_jet"),
    "projective.deform": ("projective", "deform"),
    "projective.strong_flatness_test": ("projective", "strong_flatness_test"),
    "projective.flat_chart": ("projective", "flat_chart"),
    "projective.base_invariant_errors": ("projective", "base_invariant_errors"),
    "projective.chart_radius": ("projective", "chart_radius"),
    "projective.box_grid": ("projective", "box_grid"),
    "projective.integrate_geodesic": ("projective", "integrate_geodesic"),
    "projective.geodesic_straightness": ("projective", "geodesic_straightness"),
    "extension.deformed_extension": ("extension", "deformed_extension"),
    "extension.inverse_metric": ("extension", "inverse_metric"),
    "extension.levi_civita": ("extension", "levi_civita"),
    "extension.extension_identities_residuals":
        ("extension", "extension_identities_residuals"),
    "extension.quasi_einstein_residual": ("extension", "quasi_einstein_residual"),
    "extension.soliton_potential": ("extension", "soliton_potential"),
    "catalog.model_for": ("catalog", "model_for"),
    "catalog.sweep": ("catalog", "sweep"),
}

COUNTED = {
    "expr.differentiate": ("expr", "differentiate"),
    "expr.evaluate": ("expr", "evaluate"),
}


def _transport_steps(args, kwargs) -> int:
    """RK4 steps of one transport_jet call: steps per segment times segments."""
    bound = inspect.signature(_module("qe_solver").transport_jet).bind(*args, **kwargs)
    bound.apply_defaults()
    segments = len(bound.arguments["path"]) - 1
    return segments * bound.arguments["steps_per_segment"] if segments > 0 else 0


def _after_add_row(counts, args, kwargs, result):
    counts["linalg.add_row.independent"] += bool(result)


def _after_zero_test(counts, args, kwargs, result):
    expression = args[0] if args else kwargs["e"]
    counts["expr.zero_test.sampled"] += not expression.rational_only
    counts["expr.zero_test.certified"] += result.certified


def _after_solution_dimension(counts, args, kwargs, result):
    counts["qe_solver.generations"] += len(result.rank_history) - 1
    counts["qe_solver.unstabilized"] += not result.stabilized


def _after_integrability(counts, args, kwargs, result):
    counts["qe_solver.rows_generated"] += len(result.rows)


def _after_prolong(counts, args, kwargs, result):
    stack = args[1] if len(args) > 1 else kwargs["stack"]
    counts["qe_solver.rows_generated"] += len(result.rows) - len(stack.rows)


def _after_transport(counts, args, kwargs, result):
    counts["qe_solver.rk4_steps"] += _transport_steps(args, kwargs)


AFTER = {
    "linalg.add_row": _after_add_row,
    "expr.zero_test": _after_zero_test,
    "qe_solver.solution_dimension": _after_solution_dimension,
    "qe_solver.integrability_constraints": _after_integrability,
    "qe_solver.prolong": _after_prolong,
    "qe_solver.transport_jet": _after_transport,
}


def _module(name):
    return sys.modules[f"affineqe.{name}"]


def package_modules() -> list:
    """The package's modules that are imported now."""
    return [module for name, module in sys.modules.items()
            if module is not None and (name == "affineqe" or name.startswith("affineqe."))]


class Tracer:
    """Wrappers around the package's public functions plus the spans they record."""

    def __init__(self):
        self.active = False
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._restore: list = []  # (owner, attribute, original)

    # ---------------------------------------------------------------- wrapping

    def _span(self, name, fn):
        after = AFTER.get(name)
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        key = name + ".calls"
        counts = self.counts

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, attribute, replacement):
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every target wherever the package looks it up."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        targets = [(name, spec, self._span) for name, spec in SPANS.items()]
        targets += [(name, spec, self._counter) for name, spec in COUNTED.items()]
        modules = package_modules()
        for name, (home, attribute), make in targets:
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(_module(home), cls_name)
                self._rebind(cls, method, make(name, cls.__dict__[method]))
                continue
            original = getattr(_module(home), attribute)
            wrapper = make(name, original)
            if isinstance(original, type):
                self._rebind(_module(home), attribute, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(attribute) is original:
                    self._rebind(module, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every binding replaced by `install`, newest first."""
        self.active = False
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def wrapped_bindings(self) -> list:
        """(owner, attribute) pairs currently holding a wrapper."""
        return [(owner, attribute) for owner, attribute, _ in self._restore]

    # ----------------------------------------------------------------- metrics

    def calls(self) -> Counter:
        counts = Counter(self.names)
        for name in COUNTED:
            counts[name] = self.counts[name + ".calls"]
        return counts

    def inclusive_seconds(self) -> dict:
        """Per span name, the time covered by its outermost spans."""
        totals: dict = {}
        for index, name in enumerate(self.names):
            parent = self.parents[index]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                totals[name] = totals.get(name, 0.0) + self.ends[index] - self.starts[index]
        return totals

    def self_seconds(self) -> dict:
        """Per layer, its span time minus the time its child spans cover."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = list(durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        layers = {name: 0.0 for name in MODULES}
        for name, seconds in zip(self.names, own):
            layer = name.split(".", 1)[0]
            layers[layer] += seconds
        return layers

    def durations(self, name: str) -> list:
        return [end - start for span, start, end in zip(self.names, self.starts, self.ends)
                if span == name]
