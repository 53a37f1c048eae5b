"""Timed phases, metrics, result digests and the environment record of a run.

A run is one process with one thread.  Set-up is measured in fresh
interpreters (`setup_probe.py`), because set-up is what a user pays when a
command starts.  End-to-end metrics come from an untraced phase.  The traced
run executes a fixed number of items untraced, traced and untraced again, so
its counts repeat exactly for a seed and the phases can be compared.

End-to-end times are reported for a reference machine, because a shared
machine can change speed by half for minutes at a time.  So a short fixed
kernel of the package's kind of work, which no change to the package can
speed up, runs after every step for KERNEL_SHARE of the step's time and around
every set-up probe.  Its time per run over NOMINAL_KERNEL_S is the machine's
slowdown.  Each item latency and set-up probe is divided by the mean slowdown
measured just before and just after it; items_per_s is multiplied by the
slowdown averaged over the run.  The times as the clock read them are printed
beside.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
HARD_LIMIT_S = 120.0  # a timed phase ends here even short of its minimum item count
KERNEL_SHARE = 0.05        # kernel time after each step, as a share of the step's time
SETUP_KERNEL_S = 0.05      # kernel time before and after each set-up probe
NOMINAL_KERNEL_S = 1.2e-4  # one kernel run on the reference machine

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_ms_p50", "ms"),
              ("item_ms_tail", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("expr.self_s", "s"),
    ("expr.simplify_rational.calls", "count"), ("expr.simplify_rational.s", "s"),
    ("expr.differentiate.calls", "count"), ("expr.evaluate.calls", "count"),
    ("expr.zero_test.calls", "count"), ("expr.zero_test.s", "s"),
    ("expr.zero_test.sampled", "count"), ("expr.zero_test.certified_ratio", "ratio"),
    ("expr.compile_float.calls", "count"), ("expr.compile_float.s", "s"),
    ("poly.self_s", "s"),
    ("poly.to_ratfunc.calls", "count"), ("poly.to_ratfunc.s", "s"),
    ("poly.from_ratfunc.calls", "count"), ("poly.from_ratfunc.s", "s"),
    ("linalg.self_s", "s"),
    ("linalg.add_row.calls", "count"), ("linalg.add_row.s", "s"),
    ("linalg.add_row.independent_ratio", "ratio"),
    ("linalg.exact_rank.calls", "count"), ("linalg.exact_rank.s", "s"),
    ("geometry.self_s", "s"),
    ("geometry.ricci.calls", "count"), ("geometry.ricci.s", "s"),
    ("geometry.hessian.calls", "count"), ("geometry.hessian.s", "s"),
    ("geometry.tensor_zero_verdict.calls", "count"), ("geometry.tensor_zero_verdict.s", "s"),
    ("qe_solver.self_s", "s"),
    ("qe_solver.solution_dimension.calls", "count"), ("qe_solver.solution_dimension.s", "s"),
    ("qe_solver.build_jet_system.calls", "count"), ("qe_solver.build_jet_system.s", "s"),
    ("qe_solver.prolong.calls", "count"), ("qe_solver.prolong.s", "s"),
    ("qe_solver.transport_jet.calls", "count"), ("qe_solver.transport_jet.s", "s"),
    ("qe_solver.integrability_constraints.s", "s"),
    ("qe_solver.rows_generated", "count"), ("qe_solver.generations", "count"),
    ("qe_solver.unstabilized", "count"), ("qe_solver.rk4_steps", "count"),
    ("projective.self_s", "s"),
    ("projective.flat_chart.calls", "count"), ("projective.flat_chart.s", "s"),
    ("projective.geodesic_straightness.calls", "count"),
    ("projective.geodesic_straightness.s", "s"),
    ("projective.integrate_geodesic.calls", "count"), ("projective.integrate_geodesic.s", "s"),
    ("projective.chart_radius.calls", "count"), ("projective.chart_radius.s", "s"),
    ("projective.deform.calls", "count"),
    ("extension.self_s", "s"),
    ("extension.deformed_extension.calls", "count"), ("extension.deformed_extension.s", "s"),
    ("extension.levi_civita.calls", "count"), ("extension.levi_civita.s", "s"),
    ("extension.inverse_metric.calls", "count"), ("extension.inverse_metric.s", "s"),
    ("extension.extension_identities_residuals.calls", "count"),
    ("extension.extension_identities_residuals.s", "s"),
    ("extension.quasi_einstein_residual.calls", "count"),
    ("extension.quasi_einstein_residual.s", "s"),
    ("catalog.self_s", "s"),
    ("catalog.sweep.calls", "count"), ("catalog.sweep.s", "s"),
    ("cli.import_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)


def pin_threads() -> None:
    """One BLAS thread, so numpy calls do not spread onto a second core."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load_package() -> None:
    """Import affineqe (every module, and numpy) from the checkout's src/ only."""
    if not (SRC / "affineqe" / "__init__.py").is_file():
        raise ImportError(f"no affineqe package under {SRC}")
    sys.path.insert(0, str(SRC))
    import affineqe.cli

    if not Path(affineqe.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"affineqe was imported from {affineqe.cli.__file__}, not {SRC}")


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


# ----------------------------------------------------------------------- phases


# built from source text, the way expr.compile_float builds the transport's lambdas
_RATE = eval("lambda c: (c[0] * c[1] + 0.5) / (1.0 + c[0] * c[0])")  # noqa: S307


def kernel() -> None:
    """A fixed slice of the package's kind of work, which no change to the
    package can speed up: Fraction polynomial products over dict monomials
    and a float loop through a compiled lambda."""
    left = {((0, i),): Fraction(i + 1, 3) for i in range(4)}
    right = {((1, j),): Fraction(2, j + 1) for j in range(4)}
    product: dict = {}
    for mono_a, coeff_a in left.items():
        for mono_b, coeff_b in right.items():
            key = mono_a + mono_b
            product[key] = product.get(key, 0) + coeff_a * coeff_b
    x = [0.3, 0.7]
    for _ in range(60):
        x = [x[0] + 1e-3 * _RATE(x), x[1] - 1e-3 * x[0]]


@dataclass
class Calibration:
    """Kernel runs and the seconds they took."""

    runs: int = 0
    seconds: float = 0.0

    def measure(self, budget: float) -> float:
        """Run the kernel at least once and until `budget` seconds are spent;
        return the slowdown this measurement saw."""
        began = perf_counter()
        runs = 0
        while True:
            kernel()
            runs += 1
            spent = perf_counter() - began
            if spent >= budget:
                break
        self.runs += runs
        self.seconds += spent
        return spent / runs / NOMINAL_KERNEL_S

    @property
    def slowdown(self) -> float:
        """The slowdown over every measurement, weighted by its length."""
        return self.seconds / self.runs / NOMINAL_KERNEL_S


def bracketed(times: list, slowdowns: list) -> list:
    """Each time divided by the mean slowdown measured just before and after it."""
    return [t * 2 / (before + after)
            for t, before, after in zip(times, slowdowns, slowdowns[1:])]


@dataclass
class Phase:
    steps: list = field(default_factory=list)  # (Step, record, error, seconds)
    wall: float = 0.0  # from the first step's start to the last one's end, less calibration
    calibration: Calibration = field(default_factory=Calibration)
    slowdowns: list = field(default_factory=list)  # before the first step, then after each

    @property
    def items(self) -> list:
        return [entry for entry in self.steps if entry[0].item]


def prepare(workload, seed: int):
    """The seeded input stream with its first `setup_units` units generated."""
    stream = workload.inputs(seed)
    return chain(list(islice(stream, workload.setup_units)), stream)


def run_phase(workload, units, stop, tracer=None, calibrate=False) -> Phase:
    """Run steps until `stop(items done, seconds elapsed)` holds after an item;
    with `calibrate`, run the kernel after each step for KERNEL_SHARE of its time."""
    phase = Phase()
    if calibrate:
        phase.slowdowns.append(phase.calibration.measure(SETUP_KERNEL_S))
        phase.calibration = Calibration()  # the run's average leaves this one out
    start = None
    items = 0
    for unit in units:
        for step in workload.steps(unit):
            if tracer is not None:
                tracer.active = True
            began = perf_counter()
            try:
                record, error = step.run(), None
            except Exception as err:  # a failed item is counted, and the run goes on
                record, error = None, f"{type(err).__name__}: {err}"
            ended = perf_counter()
            if tracer is not None:
                tracer.active = False
            start = began if start is None else start
            phase.steps.append((step, record, error, ended - began))
            phase.wall = ended - start - phase.calibration.seconds
            if calibrate:
                phase.slowdowns.append(
                    phase.calibration.measure(KERNEL_SHARE * (ended - began)))
            items += step.item
            if step.item and stop(items, phase.wall):
                return phase
    return phase


def failures(workload, phase: Phase) -> list:
    """Items that raised or disagree with their reference."""
    bad = []
    for step, record, error, _ in phase.items:
        if error is not None:
            bad.append(error)
        elif not workload.check(record):
            bad.append(f"reference check failed: {json.dumps(record, sort_keys=True)}")
    return bad


def digest(workload, phase: Phase) -> str:
    """SHA-256 of every step's output up to the workload's digest_items-th item."""
    parts = []
    items = 0
    for step, record, error, _ in phase.steps:
        if items == workload.digest_items:
            break
        parts.append(error if error is not None else record)
        if step.item:
            items += 1
            if error is None:
                parts.append(workload.digest_extra(record))
    if items < workload.digest_items:
        return "incomplete"
    text = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reuse(phase: Phase) -> dict:
    """Share of items whose (manifold, mu), or whole input, an earlier step had."""
    seen_mu, seen_input = set(), set()
    repeat_mu = repeat_input = 0
    for step, *_ in phase.steps:
        if step.item:
            repeat_mu += step.manifold_mu in seen_mu
            repeat_input += step.input_key in seen_input
        seen_mu.add(step.manifold_mu)
        seen_input.add(step.input_key)
    count = len(phase.items) or 1
    return {"manifold_mu": repeat_mu / count, "input": repeat_input / count}


# ---------------------------------------------------------------------- set-up


def _run_child(command) -> str:
    done = subprocess.run(command, capture_output=True, text=True, timeout=60,
                          check=True, cwd=ROOT)
    return done.stdout.strip().splitlines()[-1]


def measure_setup(workload_name: str, seed: int) -> tuple:
    """Seconds from spawning a fresh interpreter until it could start its first
    item, per probe, and the slowdowns measured before and after each probe."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)]
    _run_child(command)  # warm the bytecode and file caches
    calibration = Calibration()
    times, slowdowns = [], [calibration.measure(SETUP_KERNEL_S)]
    for _ in range(SETUP_REPEATS):
        spawned = time.time()
        times.append(float(_run_child(command)) - spawned)
        slowdowns.append(calibration.measure(SETUP_KERNEL_S))
    return times, slowdowns


def measure_import() -> list:
    """Seconds `import affineqe.cli` takes in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import affineqe.cli; print(time.perf_counter() - t)")
    return [float(_run_child([sys.executable, "-c", code, str(SRC)]))
            for _ in range(IMPORT_REPEATS)]


# --------------------------------------------------------------------- metrics


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile: at least n * (1 - pct/100) values lie above it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, phase: Phase, setup: tuple, scaled: bool = True) -> dict:
    """The end-to-end metrics at the reference speed or, without `scaled`, as
    the clock read them."""
    setup_times, setup_slowdowns = setup
    step_times = [entry[3] for entry in phase.steps]
    if scaled:
        setup_times = bracketed(setup_times, setup_slowdowns)
        step_times = bracketed(step_times, phase.slowdowns)
    latencies = [seconds * 1000 for entry, seconds in zip(phase.steps, step_times)
                 if entry[0].item]
    rate = len(latencies) / phase.wall * (phase.calibration.slowdown if scaled else 1.0)
    return {"setup_s": statistics.median(setup_times),
            "items_per_s": rate,
            "item_ms_p50": statistics.median(latencies),
            "item_ms_tail": percentile(latencies, workload.tail_percentile),
            "peak_rss_mb": peak_rss_mb()}


def per_layer(tracer, import_s: float, overhead: float) -> dict:
    calls = tracer.calls()
    inclusive = tracer.inclusive_seconds()
    own = tracer.self_seconds()
    counts = tracer.counts
    zero_tests = calls["expr.zero_test"]
    rows = calls["linalg.add_row"]
    derived = {
        "expr.zero_test.sampled": counts["expr.zero_test.sampled"],
        "expr.zero_test.certified_ratio":
            counts["expr.zero_test.certified"] / zero_tests if zero_tests else 0.0,
        "linalg.add_row.independent_ratio":
            counts["linalg.add_row.independent"] / rows if rows else 0.0,
        "qe_solver.rows_generated": counts["qe_solver.rows_generated"],
        "qe_solver.generations": counts["qe_solver.generations"],
        "qe_solver.unstabilized": counts["qe_solver.unstabilized"],
        "qe_solver.rk4_steps": counts["qe_solver.rk4_steps"],
        "cli.import_s": import_s,
        "trace_overhead_ratio": overhead,
    }
    values = {}
    for name, _ in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".self_s"):
            values[name] = own[name[:-len(".self_s")]]
        elif name.endswith(".calls"):
            values[name] = calls[name[:-len(".calls")]]
        else:
            values[name] = inclusive.get(name[:-len(".s")], 0.0)
    return values


def as_metrics(values: dict, units) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units}
