"""Benchmark of affineqe on seeded workloads.

Usage:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: exact_sweep, flat_chart, extension_qe (see perfbench/README.md).
With --trace 0 the run measures the end-to-end metrics for --seconds seconds
(longer if the workload's minimum item count is not reached yet).  With
--trace 1 it runs a fixed number of items untraced, traced and untraced
again, and reports the per-layer metrics.  Every item is checked against a reference;
the last line of standard output is one JSON object with the result.
Exit code 2 means the package could not be imported from src/.
"""

import argparse
import json
import statistics
import sys

import harness
from tracer import Tracer


def _timed_run(workload, seed: int, seconds: float) -> tuple:
    setup = harness.measure_setup(workload.name, seed)
    units = harness.prepare(workload, seed)
    phase = harness.run_phase(
        workload, units,
        lambda items, elapsed: elapsed >= harness.HARD_LIMIT_S
        or (elapsed >= seconds and items >= workload.min_items),
        calibrate=True)
    values = harness.end_to_end(workload, phase, setup)  # peak RSS before the checks
    raw = harness.end_to_end(workload, phase, setup, scaled=False)
    bad = harness.failures(workload, phase)
    items = len(phase.items)
    lines = [f"{'':14s} {'reference':>12s} {'as measured':>12s}"]
    lines += [f"{name:14s} {values[name]:12.4f} {raw[name]:12.4f} {unit}"
              for name, unit in harness.END_TO_END]
    lines += [
        f"fail_ratio     {len(bad) / items:12.4f} ({len(bad)} of {items} items failed)",
        f"item_ms_tail is p{workload.tail_percentile} of {items} items, "
        f"done in {phase.wall:.2f} s",
        f"setup_s is the median of {len(setup[0])} fresh interpreters: "
        + ", ".join(f"{t:.3f}" for t in setup[0]),
        f"slowdown against the reference machine: {phase.calibration.slowdown:.4f} over "
        f"the run ({phase.calibration.runs} kernel runs), "
        f"{statistics.median(setup[1]):.4f} in set-up",
    ]
    metrics = harness.as_metrics(values, harness.END_TO_END)
    return phase, bad, items, metrics, lines, harness.digest(workload, phase)


def _traced_run(workload, seed: int) -> tuple:
    def stop(items, elapsed):
        return items >= workload.trace_items

    # untraced, traced, untraced again: the first pass also warms the allocator,
    # so the overhead ratio compares the last two
    first = harness.run_phase(workload, harness.prepare(workload, seed), stop)
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_phase(workload, harness.prepare(workload, seed), stop, tracer)
    finally:
        tracer.uninstall()
    untraced = harness.run_phase(workload, harness.prepare(workload, seed), stop)
    phases = (first, traced, untraced)
    bad = [problem for phase in phases for problem in harness.failures(workload, phase)]
    digest = harness.digest(workload, traced)
    if digest != harness.digest(workload, first):
        bad.append("traced and untraced phases gave different result digests")
    import_times = harness.measure_import()
    overhead = traced.wall / untraced.wall  # same items, so the ratio of items_per_s
    values = harness.per_layer(tracer, statistics.median(import_times), overhead)
    items = sum(len(phase.items) for phase in phases)
    lines = [f"{name:48s} {values[name]!r:>24} {unit}" for name, unit in harness.PER_LAYER]
    lines.append(f"{len(traced.items)} items: {first.wall:.2f} s untraced, "
                 f"{traced.wall:.2f} s traced, {untraced.wall:.2f} s untraced; "
                 f"{len(tracer.names)} spans")
    metrics = harness.as_metrics(values, harness.PER_LAYER)
    return traced, bad, items, metrics, lines, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="affineqe benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    harness.pin_threads()
    load_start = harness.loadavg()
    try:
        harness.load_package()
    except ImportError as err:
        print(f"perfbench: cannot import affineqe: {err}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        phase, bad, items, metrics, lines, digest = _traced_run(workload, args.seed)
    else:
        phase, bad, items, metrics, lines, digest = _timed_run(workload, args.seed,
                                                               args.seconds)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(f"why: {workload.why}")
    for line in lines:
        print("  " + line)
    shares = harness.reuse(phase)
    print(f"reuse: share of items whose (manifold, mu) an earlier step had "
          f"{shares['manifold_mu']:.3f}; whose whole input {shares['input']:.3f}")
    print(f"digest {digest} (first {workload.digest_items} items)")
    for problem in bad[:5]:
        print(f"FAILED: {problem}")
    env = harness.environment()
    env.update(loadavg_start=load_start, loadavg_end=harness.loadavg())
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not bad, "attempted": items, "failed": len(bad),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
