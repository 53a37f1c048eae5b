"""Set-up of one benchmark run in a fresh interpreter, for measuring setup_s.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports affineqe.cli (every module and numpy), generates the workload's seeded
inputs as a run does before its first item, and prints time.time() at that
moment, so that the parent can subtract the moment it spawned this process.
"""

import sys
import time

import harness


def main(argv) -> int:
    name, seed = argv[1], int(argv[2])
    harness.pin_threads()
    harness.load_package()
    import workloads

    harness.prepare(workloads.WORKLOADS[name], seed)
    print(repr(time.time()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
