"""Time one set-up in a fresh interpreter; print it in seconds, followed by
the reference kernel's ms measured right after it.

Set-up is what a user pays before the first op: importing ttm_lab (and with
it numpy) and building the workload's params, dataset and universe.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import statistics
import sys
from time import perf_counter


def main(argv):
    workload, seed = argv[0], int(argv[1])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = perf_counter()
    import ttm_lab  # noqa: F401  (timed: the import is part of set-up)
    from workloads import WORKLOADS, reference_kernel
    WORKLOADS[workload](seed)
    seconds = perf_counter() - t0
    # the machine's speed right after set-up, to scale it by
    ref_ms = statistics.median(reference_kernel() for _ in range(5))
    print(repr(seconds), repr(ref_ms))


if __name__ == "__main__":
    main(sys.argv[1:])
