"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload mg1-small --seed 1 --seconds 30 --trace 0

Runs the library from ``src/`` of the checkout, so nothing needs installing.
BLAS and OpenMP pools are pinned to one thread before numpy loads, in this
process only. See perfbench/DESIGN.md for the workloads and metrics.
"""
import os
import sys
import time

START = time.perf_counter()

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from perfbench.harness import main  # noqa: E402  (after the thread pinning)

if __name__ == "__main__":
    sys.exit(main(import_s=time.perf_counter() - START))
