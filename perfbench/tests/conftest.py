"""Put the program and the benchmark's modules on the import path.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
BLAS is pinned to one thread before numpy loads, as in the benchmark.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]
