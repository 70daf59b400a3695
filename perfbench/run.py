#!/usr/bin/env python3
"""Monte Carlo detection benchmark for nfdetect.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trend_small --seed 1 --seconds 30 --trace 0

It imports the package from the checkout's own ``src/`` directory and
exits with code 2, printing no result, when that source tree is missing.
See ``perfbench/NOTES.md`` for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

# BLAS must be pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "nfdetect" / "__init__.py").is_file():
        print(f"perfbench: no nfdetect sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bench
    sys.exit(bench.main(sys.argv[1:]))
