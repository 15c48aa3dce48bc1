"""Run one benchmark workload against the package in ``src/``.

Usage, from the repository root:

    python3 perfbench/run.py --workload forrester-mf --seed 1 --seconds 15 --trace 0

Workloads: forrester-mf, reactor-mf, fidelity-study (see workloads.py and
README.md). With ``--trace 0`` the result line carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Check failures are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS / OpenMP thread: the matrices are small, and a single thread
# keeps run-to-run timings steady on a 2-core machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "mfdgp" / "__init__.py").is_file():
        print(f"error: no mfdgp package under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))

    import workloads

    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
