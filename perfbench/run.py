"""perfbench: time the offline TLP pipeline -- dataset build, training
and candidate search -- end to end, or layer by layer with ``--trace 1``.

    python3 perfbench/run.py --workload build --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the last line of standard output is the
result as one JSON object.  See perfbench/README.md.
"""

import os
import sys
import time
from pathlib import Path

START = time.perf_counter()


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: all load comes from this
    # one process, and OpenBLAS would otherwise start one per vCPU.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import runner  # imports numpy and repro

    return runner.main(sys.argv[1:], root, time.perf_counter() - START)


if __name__ == "__main__":
    sys.exit(main())
