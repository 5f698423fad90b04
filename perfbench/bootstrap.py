"""Process set-up shared by the benchmark's entry points.

Import this before numpy. It pins every BLAS thread pool to one thread (one
GEMM was seen to vary about 10x under multithreaded OpenBLAS) and puts the
checkout's ``src/`` first on ``sys.path``, so the benchmark measures the
program built from this checkout and nothing installed elsewhere.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

for _name in BLAS_THREAD_VARS:
    os.environ[_name] = "1"

if not (SRC / "nlsql" / "__init__.py").is_file():
    print(f"perfbench: no nlsql sources under {SRC}", file=sys.stderr)
    raise SystemExit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
