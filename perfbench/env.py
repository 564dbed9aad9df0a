"""Process set-up shared by the benchmark entry points.

Importing this module pins every BLAS library to one thread (the load comes
from a single process, and one thread keeps the figures steady on a shared
machine) and puts the checkout's `src/` on the import path. It must be
imported before numpy.
"""

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

if not os.path.isfile(os.path.join(SRC, "convmatch", "__init__.py")):
    sys.stderr.write(f"perfbench: no convmatch package under {SRC}\n")
    raise SystemExit(2)
sys.path.insert(0, SRC)
