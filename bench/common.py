"""Process set-up shared by the benchmark scripts.

Importing this module pins every BLAS and OpenMP pool to one thread and
puts the checkout's ``src`` first on ``sys.path``, so it must be imported
before numpy.  The package is imported from the tree under test, never
from an installed copy, which could belong to another commit.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS_PATH = BENCH_DIR / "refs.json"
# scratch files of a run (scan CSVs) and trace dumps; both are git-ignored
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_trace"

THREAD_VARS = ("CFS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

if "numpy" in sys.modules:
    raise RuntimeError("bench.common must be imported before numpy")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

if not (SRC / "seacausal" / "__init__.py").is_file():
    raise SystemExit("bench: no seacausal package under %s" % SRC)
sys.path.insert(0, str(SRC))


def import_seacausal():
    """Import the package under test and check that it came from SRC."""
    import seacausal
    import seacausal.cli  # noqa: F401  (imports every library module)

    origin = Path(seacausal.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit("bench: seacausal imported from %s, not %s"
                         % (origin, SRC))
    return seacausal
