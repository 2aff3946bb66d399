"""The library starts up and runs without scipy.optimize or scipy.sparse.

Importing scipy.optimize costs about 0.12 s of a start-up of about 0.5 s,
and `phase_integral` carries its own Brent, so nothing in the library
needs it.  scipy.sparse.linalg (ARPACK) costs about 20 ms more, and the
Numerov engine needs no sparse eigensolver: neither the warm-up nor a
default-grid solve nor a deep-Coulomb tracked level loads it.  This guard
keeps a new import, direct or through another scipy subpackage, from
quietly putting that time back.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
import cornellbound.cli
from cornellbound import numerov
from cornellbound.model import DimensionlessCase
from setup_probe import warm_up
warm_up()
grid = numerov.Grid(numerov.DEFAULT_Z_MIN, numerov.DEFAULT_Z_MAX, numerov.DEFAULT_N)
numerov.solve(DimensionlessCase(B=2.0, l=0), grid, 3)
numerov.tracked_level(DimensionlessCase(B=100.0, l=0), numerov.Grid(numerov.SWEEP_Z_MIN, numerov.SWEEP_Z_MAX, 512))
prefixes = ("scipy.optimize", "scipy.sparse")
print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in prefixes)))
"""


def test_start_up_and_solves_do_not_import_scipy_optimize_or_sparse():
    # a fresh interpreter: this test process may have imported both already
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
