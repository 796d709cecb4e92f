import os
import sys
from pathlib import Path

# The golden pins are bit patterns of floating-point results.  OpenBLAS
# splits factorizations and some matrix products across its threads, and the
# last bits of, e.g., the interior-point Schur solve then change with the
# thread count; one thread makes the pins the same on every machine.  Set
# before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).parent))
