"""The test process runs one BLAS thread, as the CLI and the benchmark do.

A second OpenBLAS thread spins on this project's small products and takes
a core from timed decodes (c07).  The counts are read when numpy first
loads, so they are set here, before any test module imports it; no pytest
plugin this project uses imports numpy earlier.  A count the environment
already sets is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
