"""One cold start: import the package, then run a workload's warm-up op.

    python3 perfbench/coldstart.py WORKLOAD SCRATCH_DIR

The driver times this whole process as the workload's set-up (``setup_s``),
the start-up a command-line user pays before the first answer.
"""

import sys
from pathlib import Path

import cmc_elliptic  # noqa: F401  (the import is part of what is timed)
from workloads import WARM_UP

if __name__ == "__main__":
    WARM_UP[sys.argv[1]](Path(sys.argv[2]))
