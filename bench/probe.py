"""Set-up probe: a fresh process imports kernelspectra and prepares inputs.

run.py times this script from spawn to exit for setup_s, which is what a
CLI user pays on every call before any work starts. Arguments: workload
name, seed, output directory.
"""

import sys
from pathlib import Path

import kernelspectra  # noqa: F401  (the import is part of what is timed)
import workloads

workloads.operations(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
