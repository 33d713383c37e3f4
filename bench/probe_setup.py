"""Time one benchmark set-up in a fresh interpreter and print the seconds at
reference host speed: importing homnorm plus generating the first pass's
documents.

Usage (from the repository root)::

    python3 bench/probe_setup.py lattice 1
"""

import os
import sys
from time import perf_counter

from hostspeed import calibrate, slowdown

before = calibrate()
t0 = perf_counter()
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from workloads import build  # noqa: E402  (imports homnorm)

build(sys.argv[1], int(sys.argv[2]), 0)
elapsed = perf_counter() - t0
print(elapsed / slowdown(before, calibrate()))
