"""Time one cold set-up: the import of cubewords plus the workload's inputs.

    python3 perfbench/setup_once.py WORKLOAD SEED MODULE...

run.py starts this as a fresh process several times per run and takes
the median of what it prints: the CPU seconds this process spent
importing the cubewords MODULEs the workload drives (with every
standard-library module they pull in, as a user's first call pays for
them) and making the workload's inputs from SEED.  The benchmark's own
modules are imported outside the two timed parts.
"""

import time

clock = time.process_time()
import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
name, seed, modules = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
for module in modules:
    importlib.import_module(module)
imported = time.process_time() - clock

sys.path.insert(0, str(HERE))
import random

from workloads import WORKLOADS

workload = WORKLOADS[name]()
clock = time.process_time()
workload.make_inputs(sys.modules["cubewords"], random.Random(f"{name}:{seed}"))
print(imported + time.process_time() - clock)
