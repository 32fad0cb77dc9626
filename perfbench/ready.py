"""Time from process start until a workload is set up, in seconds.

    python3 perfbench/ready.py <workload> <seed> <FULL|TINY> <scratch dir>

The allocator is set as in ``run.py``.  Set-up is the imports, ``synthcohort.generate``, the save and reload of the
cohort directory, and parameter init.  ``run.py`` starts this several times
and reports the median as ``setup_s``.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402

run.keep_freed_memory()
run.import_package()
import workloads  # noqa: E402

name, seed, size, scratch = sys.argv[1:]
workloads.WORKLOADS[name](int(seed), getattr(workloads, size), Path(scratch))
print(time.perf_counter() - T0)
