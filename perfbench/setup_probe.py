"""Print the seconds a fresh interpreter takes to import lorentzft and build
a workload's profiles and configs.

    python3 perfbench/setup_probe.py <workload>

`run.py` starts this several times per run, from the checkout root, and
reports the median as setup_s.  It is a wall time: the calibration kernel
of calibration.py, run in a fresh process, tracked import time poorly.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, "src")
import lorentzft  # noqa: E402,F401
import workloads  # noqa: E402

workloads.setup(sys.argv[1])
print(f"{time.perf_counter() - t0:.9f}")
