"""Measure the figures the ROADMAP re-anchor quotes, to cross-check the
baseline in perfbench/baseline.json.

    python3 perfbench/crosscheck.py

Prints one JSON object:
* the flagship transform exp(i s^2), n = 1, timelike l = 1, at the
  default QuadConfig;
* the compact bump at n = 1, timelike l = 1;
* the wall time of the `oracle` validation suite.

Each carries its median time and evaluation count.  The benchmark's spectra
run the CLI at its default --tol 1e-4 instead, which truncates earlier and
evaluates fewer points.
"""

import json
import os
import statistics
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, "src")

from lorentzft import (MomentumChar, MomentumMagnitude, QuadConfig,  # noqa: E402
                       builtin_profile, transform)
from lorentzft.validation import suite_oracle  # noqa: E402


def timed(fn, repeats):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main():
    cfg = QuadConfig()
    mom = MomentumMagnitude(1.0, MomentumChar.TIMELIKE)
    result = {}
    for key, name, repeats in (("flagship_n1", "gauss_oscillatory", 5),
                               ("bump_n1", "compact_bump", 21)):
        profile = builtin_profile(name)
        t, res = timed(lambda: transform(1, profile, mom, cfg), repeats)
        result[key] = {"ms": round(t * 1e3, 2), "evaluations": res.evaluations}
    t, checks = timed(suite_oracle, 1)
    result["oracle_suite"] = {"s": round(t, 3), "checks": len(checks),
                              "passed": sum(c.passed for c in checks)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
