"""Machine-speed calibration for the benchmark's op times.

The reference machine, a 2-core x86 virtual machine, shares its cores
with other tenants.  The speed of the same code on the same inputs swings by up to
1.5x within seconds and by more over minutes.  So the benchmark times a
fixed kernel between ops, every `cadence_s` seconds.  The kernel uses no
lorentzft code.  Each op's wall time is scaled by
reference_s / (median of the NEAREST kernel times around it).  The result is
in reference-machine seconds: the time the op takes when the kernel takes
reference_s, as it did on the reference machine when quiet.

Two kernels resemble the package's two kinds of work:
* "cpu": scipy.special Bessel functions, short complex vector arithmetic
  and interpreted Python.  The spectra and identities are calibrated by it.
* "memory": complex arithmetic over a 4 MB array, like the oracle's window
  grids.  The compute kernel tracked those large-array ops poorly.

The numbers are in perfbench/README.md.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy import special

NEAREST = 3

_X = np.linspace(0.05, 40.0, 2500)
_XB = np.linspace(0.0, 30.0, 1 << 18)


def cpu_kernel() -> float:
    """~2 ms of special functions, complex vector arithmetic and interpreted
    Python; returns a checksum so no step can be skipped."""
    acc = float(special.yv(0.5, _X).sum()) + float(special.kv(1.0, _X).sum())
    acc += float(np.abs(np.exp(1j * _X * _X - 0.01 * _X * _X)).sum())
    acc += sum(v * 0.5 for v in range(2500))
    return acc


def memory_kernel() -> float:
    """~12 ms of complex exponentials and products over a 4 MB array."""
    a = np.exp(1j * _XB * _XB - 0.01 * _XB)
    return float((a * _XB).real.sum())


# name: (kernel, its median seconds on the quiet reference machine, cadence)
KERNELS = {
    "cpu": (cpu_kernel, 0.0022, 0.25),
    "memory": (memory_kernel, 0.012, 0.5),
}


class Clock:
    """Kernel timings taken between ops, and the scale they imply."""

    def __init__(self, kind: str):
        self.kernel, self.reference_s, self.cadence_s = KERNELS[kind]
        self.samples = []          # (midpoint, seconds), in time order
        self._last = float("-inf")

    def maybe_sample(self, force=False):
        """Time the kernel if cadence_s has passed since the last sample."""
        now = time.perf_counter()
        if not force and now - self._last < self.cadence_s:
            return
        self.kernel()
        end = time.perf_counter()
        self.samples.append((0.5 * (now + end), end - now))
        self._last = end

    def scale(self, at: float) -> float:
        """reference_s over the median of the NEAREST samples to time `at`."""
        mids = [m for m, _ in self.samples]
        i = bisect.bisect_left(mids, at)
        window = self.samples[max(0, i - NEAREST):i + NEAREST]
        window.sort(key=lambda s: abs(s[0] - at))
        return self.reference_s / statistics.median(d for _, d in window[:NEAREST])
