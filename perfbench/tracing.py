"""In-memory span tracer for the benchmark's traced run.

`Tracer.install` replaces each layer's public names where the calling
module binds them (for example `lorentzft.kernels.bessel_n`, which
`minkowski_kernel` calls, or `lorentzft.transform.minkowski_kernel`) with a
wrapper.  The wrapper records a span (name, start, end, parent) and the
layer's counts.  `Tracer.restore` puts every original back and reports any
name it could not restore.  A span's self time is its duration minus that
of its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

import lorentzft.cli as lcli
import lorentzft.kernels as lk
import lorentzft.oracle as lo
import lorentzft.quadrature as lq

# the package re-exports the function transform under the module's name
lt = importlib.import_module("lorentzft.transform")

BENCH_SPAN = "bench.op"


def _order_family(nu):
    return "half" if nu.twice_nu % 2 else "int"


def _result_counts(res):
    return {"evals": res.evaluations, "converged": int(res.converged)}


def _points(*arrays):
    return {"points": int(np.broadcast(*[np.asarray(a) for a in arrays]).size)}


# (module, attribute, span name, counts(args, result) -> dict or None)
_SPECFUN = [(mod, f"bessel_{fam}") for mod in (lk, lo) for fam in "jnk"]
WRAPPED = [
    *[(mod, attr, None, lambda a, r: _points(a[1])) for mod, attr in _SPECFUN],
    (lt, "minkowski_kernel", "kernels.minkowski_kernel", lambda a, r: _points(a[1])),
    (lk, "chi", "kernels.chi", lambda a, r: _points(a[1], a[2])),
    (lt, "integrate_semiinfinite_damped", "quadrature.integrate_semiinfinite_damped",
     lambda a, r: _result_counts(r)),
    (lo, "integrate_semiinfinite_damped", "quadrature.integrate_semiinfinite_damped",
     lambda a, r: _result_counts(r)),
    (lq, "integrate_semiinfinite_damped", "quadrature.integrate_semiinfinite_damped",
     lambda a, r: _result_counts(r)),
    (lq, "extrapolate_to_zero", "quadrature.extrapolate_to_zero", None),
    (lo, "extrapolate_to_zero", "quadrature.extrapolate_to_zero", None),
    (lo, "integrate_finite", "quadrature.integrate_finite",
     lambda a, r: _result_counts(r)),
    (lt, "transform", "transform.transform", None),
    (lt, "recursion_step", "transform.recursion_step", None),
    (lo, "cartesian_ft_1p1", "oracle.cartesian_ft_1p1", lambda a, r: _result_counts(r)),
    (lo, "cartesian_ft_1p2", "oracle.cartesian_ft_1p2", lambda a, r: _result_counts(r)),
    (lo, "window_config_for", "oracle.window_config_for", None),
    (lo, "check_angular_identity", "oracle.check_angular_identity", None),
    (lcli, "main", "cli.main", None),
]


class Tracer:
    """Spans and counts, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._originals = []

    # -- recording ------------------------------------------------------

    def span(self, name, fn, *args, counts=None, **kwargs):
        """Call fn inside a span named `name`."""
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        c = self.counts[name]
        c["calls"] += 1
        if counts is not None:
            for key, val in (counts(args, result) or {}).items():
                c[key] += val
        return result

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if span_name is None:          # specfun: split by order family
                span_name = f"specfun.{fn.__name__}.{_order_family(args[0])}"
            return self.span(span_name, fn, *args, counts=counts, **kwargs)
        return wrapper

    def wrap_branches(self, profile):
        """A copy of `profile` whose two branch callables record spans."""
        def wrap(f):
            return self._wrap(f, "profiles.branch", lambda a, r: _points(a[0]))
        return dataclasses.replace(profile, f_timelike=wrap(profile.f_timelike),
                                   f_spacelike=wrap(profile.f_spacelike))

    def reset(self):
        """Drop the spans and counts recorded so far, such as those of the
        branch evaluations a profile's constructor makes."""
        self.spans.clear()
        self.counts.clear()

    # -- installing -----------------------------------------------------

    def install(self):
        for mod, attr, name, counts in WRAPPED:
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, counts))
        # profiles the CLI builds from builtin:<name> get traced branches
        builtin = lcli.builtin_profile
        self._originals.append((lcli, "builtin_profile", builtin))
        lcli.builtin_profile = lambda name: self.wrap_branches(builtin(name))

    def restore(self) -> list:
        """Put every original back; return the names left wrapped."""
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        left = [f"{mod.__name__}.{attr}" for mod, attr, fn in self._originals
                if getattr(mod, attr) is not fn]
        self._originals.clear()
        return left

    # -- summarising ----------------------------------------------------

    def self_times(self) -> dict:
        """Self time summed by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, parent), c in zip(self.spans, child):
            out[name] += (end - start) - c
        return dict(out)

    def root_time(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans
                   if parent < 0)
