"""Fourier transforms of Lorentz-invariant functions on R^{1,n}.

The (n+1)-dimensional transform of a radial profile reduces to two
one-dimensional integrals over the timelike and spacelike branch radii
weighted by the kernels of `lorentzft.kernels`; `transform` evaluates them
with the damped semi-infinite prescription.  `hankel_transform` is the purely
Euclidean radial transform against chi_n, `recursion_step` realizes the
dimension-raising derivative, and `gaussian_reference` is the closed-form
transform of the unit-modulus Gaussian profile in 1+1 dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import (
    Branch,
    KernelSpec,
    MomentumChar,
    MomentumMagnitude,
    chi,
    chi_envelope,
    kernel_envelope,
    minkowski_kernel,
)
from .profiles import RadialProfile
from .quadrature import QuadConfig, QuadResult, _finish, integrate_semiinfinite_damped
from .specfun import DomainError

__all__ = [
    "SpectrumPoint",
    "SpectrumTable",
    "transform",
    "hankel_transform",
    "recursion_step",
    "gaussian_reference",
    "spectrum",
]

_BRANCHES = (
    ("timelike", Branch.TIMELIKE_PROFILE),
    ("spacelike", Branch.SPACELIKE_PROFILE),
)


def _branch_integral(n: int, profile: RadialProfile, l: MomentumMagnitude,
                     cfg: QuadConfig, branch_name: str,
                     branch: Branch) -> Optional[QuadResult]:
    spec = KernelSpec(n, l.char, branch)
    # a vanishing kernel contributes exactly zero; integrating it would only
    # add its truncation allowance to the error estimate
    if spec.vanishes:
        return None
    f = profile.branch(branch_name)

    def integrand(s):
        return np.asarray(f(s), dtype=complex) * minkowski_kernel(spec, s, l)

    envelope = None
    if profile.support_radius is None and profile.envelope_hint is not None:
        kenv = kernel_envelope(spec, l)
        hint = profile.envelope_hint
        envelope = lambda s: np.asarray(hint(s), dtype=float) * kenv(s)
    return integrate_semiinfinite_damped(
        integrand, cfg,
        envelope=envelope,
        support_radius=profile.support_radius,
        osc_scale=2.0 * math.pi * l.value,
        quad_phase=max(profile.phase_scale, 0.0),
    )


def transform(n: int, profile: RadialProfile, l: MomentumMagnitude,
              cfg: QuadConfig) -> QuadResult:
    """F^(n)(l): the transform of `profile` at invariant momentum l.

    Sums the damped radial integrals of both profile branches against the
    matching Minkowski kernels.  Branches whose quadrature fails to converge
    are named in the result's failed_branches.
    """
    value = 0.0 + 0.0j
    err = 0.0
    evals = 0
    failed = []
    for branch_name, branch in _BRANCHES:
        res = _branch_integral(n, profile, l, cfg, branch_name, branch)
        if res is None:
            continue
        value += res.value
        err += res.error_estimate
        evals += res.evaluations
        if not res.converged:
            failed.append(branch_name)
    return _finish(value, err, evals, cfg, ok=not failed, failed=failed)


def hankel_transform(n: int, g: Callable, k: float, cfg: QuadConfig,
                     envelope: Optional[Callable] = None,
                     support_radius: Optional[float] = None,
                     phase_scale: float = 1.0) -> QuadResult:
    """Euclidean radial transform int_0^inf chi_n(r, k) g(r) dr (damped).

    By the symmetry of chi_n the same operation with the transform as input
    inverts it: hankel_transform(n, F, r, cfg) recovers g(r).
    """
    if not k > 0:
        raise DomainError("hankel_transform requires k > 0")

    def integrand(r):
        return np.asarray(g(r), dtype=complex) * chi(n, r, k)

    env = None
    if envelope is not None:
        amp = chi_envelope(n, k)

        def env(r):
            ra = np.maximum(np.asarray(r, dtype=float), 1e-9)
            return np.asarray(envelope(ra), dtype=float) * amp(ra)

    return integrate_semiinfinite_damped(
        integrand, cfg, envelope=env, support_radius=support_radius,
        osc_scale=2.0 * math.pi * k, quad_phase=max(phase_scale, 0.0))


def recursion_step(F_n: Callable, k: float, h: Optional[float] = None):
    """-(1/(2 pi k)) dF_n/dk by central differences with one halving pass.

    Raises the spatial dimension by two: applied to F^(n) as a function of
    the spatial momentum magnitude it yields F^(n+2) at the same magnitude.
    Returns (value, error_estimate); the error estimate is the step-halving
    change of the Richardson-combined derivative.
    """
    if h is None:
        h = max(1e-3, 1e-3 * k)
    if not 0 < h < k / 2:
        raise ValueError("step h must satisfy 0 < h < k/2")
    d_h = (complex(F_n(k + h)) - complex(F_n(k - h))) / (2.0 * h)
    d_h2 = (complex(F_n(k + h / 2)) - complex(F_n(k - h / 2))) / h
    deriv = (4.0 * d_h2 - d_h) / 3.0
    err = abs(d_h2 - d_h) / 3.0
    scale = 1.0 / (2.0 * math.pi * k)
    return -scale * deriv, scale * err


def gaussian_reference(k: float) -> complex:
    """Closed-form 1+1 transform of exp(i s^2) at timelike magnitude k:
    pi exp(-i pi^2 k^2)."""
    if not k > 0:
        raise DomainError("gaussian_reference requires k > 0")
    return math.pi * np.exp(-1j * math.pi ** 2 * k ** 2)


# --------------------------------------------------------------------------
# spectra over momentum grids


@dataclass(frozen=True)
class SpectrumPoint:
    char: MomentumChar
    l: float
    value: complex
    error: float
    converged: bool


@dataclass(frozen=True)
class SpectrumTable:
    """Transform values over a momentum grid, in grid order."""

    rows: tuple

    def __post_init__(self):
        last = {}
        for row in self.rows:
            if row.error < 0:
                raise ValueError("row error must be nonnegative")
            prev = last.get(row.char)
            if prev is not None and row.l <= prev:
                raise ValueError("momenta must increase within each character block")
            last[row.char] = row.l

    CSV_HEADER = "char,l,re,im,err,converged"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.char.value},{r.l:.17g},{r.value.real:.17g},"
                f"{r.value.imag:.17g},{r.error:.17g},{str(r.converged).lower()}")
        return "\n".join(lines) + "\n"

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.rows)


def spectrum(n: int, profile: RadialProfile, grid: Sequence[MomentumMagnitude],
             cfg: QuadConfig) -> SpectrumTable:
    """Evaluate the transform on each grid point; failures are flagged
    per row, never dropped."""
    if len(grid) == 0:
        raise ValueError("momentum grid must be nonempty")
    rows = []
    for l in grid:
        res = transform(n, profile, l, cfg)
        rows.append(SpectrumPoint(l.char, l.value, res.value,
                                  res.error_estimate, res.converged))
    return SpectrumTable(tuple(rows))
