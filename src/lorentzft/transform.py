"""Fourier transforms of Lorentz-invariant functions on R^{1,n}.

The (n+1)-dimensional transform of a radial profile reduces to two
one-dimensional integrals over the timelike and spacelike branch radii
weighted by the kernels of `lorentzft.kernels`; `transform` evaluates them
with the damped semi-infinite prescription.  A vanishing kernel is not
integrated, and a branch that is zero on every node of its meshes is
integrated without a kernel call (its terms are exact zeros either way).
The radial integrand calls the branch, then the kernel, on consecutive
chunks of `quadrature._CHUNK` points of each call, into one output array,
so an integral's transient memory does not grow with its mesh; whether
the kernel runs at all is decided on the whole call, never per chunk.
`hankel_transform` is the purely Euclidean radial transform against chi_n,
on the same radial driver (`_radial_integral`).  `recursion_step` realizes
the dimension-raising derivative, and `gaussian_reference` is the closed-form
transform of the unit-modulus Gaussian profile in 1+1 dimensions.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .kernels import (
    Branch,
    KernelSpec,
    MomentumMagnitude,
    check_dimension,
    check_weight,
    chi,
    chi_envelope,
    kernel_envelope,
    minkowski_kernel,
)
from .profiles import RadialProfile
from .quadrature import (_CHUNK, QuadConfig, QuadResult, _finish,
                         integrate_semiinfinite_damped)
from .specfun import DomainError

__all__ = [
    "transform",
    "hankel_transform",
    "recursion_step",
    "gaussian_reference",
    "spectrum",
]

def _radial_integral(g: Callable, weight: Callable, cfg: QuadConfig, k: float,
                     bound: Optional[Callable], weight_envelope: Callable,
                     support_radius: Optional[float],
                     phase_scale: float) -> QuadResult:
    """The damped integral of g(s) weight(s) over s > 0: one branch of
    `transform`, or all of `hankel_transform`.

    g follows the branch contract of `RadialProfile`.  k sets the linear
    phase rate 2 pi k; `bound` (an upper bound on |g|, or None) times
    `weight_envelope` places the truncation points.  A support radius
    overrides both.  The integrand calls g, then weight, on consecutive
    chunks of at most _CHUNK points of its call and writes g * weight
    into one complex array.  Where g is zero on every node of the whole
    call, weight is not called and the zeros are returned; a chunk on which
    g vanishes in a call where it does not still reaches weight.
    """
    def integrand(s):
        out = np.empty(np.shape(s), dtype=complex)
        chunks = [slice(i, i + _CHUNK) for i in range(0, out.size, _CHUNK)]
        for c in chunks:
            out[c] = g(s[c])
        # g vanishing on every node of the call gives exact zeros with no
        # weight call; NaN is nonzero, so it still reaches the weight.  The
        # product is always g * weight: a complex product can round
        # differently in the other order (FMA)
        if out.any():
            for c in chunks:
                np.multiply(out[c], weight(s[c]), out=out[c])
        return out

    envelope = None
    if bound is not None:
        def envelope(s):
            return np.asarray(bound(s), dtype=float) * weight_envelope(s)

    return integrate_semiinfinite_damped(
        integrand, cfg, envelope=envelope, support_radius=support_radius,
        osc_scale=2.0 * math.pi * k, quad_phase=phase_scale)


def transform(n: int, profile: RadialProfile, l: MomentumMagnitude,
              cfg: QuadConfig) -> QuadResult:
    """F^(n)(l): the transform of `profile` at invariant momentum l.

    Sums the damped radial integrals of both profile branches against the
    matching Minkowski kernels.  Branches whose quadrature fails to converge
    are named in the result's failed_branches.  A momentum at which a
    kernel's weight is not finite at s = 1 raises DomainError, naming l,
    before any integral (`kernels.check_weight`).  A profile zero on one side
    (as `gauss_decay_timelike` is on the spacelike one) costs that branch's
    integrand calls but no kernel call; a zero branch may return the scalar
    0.0, under the branch contract of `RadialProfile`, to the same result.
    """
    value = 0.0 + 0.0j
    err = 0.0
    evals = 0
    failed = []
    for branch, g in zip(Branch, (profile.f_timelike, profile.f_spacelike)):
        spec = KernelSpec(n, l.char, branch)
        # a vanishing kernel contributes exactly zero; integrating it would
        # only add its truncation allowance to the error estimate
        if spec.vanishes:
            continue
        check_weight(spec, l)
        res = _radial_integral(
            g, lambda s: minkowski_kernel(spec, s, l), cfg, l.value,
            profile.envelope_hint, kernel_envelope(spec, l),
            profile.support_radius, profile.phase_scale)
        value += res.value
        err += res.error_estimate
        evals += res.evaluations
        if not res.converged:
            failed.append(branch.value)
    return _finish(value, err, evals, cfg, failed=failed)


def hankel_transform(n: int, g: Callable, k: float, cfg: QuadConfig,
                     envelope: Optional[Callable] = None,
                     support_radius: Optional[float] = None,
                     phase_scale: float = 1.0) -> QuadResult:
    """Euclidean radial transform int_0^inf chi_n(r, k) g(r) dr (damped).

    g follows the branch contract of `RadialProfile`: its values broadcast
    to the shape of the radii, so a constant g may return a scalar.  By the
    symmetry of chi_n the same operation with the transform as input
    inverts it: hankel_transform(n, F, r, cfg) recovers g(r).  An
    unsupported n and a k that is not > 0 raise DomainError before g is
    called; with an envelope, so does a k at which `chi` refuses r = 1,
    before the envelope is called.
    """
    check_dimension(n)
    if not k > 0:
        raise DomainError("hankel_transform requires k > 0")
    if envelope is not None:
        # chi_envelope's k^(1-n/2) would overflow first, or warn
        chi(n, 1.0, k)
    return _radial_integral(g, lambda r: chi(n, r, k), cfg, k, envelope,
                            chi_envelope(n, k), support_radius, phase_scale)


def recursion_step(F_n: Callable, k: float):
    """-(1/(2 pi k)) dF_n/dk by central differences with one halving pass.

    Raises the spatial dimension by two: applied to F^(n) as a function of
    the spatial momentum magnitude it yields F^(n+2) at the same magnitude.
    For a timelike invariant magnitude l the derivative enters with the
    opposite sign, F^(n+2)(l) = +(1/(2 pi l)) dF^(n)/dl, so the caller
    negates the value there.  Returns (value, error_estimate); the error
    estimate is the step-halving change of the Richardson-combined
    derivative.  The step is h = max(1e-3, 1e-3 k), so k must exceed 2e-3
    for F_n(k - h) to stay at momenta above k/2.
    """
    h = max(1e-3, 1e-3 * k)
    if not h < k / 2:
        raise ValueError(f"recursion_step requires k > 2e-3, got k={k}")
    d_h = (complex(F_n(k + h)) - complex(F_n(k - h))) / (2.0 * h)
    d_h2 = (complex(F_n(k + h / 2)) - complex(F_n(k - h / 2))) / h
    deriv = (4.0 * d_h2 - d_h) / 3.0
    err = abs(d_h2 - d_h) / 3.0
    scale = 1.0 / (2.0 * math.pi * k)
    return -scale * deriv, scale * err


def gaussian_reference(k: float) -> complex:
    """Closed-form 1+1 transform of exp(i s^2) at timelike magnitude k:
    pi exp(-i pi^2 k^2), for finite k > 0."""
    if not 0 < k < math.inf:
        raise DomainError(f"gaussian_reference requires a finite k > 0, got {k}")
    return math.pi * np.exp(-1j * math.pi ** 2 * k ** 2)


# --------------------------------------------------------------------------
# spectra over momentum grids


def spectrum(n: int, profile: RadialProfile, grid: Sequence[MomentumMagnitude],
             cfg: QuadConfig) -> tuple[QuadResult, ...]:
    """The transform at each grid point, in grid order.  The grid is checked
    (nonempty, momenta increasing per character) before any transform runs."""
    if len(grid) == 0:
        raise ValueError("momentum grid must be nonempty")
    last = {}
    for l in grid:
        if l.char in last and l.value <= last[l.char]:
            raise ValueError("momenta must increase within each character block")
        last[l.char] = l.value
    return tuple(transform(n, profile, l, cfg) for l in grid)
