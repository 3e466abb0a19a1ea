"""Independent ground truth: direct windowed evaluation of the defining
spacetime integral in 1+1 and 1+2 dimensions, and numerical verification of
the angular integrals that reduce it to radial form.

The Cartesian oracle never touches the radial kernels.  It evaluates

    I(eta) = int dt d^n x  f(t^2 - |x|^2)  exp(-eta (t^2 + |x|^2))
             exp(-2 pi i k.(t or x))

on a truncated region, then extrapolates eta -> 0.  The (t, x)-plane is
integrated in light-cone variables u = t - x, v = t + x so the profile's
light-cone kink lies on panel boundaries; in 1+2 the transverse coordinate is
integrated first and tabulated over the invariant w = u v.  Momenta are given
by invariant magnitude: timelike k oscillates along t, spacelike along x.

Every path (1+1 compact, 1+1 unbounded, 1+2) runs the same Gauss-Legendre
product rule on panels over [-L, L] in u and in v.  The window and the phase
factor over the axes into two weight vectors, so only f(u v) is evaluated on
the 2-d node grid, and only on the cell pairs that can meet the profile's
support.  A `WindowConfig` holds the eta schedule and one box halfwidth L per
eta; the panels follow from the profile and the momentum.  The extrapolation
order is min(3, number of etas - 1), and the tolerances are fixed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .kernels import MomentumChar, MomentumMagnitude
from .profiles import RadialProfile, complex_pchip
from .quadrature import (
    QuadConfig,
    QuadResult,
    _finish,
    _gauss_legendre,
    extrapolate_to_zero,
    integrate_finite,
    integrate_semiinfinite_damped,
)
from .specfun import DomainError, Order, bessel_j, bessel_k, bessel_n

__all__ = [
    "AngularIdentityKind",
    "AngularIdentity",
    "angular_quad_config",
    "check_angular_identity",
    "WindowConfig",
    "window_config_for",
    "cartesian_ft_1p1",
    "cartesian_ft_1p2",
    "profile_on_invariant",
]


# --------------------------------------------------------------------------
# angular-integral identities


class AngularIdentityKind(enum.Enum):
    COSH_TO_N0 = "cosh_to_N0"
    SINH_TO_K0 = "sinh_to_K0"
    THETA_TO_J0_HALF = "theta_to_J0_half"
    THETA_TO_J0_FULL = "theta_to_J0_full"
    SINH_J0_EXP = "sinh_J0_exp"
    COSH_J0_COS = "cosh_J0_cos"


@dataclass(frozen=True)
class AngularIdentity:
    kind: AngularIdentityKind
    a: float

    def __post_init__(self):
        if not self.a > 0:
            raise DomainError("identity parameter a must be positive")


def angular_quad_config() -> QuadConfig:
    """Damping schedule deep enough for the slowest identity (small a)."""
    return QuadConfig(abs_tol=1e-10, rel_tol=1e-10,
                      epsilon_schedule=tuple(0.0125 * 2.0 ** (-j) for j in range(8)),
                      extrapolation_order=4)


def check_angular_identity(ident: AngularIdentity, cfg: QuadConfig):
    """Evaluate one identity numerically; returns (lhs, rhs, gap).

    The noncompact hyperbolic-angle integrals are computed after the
    monotone substitutions x = cosh(psi) or x = sinh(psi) (shifted to start
    at 0 where needed) under the damped prescription; the compact ones by
    `integrate_finite` on the same panel rules.
    """
    a = ident.a
    kind = ident.kind
    zero = Order(0)
    if kind is AngularIdentityKind.COSH_TO_N0:
        # int_-inf^inf cos(a cosh psi) dpsi = 2 int_1^inf cos(a x)/sqrt(x^2-1) dx
        def g(t):
            x = 1.0 + np.asarray(t, dtype=float)
            return 2.0 * np.cos(a * x) / np.sqrt(t * (t + 2.0))
        res = integrate_semiinfinite_damped(g, cfg, osc_scale=a, quad_phase=0.0)
        lhs = res.value.real
        rhs = -math.pi * bessel_n(zero, a)
    elif kind is AngularIdentityKind.SINH_TO_K0:
        def g(x):
            xa = np.asarray(x, dtype=float)
            return 2.0 * np.cos(a * xa) / np.sqrt(1.0 + xa * xa)
        res = integrate_semiinfinite_damped(g, cfg, osc_scale=a, quad_phase=0.0)
        lhs = res.value.real
        rhs = 2.0 * bessel_k(zero, a)
    elif kind is AngularIdentityKind.THETA_TO_J0_HALF:
        res = integrate_finite(lambda th: np.cos(a * np.cos(th)),
                               0.0, math.pi / 2.0, cfg)
        lhs = res.value.real
        rhs = math.pi / 2.0 * bessel_j(zero, a)
    elif kind is AngularIdentityKind.THETA_TO_J0_FULL:
        res = integrate_finite(lambda th: np.cos(a * np.cos(th)),
                               -math.pi / 2.0, math.pi / 2.0, cfg)
        lhs = res.value.real
        rhs = math.pi * bessel_j(zero, a)
    elif kind is AngularIdentityKind.SINH_J0_EXP:
        # 2 pi int_0^inf sinh(psi) J0(a sinh psi) dpsi, x = sinh(psi)
        def g(x):
            xa = np.asarray(x, dtype=float)
            return 2.0 * math.pi * xa / np.sqrt(1.0 + xa * xa) \
                * bessel_j(zero, a * xa)
        res = integrate_semiinfinite_damped(g, cfg, osc_scale=a, quad_phase=0.0)
        lhs = res.value.real
        rhs = 2.0 * math.pi / a * math.exp(-a)
    elif kind is AngularIdentityKind.COSH_J0_COS:
        # (pi/2) int_0^inf cosh(psi) J0(a cosh psi) dpsi, x = cosh(psi)
        def g(t):
            x = 1.0 + np.asarray(t, dtype=float)
            return math.pi / 2.0 * x * bessel_j(zero, a * x) / np.sqrt(t * (t + 2.0))
        res = integrate_semiinfinite_damped(g, cfg, osc_scale=a, quad_phase=0.0)
        lhs = res.value.real
        rhs = math.pi / (2.0 * a) * math.cos(a)
    else:  # pragma: no cover
        raise DomainError(f"unknown identity {kind}")
    return lhs, rhs, abs(lhs - rhs)


# --------------------------------------------------------------------------
# windowed Cartesian evaluation


@dataclass(frozen=True)
class WindowConfig:
    """Window schedule for the Cartesian oracle.

    One box halfwidth per eta; halfwidths grow as eta shrinks so the window
    always dominates the truncation.  The panels inside each box follow from
    the profile and the momentum.  The tolerances `abs_tol` and `rel_tol`
    are constants of the class.
    """

    eta_schedule: tuple
    box_halfwidth: tuple
    abs_tol: ClassVar[float] = 1e-5
    rel_tol: ClassVar[float] = 1e-3

    def __post_init__(self):
        etas = tuple(float(e) for e in self.eta_schedule)
        if len(etas) == 0 or any(e <= 0 for e in etas):
            raise ValueError("eta_schedule must contain positive values")
        if any(b >= a for a, b in zip(etas, etas[1:])):
            raise ValueError("eta_schedule must be strictly decreasing")
        if len(self.box_halfwidth) != len(etas):
            raise ValueError("box_halfwidth must match the schedule length")
        if any(b <= 0 for b in self.box_halfwidth):
            raise ValueError("box halfwidths must be positive")
        if any(b2 < b1 for b1, b2 in zip(self.box_halfwidth, self.box_halfwidth[1:])):
            raise ValueError("box halfwidths must grow as eta shrinks")
        object.__setattr__(self, "eta_schedule", etas)
        object.__setattr__(self, "box_halfwidth", tuple(float(b) for b in self.box_halfwidth))


_GLN = 16
_BLOCK = 2048   # cell pairs per f(u v) evaluation; bounds the working set


def _axis_edges(profile: RadialProfile, L: float, kappa: float) -> np.ndarray:
    """Panel edges on [-L, L] for one window.

    Compact profiles: a geometric cascade away from 0, then oscillation-
    limited uniform panels, mirrored so that u = 0 and v = 0 (the light-cone
    kink) are panel edges.  Unbounded profiles: uniform panels that resolve
    both the momentum phase and the profile phase over the whole box.
    """
    w_osc = 6.0 / (math.pi * max(kappa, 0.1))
    if profile.support_radius is None:
        q = max(profile.phase_scale, 0.25)
        n = max(2, int(math.ceil(2.0 * L / min(w_osc, 10.0 / (q * L)))))
        return np.linspace(-L, L, n + 1)
    w = min(w_osc, max(profile.support_radius ** 2 / L, 1e-12))
    half = [0.0, w]
    while 2.0 * w <= w_osc * 1.5 and w < L:
        w = min(2.0 * w, L)
        half.append(w)
    while w < L:
        w = min(L, w + w_osc)
        half.append(w)
    half = np.asarray(half)
    return np.concatenate([-half[::-1], half[1:]])


def window_config_for(profile: RadialProfile, k: MomentumMagnitude,
                      dims: int = 1, eta0: Optional[float] = None,
                      n_etas: Optional[int] = None) -> WindowConfig:
    """Default window schedule for a profile and momentum.

    Compactly supported profiles afford a deep schedule (the masked support
    mesh is cheap); unbounded profiles, integrated over the whole box, use a
    shallower one.  `k` and `dims` do not change the schedule.
    """
    compact = profile.support_radius is not None
    if eta0 is None:
        eta0 = 0.01 if compact else 0.08
    if n_etas is None:
        n_etas = 6 if compact else 3
    trunc = 1e-12 if compact else 1e-9
    etas = tuple(eta0 * 2.0 ** (-j) for j in range(n_etas))
    halfwidths = tuple(math.sqrt(2.0 * math.log(1.0 / trunc) / eta) for eta in etas)
    return WindowConfig(etas, halfwidths)


def profile_on_invariant(profile: RadialProfile) -> Callable:
    """f as a function of the invariant w = s^2 (timelike branch at w > 0)."""
    ft, fs = profile.f_timelike, profile.f_spacelike

    def fw(w):
        wa = np.asarray(w, dtype=float)
        out = np.zeros(wa.shape, dtype=complex)
        pos = wa >= 0
        if np.any(pos):
            out[pos] = ft(np.sqrt(wa[pos]))
        if np.any(~pos):
            out[~pos] = fs(np.sqrt(-wa[~pos]))
        return out

    return fw


def _window_integral(eta: float, k: MomentumMagnitude, fw: Callable,
                     edges: np.ndarray, keep: Callable):
    """One windowed (u, v)-plane integral on the cells edges x edges.

    The Gaussian window and the phase factor over the axes into the node
    weights pu and pv; only fw(u v) couples them.  It is evaluated only on
    the cell pairs whose signed (min|u|) (min|v|), the value of u v nearest 0
    on the cell, passes `keep`.  Returns (value, evaluations).
    """
    xg, wg = _gauss_legendre(_GLN)
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * xg[None, :]
    window = half[:, None] * wg[None, :] * np.exp(-eta * nodes ** 2 / 2.0)
    # timelike k oscillates along t = (u + v)/2, spacelike along x = (v - u)/2
    sign_u = 1.0 if k.char is MomentumChar.SPACELIKE else -1.0
    pu = window * np.exp(sign_u * 1j * math.pi * k.value * nodes)
    pv = window * np.exp(-1j * math.pi * k.value * nodes)
    nearest = np.clip(0.0, a, b)
    iu, iv = np.nonzero(keep(nearest[:, None] * nearest[None, :]))
    total = 0.0 + 0.0j
    for c0 in range(0, len(iu), _BLOCK):
        bu, bv = iu[c0:c0 + _BLOCK], iv[c0:c0 + _BLOCK]
        g = fw(nodes[bu][:, :, None] * nodes[bv][:, None, :])
        total += np.einsum("ci,cij,cj->", pu[bu], g, pv[bv])
    return 0.5 * total, len(iu) * _GLN * _GLN


def _extrapolate_window(samples, w: WindowConfig, evals: int) -> QuadResult:
    value, resid = extrapolate_to_zero(samples, min(3, len(samples) - 1))
    return _finish(value, 4.0 * resid + 0.25 * w.abs_tol, evals, w)


def cartesian_ft_1p1(f: RadialProfile, k: MomentumMagnitude,
                     w: WindowConfig) -> QuadResult:
    """Windowed evaluation of the defining integral on R^{1,1}."""
    fw = profile_on_invariant(f)
    support_w = math.inf if f.support_radius is None else f.support_radius ** 2

    def keep(wmin):
        return np.abs(wmin) <= support_w

    samples = []
    evals = 0
    for eta, L in zip(w.eta_schedule, w.box_halfwidth):
        val, ne = _window_integral(eta, k, fw, _axis_edges(f, L, k.value), keep)
        samples.append((eta, val))
        evals += ne
    return _extrapolate_window(samples, w, evals)


def _transverse_table(fw: Callable, support_w: float, eta: float):
    """Tabulate Y(w) = int dy f(w - y^2) exp(-eta y^2) with a pchip spline.

    The grid is quadratically graded around w = 0 where Y has a half-power
    cusp, linear over the core, and logarithmic over the decaying tail.
    """
    w_cut = math.log(1e14) / eta
    xg, wg = _gauss_legendre(24)
    t = np.linspace(0.0, 1.0, 1400)
    neg = -support_w * t[::-1] ** 2
    core_hi = min(4.0 * support_w, w_cut)
    pos = core_hi * t[1:] ** 2
    grid = np.concatenate([neg, pos])
    if w_cut > core_hi:
        tail = np.exp(np.linspace(math.log(core_hi), math.log(w_cut), 400))[1:]
        grid = np.concatenate([grid, tail])
    ylo = np.sqrt(np.maximum(grid - support_w, 0.0))
    yc = np.sqrt(np.maximum(grid, 0.0))
    yhi = np.sqrt(np.maximum(grid + support_w, 0.0))
    Y = np.zeros(grid.shape, dtype=complex)
    for lo, hi in ((ylo, yc), (yc, yhi)):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * xg[None, :]
        vals = fw((grid[:, None] - nodes ** 2).ravel()).reshape(nodes.shape)
        vals = vals * np.exp(-eta * nodes ** 2)
        Y += 2.0 * (vals * wg[None, :]).sum(axis=1) * half
    return complex_pchip(grid, Y), w_cut


def cartesian_ft_1p2(f: RadialProfile, k: MomentumMagnitude,
                     w: WindowConfig) -> QuadResult:
    """Windowed evaluation of the defining integral on R^{1,2}.

    The transverse coordinate is integrated first (it couples only through
    the invariant w = u v) and tabulated; the (t, x)-plane then follows the
    1+1 scheme.  Requires a compactly supported profile.
    """
    if f.support_radius is None:
        raise DomainError("the 1+2 window oracle requires a compactly "
                          "supported profile")
    fw = profile_on_invariant(f)
    support_w = f.support_radius ** 2
    samples = []
    evals = 0
    for eta, L in zip(w.eta_schedule, w.box_halfwidth):
        table, w_cut = _transverse_table(fw, support_w, eta)

        def keep(wmin, _cut=w_cut):
            # keep cells whose uv-range meets [-support_w, w_cut]
            return np.where(wmin >= 0, wmin <= _cut, np.abs(wmin) <= support_w)

        val, ne = _window_integral(eta, k, table, _axis_edges(f, L, k.value), keep)
        samples.append((eta, val))
        evals += ne
    return _extrapolate_window(samples, w, evals)
