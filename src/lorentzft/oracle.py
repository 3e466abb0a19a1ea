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
support.  The sum over the pairs has the bits of one einsum per block of
`_BLOCK` pairs: numpy's einsum sums a block in runs of `_RUN` pairs, its
buffer, each from 0, and adds the runs to the block's sum in order.  So
f(u v) is evaluated in pieces of whole runs, small enough that their
temporaries stay in cache, each into a buffer its loop reuses; a piece's
run sums come from one batched einsum and are stored by run index, and
once every piece is done the runs are folded in order into each block's
sum, which is added to the total at the block's end.  The pieces can so
run in any order and on any thread.  In 1+1 the caller runs every piece of
`_PIECE` pairs: each cell has the sign of its nodes, and 0 is an edge of
every compact axis, so the sign of u v is fixed on a cell pair, and a
piece calls f_timelike once on its pairs with u v > 0 and f_spacelike once
on those with u v < 0, writing into the buffer's rows; only pairs with a
cell that straddles 0 (the middle cell of an unbounded axis with an odd
cell count) are split element by element, by `profile_on_invariant`.  In
1+2 the transverse table (a `complex_pchip` evaluator: numpy calls, no
profile branch and no other package function) is called once a piece of
`_RUN` pairs, and the pieces are dealt in turn to the caller and the
`specfun` pool's other workers (`specfun._in_shares`).  The profile
branches, the table's construction and the eta loop stay on the caller's
thread.  The oracle takes the radial engine's `QuadConfig`: its
`epsilon_schedule` is the eta schedule, which `window_config_for` sets by
profile and dimension, with order min(3, etas - 1) and fixed tolerances.
The box halfwidth L of each eta follows from the profile and eta, and the
panels from the profile and the momentum.  One eta loop takes n = 1 or 2.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernels import MomentumChar, MomentumMagnitude
from .profiles import RadialProfile, complex_pchip
from .quadrature import (
    QuadConfig,
    QuadResult,
    _check_rates,
    _checked_radius,
    _finish,
    _gauss_legendre,
    _halving,
    _panel_nodes,
    extrapolate_to_zero,
    integrate_finite,
    integrate_semiinfinite_damped,
)
from .specfun import DomainError, Order, _in_shares, bessel_j, bessel_k, bessel_n

__all__ = [
    "AngularIdentityKind",
    "AngularIdentity",
    "angular_quad_config",
    "check_angular_identity",
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
        if not 0 < self.a < math.inf:
            raise DomainError("identity parameter a must be positive and finite")


def angular_quad_config() -> QuadConfig:
    """Damping schedule deep enough for the slowest identity (small a)."""
    return QuadConfig(abs_tol=1e-10, rel_tol=1e-10,
                      epsilon_schedule=_halving(0.0125, 8),
                      extrapolation_order=4)


# kind -> (interval or None, g(a, x), rhs(a)).  None: the noncompact
# hyperbolic-angle integral under the damped prescription, after the monotone
# substitution x = cosh(psi) (shifted to start at 0) or x = sinh(psi); an
# interval: the compact theta integral there.  The entries look up the Bessel
# functions when called, not when the table is built.
_IDENTITIES = {
    # int_-inf^inf cos(a cosh psi) dpsi = 2 int_1^inf cos(a x)/sqrt(x^2-1) dx
    AngularIdentityKind.COSH_TO_N0: (
        None,
        lambda a, t: 2.0 * np.cos(a * (1.0 + t)) / np.sqrt(t * (t + 2.0)),
        lambda a: -math.pi * bessel_n(Order(0), a)),
    AngularIdentityKind.SINH_TO_K0: (
        None,
        lambda a, x: 2.0 * np.cos(a * x) / np.sqrt(1.0 + x * x),
        lambda a: 2.0 * bessel_k(Order(0), a)),
    AngularIdentityKind.THETA_TO_J0_HALF: (
        (0.0, math.pi / 2.0),
        lambda a, th: np.cos(a * np.cos(th)),
        lambda a: math.pi / 2.0 * bessel_j(Order(0), a)),
    AngularIdentityKind.THETA_TO_J0_FULL: (
        (-math.pi / 2.0, math.pi / 2.0),
        lambda a, th: np.cos(a * np.cos(th)),
        lambda a: math.pi * bessel_j(Order(0), a)),
    # 2 pi int_0^inf sinh(psi) J0(a sinh psi) dpsi, x = sinh(psi)
    AngularIdentityKind.SINH_J0_EXP: (
        None,
        lambda a, x: 2.0 * math.pi * x / np.sqrt(1.0 + x * x)
        * bessel_j(Order(0), a * x),
        lambda a: 2.0 * math.pi / a * math.exp(-a)),
    # (pi/2) int_0^inf cosh(psi) J0(a cosh psi) dpsi, x = cosh(psi)
    AngularIdentityKind.COSH_J0_COS: (
        None,
        lambda a, t: math.pi / 2.0 * (1.0 + t) * bessel_j(Order(0), a * (1.0 + t))
        / np.sqrt(t * (t + 2.0)),
        lambda a: math.pi / (2.0 * a) * math.cos(a)),
}


def check_angular_identity(ident: AngularIdentity, cfg: QuadConfig):
    """Evaluate one identity numerically; returns (lhs, rhs, gap).

    The noncompact hyperbolic-angle integrals run on the damped engine, the
    compact ones on `integrate_finite`; see `_IDENTITIES`.
    """
    a = ident.a
    interval, g, rhs = _IDENTITIES[ident.kind]
    integrand = functools.partial(g, a)
    if interval is None:
        res = integrate_semiinfinite_damped(integrand, cfg, osc_scale=a, quad_phase=0.0)
    else:
        res = integrate_finite(integrand, *interval, cfg)
    lhs = res.value.real
    r = rhs(a)
    return lhs, r, abs(lhs - r)


# --------------------------------------------------------------------------
# windowed Cartesian evaluation


_GLN = 16
_BLOCK = 2048   # cell pairs per partial sum added to the total: fixes the bits
_PIECE = 128    # cell pairs per 1+1 f(u v) call and value buffer: stays in cache
_RUN = 32       # cell pairs per buffer of numpy's einsum (8192 terms)
# cells per axis.  Selecting the cell pairs takes 25 bytes a selected pair
# (the cells x cells float product and mask, and np.nonzero's two int64
# index arrays), 100 MiB at 2048 cells when every pair is selected, as on
# an unbounded axis: about 400 MiB at this size
_MAX_CELLS = 4096


def _axis_edges(profile: RadialProfile, L: float, kappa: float) -> np.ndarray:
    """Panel edges on [-L, L] for one window.

    Compact profiles: a geometric cascade away from 0, then oscillation-
    limited uniform panels, mirrored so that u = 0 and v = 0 (the light-cone
    kink) are panel edges.  Unbounded profiles: uniform panels that resolve
    both the momentum phase and the profile phase over the whole box.
    DomainError when the axis needs more than `_MAX_CELLS` cells, checked
    as the edges grow, so a refused axis costs at most that many steps.
    """
    too_many = DomainError(
        f"the window oracle needs more than {_MAX_CELLS} cells an axis at "
        f"k={kappa}, phase_scale={profile.phase_scale}, box halfwidth {L:.6g}")
    w_osc = 6.0 / (math.pi * max(kappa, 0.1))
    if profile.support_radius is None:
        q = max(profile.phase_scale, 0.25)
        n = max(2, int(math.ceil(2.0 * L / min(w_osc, 10.0 / (q * L)))))
        if n > _MAX_CELLS:
            raise too_many
        return np.linspace(-L, L, n + 1)
    w = min(w_osc, max(profile.support_radius ** 2 / L, 1e-12))
    half = [0.0, w]
    while 2.0 * w <= w_osc * 1.5 and w < L:
        w = min(2.0 * w, L)
        half.append(w)
    while w < L:
        if 2 * len(half) > _MAX_CELLS:
            raise too_many
        w = min(L, w + w_osc)
        half.append(w)
    half = np.asarray(half)
    return np.concatenate([-half[::-1], half[1:]])


def window_config_for(profile: RadialProfile, k: MomentumMagnitude,
                      dims: int = 1, eta0: Optional[float] = None,
                      n_etas: Optional[int] = None) -> QuadConfig:
    """Default window schedule for a profile, momentum and spatial dimension.

    A `QuadConfig` whose `epsilon_schedule` is the eta schedule, halving
    from eta0, with extrapolation order min(3, n_etas - 1) and tolerances
    1e-5 absolute, 1e-3 relative.  Compact profiles afford a deep schedule
    (the masked support mesh is cheap): (eta0, n_etas) = (0.01, 6) for
    dims=1, (0.02, 5) for dims=2.  Unbounded ones, integrated over the
    whole box, use (0.08, 3).  `k` does not change the schedule.
    """
    if isinstance(dims, bool) or dims not in (1, 2):
        raise DomainError(f"the window oracle covers dims 1 and 2, got {dims!r}")
    if n_etas is not None and (isinstance(n_etas, bool)
                               or not isinstance(n_etas, (int, np.integer))):
        raise ValueError(f"n_etas must be an integer, got {n_etas!r}")
    if profile.support_radius is None:
        default = (0.08, 3)
    else:
        default = {1: (0.01, 6), 2: (0.02, 5)}[dims]
    eta0 = default[0] if eta0 is None else eta0
    n_etas = default[1] if n_etas is None else n_etas
    return QuadConfig(abs_tol=1e-5, rel_tol=1e-3,
                      epsilon_schedule=_halving(eta0, n_etas),
                      extrapolation_order=min(3, n_etas - 1))


def _box_halfwidth(profile: RadialProfile, eta: float) -> float:
    """Box halfwidth L at eta: the window exp(-eta L^2 / 2) falls to 1e-12
    (compact profiles) or 1e-9, so L grows as eta shrinks."""
    trunc = 1e-12 if profile.support_radius is not None else 1e-9
    return math.sqrt(2.0 * math.log(1.0 / trunc) / eta)


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


def _cell_signs(nodes: np.ndarray) -> np.ndarray:
    """The sign of each cell's nodes: +1 where every node exceeds 1e-150, -1
    where every node is below -1e-150, 0 otherwise.  A product of two nodes
    of signed cells is at least 1e-300 in magnitude, so it cannot round to
    0 and its sign is the product of the cells' signs."""
    return np.where(nodes.min(axis=1) > 1e-150, 1,
                    np.where(nodes.max(axis=1) < -1e-150, -1, 0)).astype(np.int8)


def _fill_branches(out: np.ndarray, profile: RadialProfile, nodes: np.ndarray,
                   cu: np.ndarray, cv: np.ndarray, signs: np.ndarray) -> None:
    """out[j] = f(u v) on the nodes of the cell pair (cu[j], cv[j]), one
    branch call per sign of u v: f_timelike(sqrt(w)) on the pairs where
    w = u v > 0, f_spacelike(sqrt(-w)) where w < 0, each on 1-d radii, and
    `profile_on_invariant` element by element on the pairs with a cell of
    sign 0.  The values are those of `profile_on_invariant` on every pair."""
    for sign in (1, -1, 0):
        rows = np.flatnonzero(signs == sign)
        if len(rows) == 0:
            continue
        if len(rows) == len(signs):
            rows = slice(None)
        u, v = nodes[cu[rows]], nodes[cv[rows]]
        if sign == 0:
            out[rows] = profile_on_invariant(profile)(u[:, :, None] * v[:, None, :])
            continue
        # |u v| as (sign u) v: negating a node is exact, and no product of
        # signed cells' nodes is 0, so einsum's products are the bits of u v
        w = np.einsum("ci,cj->cij", u if sign > 0 else -u, v)
        r = np.sqrt(w, out=w).reshape(-1)
        branch = profile.f_timelike if sign > 0 else profile.f_spacelike
        out[rows] = np.broadcast_to(branch(r), r.shape).reshape(w.shape)


def _window_integral(eta: float, k: MomentumMagnitude, plane,
                     edges: np.ndarray, w_lo: float, w_hi: float):
    """One windowed (u, v)-plane integral on the cells edges x edges.

    The Gaussian window and the phase factor over the axes into the node
    weights pu and pv; only the plane integrand f(u v) couples them.  It is
    evaluated only on the cell pairs whose signed (min|u|) (min|v|), the
    value of u v nearest 0 on the cell, lies in [w_lo, w_hi], one piece at a
    time.  `plane` is the profile (n = 1), whose branches `_fill_branches`
    calls once per sign of u v in a piece of `_PIECE` pairs, all on the
    caller's thread; or a function of w (n = 2's transverse table), called
    once a piece of `_RUN` pairs, the pieces shared in turn between the
    caller and the pool's other workers by `_in_shares`.  Each piece writes
    its `_run_sums` into one array by run index; the runs are then folded in
    order into each `_BLOCK`'s sum, so the value has the bits of one einsum
    per block, whatever the pieces and their threads.
    Returns (value, evaluations).
    """
    xg, wg = _gauss_legendre(_GLN)
    nodes, half = _panel_nodes(edges, xg)
    window = half[:, None] * wg[None, :] * np.exp(-eta * nodes ** 2 / 2.0)
    # timelike k oscillates along t = (u + v)/2, spacelike along x = (v - u)/2
    sign_u = 1.0 if k.char is MomentumChar.SPACELIKE else -1.0
    pu = window * np.exp(sign_u * 1j * math.pi * k.value * nodes)
    pv = window * np.exp(-1j * math.pi * k.value * nodes)
    nearest = np.clip(0.0, edges[:-1], edges[1:])
    wmin = nearest[:, None] * nearest[None, :]
    iu, iv = np.nonzero((w_lo <= wmin) & (wmin <= w_hi))
    del wmin    # cells x cells floats: not held while the blocks run
    runs = np.empty(-(-len(iu) // _RUN), dtype=complex)
    if isinstance(plane, RadialProfile):
        signs, piece = _cell_signs(nodes), _PIECE
    else:
        signs, piece = None, _RUN

    def share(first: int, shares: int) -> None:
        # the pieces first, first + shares, ...: each run's sum into `runs`
        buf = np.empty((min(piece, len(iu)), _GLN, _GLN), dtype=complex)
        for p0 in range(first * piece, len(iu), shares * piece):
            cu, cv = iu[p0:p0 + piece], iv[p0:p0 + piece]
            g = buf[:len(cu)]
            if signs is None:
                g[...] = plane(nodes[cu][:, :, None] * nodes[cv][:, None, :])
            else:
                _fill_branches(g, plane, nodes, cu, cv, signs[cu] * signs[cv])
            sums = _run_sums(pu[cu], g, pv[cv])
            runs[p0 // _RUN:p0 // _RUN + len(sums)] = sums

    if signs is None:
        _in_shares(share)
    else:
        share(0, 1)
    total = 0.0 + 0.0j
    for r0 in range(0, len(runs), _BLOCK // _RUN):
        block = 0.0 + 0.0j
        for run in runs[r0:r0 + _BLOCK // _RUN]:
            block += run
        total += block
    return 0.5 * total, len(iu) * _GLN * _GLN


def _run_sums(a: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """einsum("ci,cij,cj->") of each run of `_RUN` cell pairs of (a, g, b),
    in order, the last run possibly short.  Folded into 0 in order, these
    are the bits of one einsum over all the pairs: numpy's einsum sums each
    of its buffers, `_RUN` pairs of 16 x 16 terms, from 0 and adds it to
    the total."""
    full = len(g) - len(g) % _RUN
    k = full // _RUN
    sums = np.einsum("kci,kcij,kcj->k", a[:full].reshape(k, _RUN, _GLN),
                     g[:full].reshape(k, _RUN, _GLN, _GLN),
                     b[:full].reshape(k, _RUN, _GLN))
    if full < len(g):
        sums = np.append(sums, np.einsum("ci,cij,cj->", a[full:], g[full:], b[full:]))
    return sums


def _cartesian(f: RadialProfile, k: MomentumMagnitude, cfg: QuadConfig,
               n: int) -> QuadResult:
    """The eta loop of the 1+n oracle, n = 1 or 2: the plane integrand is
    f(u v) for n = 1 and the transverse table of a compact f for n = 2; the
    windowed integrals are extrapolated to eta = 0 at
    `cfg.extrapolation_order`.  A profile supported on s = 0 alone has the
    exact transform 0, returned as `transform` does, with no evaluation.
    A support radius that is negative or not finite, and a phase scale
    that is negative or not finite, raise ValueError, as in `transform`,
    before any evaluation; so does, with DomainError, an eta whose axis
    needs more than `_MAX_CELLS` cells."""
    if f.support_radius is not None:
        _checked_radius(f.support_radius)
    _check_rates(phase_scale=f.phase_scale)
    if n == 2 and f.support_radius is None:
        raise DomainError("the 1+2 window oracle requires a compactly "
                          "supported profile")
    if f.support_radius == 0.0:
        return _finish(0.0, 0.0, 0, cfg)
    # every eta's axis, so an axis over the cell cap raises before any
    # evaluation
    axes = [_axis_edges(f, _box_halfwidth(f, eta), k.value)
            for eta in cfg.epsilon_schedule]
    fw = profile_on_invariant(f)
    support_w = math.inf if f.support_radius is None else f.support_radius ** 2
    samples = []
    evals = 0
    for eta, edges in zip(cfg.epsilon_schedule, axes):
        plane, w_hi = ((f, support_w) if n == 1
                       else _transverse_table(fw, support_w, eta))
        val, ne = _window_integral(eta, k, plane, edges, -support_w, w_hi)
        samples.append((eta, val))
        evals += ne
    value, resid = extrapolate_to_zero(samples, cfg.extrapolation_order)
    return _finish(value, 4.0 * resid + 0.25 * cfg.abs_tol, evals, cfg)


def cartesian_ft_1p1(f: RadialProfile, k: MomentumMagnitude,
                     cfg: QuadConfig) -> QuadResult:
    """Windowed evaluation of the defining integral on R^{1,1}."""
    return _cartesian(f, k, cfg, 1)


def _transverse_table(fw: Callable, support_w: float, eta: float):
    """Tabulate Y(w) = int dy f(w - y^2) exp(-eta y^2) with a pchip spline.

    The grid is quadratically graded around w = 0 where Y has a half-power
    cusp, linear over the core, and logarithmic over the decaying tail.
    Returns (Y, w_cut): the spline is zero beyond its last node w_cut.
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
    # the support of f(w - y^2) in y >= 0, two panels split at the kink y^2 = w
    edges = np.sqrt(np.maximum(grid[:, None] + [-support_w, 0.0, support_w], 0.0))
    nodes, half = _panel_nodes(edges, xg)
    # rows of about one plane piece's points at a time: each panel is the
    # sum of its own row, so the bits do not depend on the rows' grouping
    step = _PIECE * _GLN * _GLN // nodes[0].size
    panels = np.empty(half.shape, dtype=complex)
    for r in range(0, len(grid), step):
        x = nodes[r:r + step]
        vals = fw((grid[r:r + step, None, None] - x ** 2).ravel()).reshape(x.shape)
        vals = vals * np.exp(-eta * x ** 2)
        panels[r:r + step] = 2.0 * (vals * wg).sum(axis=-1) * half[r:r + step]
    Y = panels[:, 0] + panels[:, 1]
    return complex_pchip(grid, Y), w_cut


def cartesian_ft_1p2(f: RadialProfile, k: MomentumMagnitude,
                     cfg: QuadConfig) -> QuadResult:
    """Windowed evaluation of the defining integral on R^{1,2}.

    The transverse coordinate is integrated first (it couples only through
    the invariant w = u v) and tabulated per eta; the (t, x)-plane then
    follows the 1+1 scheme.  Requires a compactly supported profile.
    """
    return _cartesian(f, k, cfg, 2)
