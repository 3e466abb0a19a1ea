"""One-dimensional quadrature: damped semi-infinite integrals, extrapolation
of the damping parameter to zero, and finite integrals on the same panels.

Semi-infinite integrals of decaying-oscillatory integrands are defined as

    lim_{eps -> 0}  int_0^inf  exp(-eps x^2) f(x) dx .

For each eps in a decreasing schedule the damped integral is evaluated on
[0, X(eps)] with X chosen so the damped tail is negligible, and the sequence
of values is extrapolated polynomially to eps = 0.  The panel mesh is a
deterministic function of the configuration (never of sampled integrand
values), so two integrands that agree pointwise are integrated on identical
nodes.  The meshes of one schedule share their panels, so f is evaluated
once on the widest mesh and reweighted by exp(-eps x^2) for each eps; only
panels that mesh does not contain are evaluated for that eps.  The sums are
formed exactly as a separate evaluation per eps would form them, so the
result is the same to the last bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "QuadConfig",
    "QuadResult",
    "integrate_finite",
    "integrate_semiinfinite_damped",
    "extrapolate_to_zero",
]

_DEFAULT_SCHEDULE = tuple(0.1 * 2.0 ** (-j) for j in range(6))


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances, damping schedule and extrapolation order for one integral."""

    abs_tol: float = 1e-8
    rel_tol: float = 1e-6
    epsilon_schedule: tuple = _DEFAULT_SCHEDULE
    extrapolation_order: int = 3

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        eps = tuple(self.epsilon_schedule)
        if len(eps) == 0 or any(e <= 0 for e in eps):
            raise ValueError("epsilon_schedule must contain positive values")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon_schedule must be strictly decreasing")
        if not 0 <= self.extrapolation_order <= len(eps) - 1:
            raise ValueError("extrapolation_order must be <= len(epsilon_schedule) - 1")
        object.__setattr__(self, "epsilon_schedule", eps)


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate and convergence flag of one integral.

    `evaluations` counts distinct integrand points.  A damped integral
    evaluates a panel's nodes once for all eps whose meshes contain that
    panel, and the probes that place its truncation points are not counted.
    """

    value: complex
    error_estimate: float
    converged: bool
    evaluations: int
    failed_branches: tuple = ()

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


def _finish(value, err, evals, cfg, ok=True, failed=()) -> QuadResult:
    """The result of one integral; `cfg` is any config with abs_tol and
    rel_tol (a QuadConfig, or the oracle's WindowConfig)."""
    converged = bool(ok) and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return QuadResult(complex(value), float(err), converged, int(evals),
                      tuple(failed))


# --------------------------------------------------------------------------
# panel rules and meshes, shared by damped and finite integrals


_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)

_GL_MAIN = 24
_GL_ERR = 12
_CASCADE = 64          # geometric panels toward 0; resolves log/sqrt endpoints
_PHASE_STEP = math.pi / 2.0   # quadratic-phase advance allowed per panel
_LIN_RAD = 6.0                # linear-phase advance allowed per panel
_MAX_PANELS = 20000           # panels per mesh, cascade included


def _mesh(X: float, osc_scale: float, quad_phase: float):
    """Deterministic panel edges on [0, X], at most _MAX_PANELS panels.

    Panel widths resolve phases up to `quad_phase * x**2 + osc_scale * x`;
    a geometric cascade toward 0 resolves integrable endpoint behaviour.
    """
    if X <= 0:
        return np.array([0.0])
    # panels: _CASCADE + 1 up to s1, then at most quad_phase X^2 / delta
    # quadratic-phase steps, X / w_lin linear-phase steps and a last one
    budget = _MAX_PANELS - _CASCADE - 2
    est = quad_phase * X * X / _PHASE_STEP + osc_scale * X / _LIN_RAD
    widen = est / budget if est > budget else 1.0
    delta = _PHASE_STEP * widen
    w_lin = _LIN_RAD / osc_scale if osc_scale > 0 else X
    # unwidened w_lin: a cascade it ends is the same for every X of a schedule
    s1 = min(math.sqrt(delta / max(quad_phase, 1e-300)) if quad_phase > 0 else X, w_lin, X)
    w_lin = w_lin * widen
    edges = [0.0] + [s1 * 2.0 ** (-m) for m in range(_CASCADE, 0, -1)] + [s1]
    s = s1
    while s < X:
        if quad_phase > 0:
            step = math.sqrt(s * s + delta / quad_phase) - s
        else:
            step = X
        step = min(step, w_lin)
        s = min(X, s + step)
        edges.append(s)
    return np.array(edges)


def _panel_nodes(edges, x):
    """Nodes of the rule `x` on each panel of `edges` (one row per panel) and
    the panel half-widths."""
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[:, None] + half[:, None] * x[None, :], half


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:
    """f on the float array x, as complex: an integrand maps a float array
    to an array of the same shape."""
    out = np.asarray(f(x), dtype=complex)
    if out.shape != x.shape:
        raise ValueError("an integrand must map a float array to an array of "
                         f"the same shape; got shape {out.shape} for {x.shape}")
    return out


def _quantize_up(m: float) -> float:
    # power-of-2 quantized so envelope jitter cannot reshuffle the mesh
    if m <= 0:
        return 0.0
    return 2.0 ** math.ceil(math.log2(m))


def _magnitude_probe(f: Callable) -> Callable:
    """X -> max |f| over 48 points of [1e-3, X], rounded up to a power of 2.

    Memoised: the first probe interval is the same for every eps of a
    schedule, so one probe serves them all.
    """
    @functools.cache
    def magnitude(X: float) -> float:
        probe = _evaluate(f, np.linspace(1e-3, X, 48))
        return _quantize_up(float(np.max(np.abs(probe))))
    return magnitude


def _truncation_point(magnitude: Callable, eps: float, cfg: QuadConfig,
                      envelope: Optional[Callable], support_radius: Optional[float]):
    """(X, allowance for the damped tail beyond X): the least X with
    envelope(X) * exp(-eps X^2) below the tolerance floor.  Without an
    envelope, `magnitude` (from `_magnitude_probe`) bounds |f|."""
    floor = cfg.abs_tol / 10.0
    if support_radius is not None:
        return float(support_radius), 0.0
    if envelope is not None:
        def tail(X):
            return float(envelope(X)) * math.exp(-eps * X * X) * (1.0 + X)
        X = 10.0
        for _ in range(60):
            if tail(X) <= floor:
                break
            X *= 1.25
        return X, tail(X)
    # default: constant envelope from coarse magnitude sampling, two rounds
    X = 10.0
    for _ in range(2):
        m = magnitude(X)
        if m == 0.0:
            return 10.0, floor
        X = math.sqrt(max(math.log(10.0 * m / floor), 1.0) / eps)
    return X, floor


def integrate_semiinfinite_damped(f: Callable, cfg: QuadConfig,
                                  envelope: Optional[Callable] = None,
                                  support_radius: Optional[float] = None,
                                  osc_scale: float = 1.0,
                                  quad_phase: float = 1.0) -> QuadResult:
    """Damped semi-infinite integral of f with extrapolation eps -> 0.

    Parameters
    ----------
    f : callable
        Integrand: maps a float array of points to an array of the same
        shape (real or complex values); anything else raises ValueError.
    cfg : QuadConfig
        Supplies the eps schedule, tolerances and extrapolation order.
    envelope : callable, optional
        Upper bound on |f| used to place the truncation point.
    support_radius : float, optional
        If given, f vanishes beyond it and the integral is truncated there
        exactly.
    osc_scale : float
        Bound on the linear phase rate of f (rad per unit x); sets the panel
        width far from the origin.
    quad_phase : float
        Bound on the quadratic phase coefficient of f (phases ~ quad_phase*x^2
        are resolved); pass 0 for non-chirped integrands.
    """
    rules = (_gauss_legendre(_GL_MAIN), _gauss_legendre(_GL_ERR))
    magnitude = _magnitude_probe(f)
    Xs, tails = zip(*(_truncation_point(magnitude, eps, cfg, envelope, support_radius)
                      for eps in cfg.epsilon_schedule))

    def values_on(nodes):
        return _evaluate(f, nodes.ravel()).reshape(nodes.shape)

    meshes = [_mesh(X, osc_scale, quad_phase) for X in Xs]
    # the widest mesh; its integrand values serve every eps that shares a panel
    wide = meshes[int(np.argmax(Xs))]
    wide_values = [values_on(_panel_nodes(wide, x)[0]) for x, _ in rules]
    evals = sum(v.size for v in wide_values)
    samples = []
    quad_err = 0.0
    for eps, edges in zip(cfg.epsilon_schedule, meshes):
        # a panel is shared when both its edges are the wide mesh's, in place
        m = min(len(edges), len(wide))
        same = edges[:m] == wide[:m]
        shared = np.zeros(len(edges) - 1, dtype=bool)
        shared[:m - 1] = same[:-1] & same[1:]
        reused, own = np.flatnonzero(shared), np.flatnonzero(~shared)
        sums = []
        for (x, w), wide_v in zip(rules, wide_values):
            nodes, half = _panel_nodes(edges, x)
            values = np.empty(nodes.shape, dtype=complex)
            values[reused] = wide_v[reused]
            if own.size:
                values[own] = values_on(nodes[own])
                evals += own.size * len(x)
            sums.append((values * np.exp(-eps * nodes * nodes) * w[None, :])
                        .sum(axis=1) * half)
        p_main, p_err = sums
        samples.append((eps, complex(p_main.sum())))
        quad_err = max(quad_err, float(np.abs(p_main - p_err).sum()))
    order = min(cfg.extrapolation_order, len(samples) - 1)
    value, resid = extrapolate_to_zero(samples, order)
    err = resid + 4.0 * quad_err + max(tails)
    return _finish(value, err, evals, cfg)


# --------------------------------------------------------------------------
# finite intervals


def integrate_finite(f: Callable, a: float, b: float, cfg: QuadConfig) -> QuadResult:
    """Quadrature of the array integrand f over [a, b].

    The half-interval mesh of `_mesh` is laid from both endpoints, so each
    gets the geometric cascade that resolves integrable endpoint
    singularities.  Cascade edges nearer an endpoint e than 2^-40 |e| are
    dropped, so every node rounds to a point strictly inside (a, b):
    endpoints are never evaluated.  The error estimate is 4 sum |G24 - G12|
    over the panels.
    """
    if not a < b:
        raise ValueError("integrate_finite requires a < b")
    h = 0.5 * (b - a)
    half = _mesh(h, 1.0, 0.0)

    def offsets(end):
        return half[(half == 0.0) | (half >= min(2.0 ** -40 * abs(end), h))]

    edges = np.concatenate([a + offsets(a), (b - offsets(b))[-2::-1]])
    sums = []
    for x, w in (_gauss_legendre(_GL_MAIN), _gauss_legendre(_GL_ERR)):
        nodes, hw = _panel_nodes(edges, x)
        values = _evaluate(f, nodes.ravel()).reshape(nodes.shape)
        sums.append((values * w).sum(axis=1) * hw)
    p_main, p_err = sums
    evals = (len(edges) - 1) * (_GL_MAIN + _GL_ERR)
    return _finish(p_main.sum(), 4.0 * float(np.abs(p_main - p_err).sum()), evals, cfg)


# --------------------------------------------------------------------------
# extrapolation


def extrapolate_to_zero(samples: Sequence, order: int):
    """Polynomial extrapolation of (eps, value) samples to eps = 0.

    Uses the order+1 samples with the smallest eps (Neville's scheme at 0);
    the residual is the change from the order-1 result.  Returns
    (value, residual).
    """
    pts = sorted(((float(e), complex(v)) for e, v in samples), key=lambda p: p[0])
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(pts) < order + 1:
        raise ValueError("need at least order+1 samples")
    xs = [p[0] for p in pts]
    if any(x1 == x2 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError("duplicate eps in samples")

    def neville(points):
        # incremental form: exact when the samples are constant
        x = np.array([p[0] for p in points])
        t = np.array([p[1] for p in points], dtype=complex)
        for m in range(1, len(x)):
            for i in range(len(x) - m):
                t[i] = t[i] - x[i] * (t[i] - t[i + 1]) / (x[i] - x[i + m])
        return complex(t[0])

    value = neville(pts[: order + 1])
    if order == 0:
        residual = 0.0 if len(pts) == 1 else abs(value - pts[1][1])
    else:
        residual = abs(value - neville(pts[:order]))
    return value, float(residual)
