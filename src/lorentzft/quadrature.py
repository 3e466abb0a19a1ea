"""One-dimensional quadrature: damped semi-infinite integrals, extrapolation
of the damping parameter to zero, and finite integrals on the same panels.

Semi-infinite integrals of decaying-oscillatory integrands are defined as

    lim_{eps -> 0}  int_0^inf  exp(-eps x^2) f(x) dx .

For each eps in a decreasing schedule the damped integral is evaluated on
[0, X(eps)] with X chosen so the damped tail is negligible, and the sequence
of values is extrapolated polynomially to eps = 0; `_truncation_points`
places a schedule's X(eps) in one forward search, evaluating an envelope
once per probe point for the whole schedule, or else f in at most two
probe calls.  The panel mesh is a deterministic function of the
configuration (never of sampled integrand values), so two integrands that
agree pointwise are integrated on identical nodes, and one mesh is built
per distinct truncation point.  Only the widest is walked panel by panel:
a narrower mesh whose walk would start at the same edge with the same
widening is the widest mesh's edges below its X, then X (`_mesh_below`).
A panel's rule has 36 nodes: the 24 Gauss-Legendre nodes of the main rule,
then the 12 of the error rule.  The meshes' panels form one table, the
widest mesh's panels and then the panels of their own of every narrower
mesh in X order, and f is called once, on all of its nodes; a narrower
mesh is then two slices of the table, the leading panels it shares with
the widest and its own.  So f's value at a point must not depend on the
other points of a call.  An f that returns exact zeros, skipping the rest
of its work, when it vanishes on every point of a call (`transform`'s
radial integrand skips its weight so) breaks this at its zeros alone:
they are +0.0 when f vanishes on every node of every mesh, as a call per
eps would give them, and otherwise 0 * weight (a signed zero, or NaN where
the weight is not finite), as a call per eps gives them on a mesh where f
does not vanish everywhere.  A signed zero summed with nonzero terms keeps
the sum's bits; a NaN does not.  Each mesh's values are then reweighted by
exp(-eps x^2) for all the eps whose mesh it is, weighted and summed per
panel straight from views of the table: the panels it shares with the
widest mesh and then its own, in runs of _CHUNK // 36 panels, whose
per-panel sums alone are joined.  Each eps's main sum and panel error are
one sum over the mesh's panels.  No mesh's nodes or values are gathered
into an array of their own, and the engine reads f's array in place
without writing it, so f may return a read-only array or keep the one it
returned.  So an integral's memory is the table's nodes and f's values
plus O(_CHUNK) temporaries, whatever the mesh's size.  The sums are formed
exactly as a separate evaluation per eps and rule would form them, to the
last bit.
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


def _halving(eps0: float, terms: int) -> tuple:
    """The damping schedule eps_j = eps0 2^-j, j = 0 .. terms - 1."""
    return tuple(eps0 * 2.0 ** (-j) for j in range(terms))


_DEFAULT_SCHEDULE = _halving(0.1, 6)


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances, damping schedule and extrapolation order for one integral."""

    abs_tol: float = 1e-8
    rel_tol: float = 1e-6
    epsilon_schedule: tuple = _DEFAULT_SCHEDULE
    extrapolation_order: int = 3

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        eps = tuple(self.epsilon_schedule)
        if len(eps) == 0 or not all(0 < e < math.inf for e in eps):
            raise ValueError("epsilon_schedule must contain finite positive values")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon_schedule must be strictly decreasing")
        order = self.extrapolation_order
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
            raise ValueError("extrapolation_order must be an integer")
        if not 0 <= order <= len(eps) - 1:
            raise ValueError("extrapolation_order must be <= len(epsilon_schedule) - 1")
        object.__setattr__(self, "epsilon_schedule", eps)


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate and convergence flag of one integral.

    `evaluations` counts distinct integrand points.  A damped integral
    evaluates a panel's nodes once for all eps whose meshes contain that
    panel, and the probes that place its truncation points are not counted;
    the panels a narrower mesh does not share with the widest are evaluated
    once but counted once per eps of that mesh.
    """

    value: complex
    error_estimate: float
    converged: bool
    evaluations: int
    failed_branches: tuple = ()

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


def _finish(value, err, evals, cfg, failed=()) -> QuadResult:
    """The result of one integral, converged when no branch is named in
    `failed` and `err` is within cfg's tolerances."""
    converged = not failed and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
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
# points a pass over a mesh holds at once: the damping pass takes its panels
# in runs of _CHUNK // 36 panels, and `transform`'s radial integrand calls
# its branch and weight on runs of _CHUNK points, so their temporaries do
# not grow with the mesh; 8 of specfun's 8,192-point pool blocks, so a
# chunk's Bessel and chirp calls still run on the pool
_CHUNK = 65536


def _check_rates(**rates) -> None:
    """ValueError unless every named phase rate is finite and >= 0."""
    if not all(0 <= rate < math.inf for rate in rates.values()):
        raise ValueError("phase rates must be finite and >= 0, got "
                         + ", ".join(f"{k}={v}" for k, v in rates.items()))


def _walk_start(X: float, osc_scale: float, quad_phase: float) -> tuple:
    """(widen, c, w_lin, s1) of `_mesh`'s walk to X > 0: the budget's
    widening factor, the quadratic-phase constant, the widened linear-phase
    step and the end of the cascade."""
    # panels: _CASCADE + 1 up to s1, then at most quad_phase X^2 / delta
    # quadratic-phase steps, X / w_lin linear-phase steps and a last one
    budget = _MAX_PANELS - _CASCADE - 2
    est = quad_phase * X * X / _PHASE_STEP + osc_scale * X / _LIN_RAD
    widen = est / budget if est > budget else 1.0
    # a quadratic-phase step from s ends at sqrt(s^2 + c); c = inf: no such limit
    c = _PHASE_STEP * widen / quad_phase if quad_phase > 0 else math.inf
    w_lin = _LIN_RAD / osc_scale if osc_scale > 0 else X
    # unwidened w_lin: a cascade it ends is the same for every X of a schedule
    s1 = min(math.sqrt(c), w_lin, X)
    return widen, c, w_lin * widen, s1


def _mesh(X: float, osc_scale: float, quad_phase: float):
    """Deterministic panel edges on [0, X], at most _MAX_PANELS panels.

    Panel widths resolve phases up to `quad_phase * x**2 + osc_scale * x`;
    a geometric cascade toward 0 resolves integrable endpoint behaviour.
    Raises ValueError for a non-finite X, which no budget could bound, and
    for phase rates that are not finite and >= 0.
    """
    if not math.isfinite(X):
        raise ValueError(f"a panel mesh needs a finite end, got X={X}")
    _check_rates(osc_scale=osc_scale, quad_phase=quad_phase)
    if X <= 0:
        return np.array([0.0])
    _, c, w_lin, s1 = _walk_start(X, osc_scale, quad_phase)
    edges = [0.0] + [s1 * 2.0 ** (-m) for m in range(_CASCADE, 0, -1)] + [s1]
    # comparisons in place of min(): the same tie order, without the calls
    sqrt = math.sqrt
    append = edges.append
    s = s1
    while s < X:
        step = sqrt(s * s + c) - s
        if w_lin < step:
            step = w_lin
        t = s + step
        s = t if t < X else X
        append(s)
    return np.array(edges)


def _mesh_below(wide, X: float, osc_scale: float, quad_phase: float):
    """The panels of `_mesh(X, osc_scale, quad_phase)` for an X up to the
    end of `wide`, the mesh of the same rates to wide[-1]: the number k of
    leading panels it shares with `wide`, edge for edge, and the (a, b)
    edges of the others, one row a panel (none for X = wide[-1], whose
    mesh is `wide`).

    Walks that start at the same s1 with the same widening take the same
    steps until one reaches X, so the mesh to X is then the wide mesh's
    edges below X followed by X: only its last panel is its own, and none
    when X is an edge of `wide`.  Otherwise it is walked afresh, and its
    panels from its first edge that differs from the wide mesh's on are
    its own.
    """
    widen, _, _, s1 = _walk_start(X, osc_scale, quad_phase)
    wide_widen, _, _, wide_s1 = _walk_start(wide[-1], osc_scale, quad_phase)
    # c follows from widen, and a w_lin of X (no linear phase) caps only
    # steps that end beyond X
    if widen == wide_widen and s1 == wide_s1:
        j = int(np.searchsorted(wide, X))
        if wide[j] == X:
            return j, np.empty((0, 2))
        return j - 1, np.array([[wide[j - 1], X]])
    edges = _mesh(X, osc_scale, quad_phase)
    m = min(len(edges), len(wide))
    same = edges[:m] == wide[:m]
    k = max((m if same.all() else int(same.argmin())) - 1, 0)
    return k, np.stack((edges[k:-1], edges[k + 1:]), axis=-1)


def _panel_nodes(edges, x):
    """Nodes of the rule `x` on each panel of `edges` (edges along the last
    axis, one node row per panel) and the panel half-widths."""
    a, b = edges[..., :-1], edges[..., 1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[..., None] + half[..., None] * x, half


# one panel rule: the _GL_MAIN main nodes, then the _GL_ERR error-rule nodes
_RULE_X, _RULE_W = map(np.concatenate,
                       zip(_gauss_legendre(_GL_MAIN), _gauss_legendre(_GL_ERR)))


def _panel_sums(terms, half):
    """Main- and error-rule sums of each panel from its weighted terms (the
    rule's nodes along the last axis)."""
    return (terms[..., :_GL_MAIN].sum(axis=-1) * half,
            terms[..., _GL_MAIN:].sum(axis=-1) * half)


def _damped_sums(eps, nodes, half, values, parts):
    """Main- and error-rule sums of the panels of the table rows `parts`
    (slices, in order) of `nodes` (panels x rule nodes) of `values` damped
    by exp(-eps x^2), one row an eps and one column a panel: the rows of
    `_panel_sums` of one eps x panels x rule-nodes array.  The terms are
    formed on runs of _CHUNK // 36 panels and only their per-panel sums
    are joined, so no mesh-sized array is formed.  An inf value times a
    real factor gives NaN, which the result reports."""
    step = _CHUNK // _RULE_X.size
    chunks = [slice(i, min(i + step, part.stop))
              for part in parts for i in range(part.start, part.stop, step)]
    sums = []
    for c in chunks or [slice(0, 0)]:
        x = nodes[c]
        damping = np.exp(-eps[:, None, None] * x * x)
        with np.errstate(invalid="ignore"):
            terms = values[c] * damping
        terms *= _RULE_W
        sums.append(_panel_sums(terms, half[c]))
    if len(sums) == 1:
        return sums[0]
    main, err = zip(*sums)
    return np.concatenate(main, axis=-1), np.concatenate(err, axis=-1)


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:
    """f on the float array x of any shape, in one call, as a complex array
    that no caller writes, f's own array when it is complex already: an
    integrand maps a float array to an array of the same shape, and the
    array it returns is never written."""
    out = np.asarray(f(x.ravel()), dtype=complex)
    if out.shape != (x.size,):
        raise ValueError("an integrand must map a float array to an array of "
                         f"the same shape; got shape {out.shape} for {(x.size,)}")
    return out.reshape(x.shape)


def _envelope_at(envelope: Callable, X: float) -> float:
    """envelope(X) as a float: an envelope maps a float to one real value, a
    scalar or an array of shape (1,); anything else raises ValueError."""
    value = np.asarray(envelope(X))
    if value.shape not in ((), (1,)) or value.dtype.kind not in "biuf":
        raise ValueError("an envelope must map a float to one real value, a "
                         "scalar or an array of shape (1,); got shape "
                         f"{value.shape} of dtype {value.dtype} at X = {X}")
    return float(value.reshape(()))


def _magnitudes(f: Callable, ends) -> list:
    """For each X of `ends`, max |f| over 48 points of [1e-3, X], rounded up
    to a power of 2 so envelope jitter cannot reshuffle the mesh; inf when f
    is inf or NaN at any of them.  f is called once, on every X's points."""
    grids = np.concatenate([np.linspace(1e-3, X, 48) for X in ends])
    peaks = np.abs(_evaluate(f, grids)).reshape(len(ends), 48).max(axis=1)
    return [math.inf if not m < math.inf else
            0.0 if m <= 0 else 2.0 ** math.ceil(math.log2(m))
            for m in map(float, peaks)]


def _checked_radius(radius) -> float:
    """A support radius as a float; ValueError unless it is finite and >= 0."""
    if not 0 <= radius < math.inf:
        raise ValueError(f"support_radius must be finite and >= 0, got {radius}")
    return float(radius)


def _truncation_points(f: Callable, cfg: QuadConfig, envelope: Optional[Callable],
                       support_radius: Optional[float]) -> list:
    """(X, allowance for the damped tail beyond X) for each eps of cfg's
    schedule: the support radius; else the least X = 10 * 1.25^j (j <= 60)
    with envelope(X) exp(-eps X^2) (1 + X) below abs_tol / 10; else a bound
    on |f| from `_magnitudes` in two rounds of one call of f each: the
    first, on [1e-3, 10], serves every eps, and the second takes each eps's
    points on [1e-3, X] for the X the first round gives it.  A first round
    that finds f zero or inf or NaN makes no second.  The eps decrease, so
    the tail at a probe never shrinks from one eps to the next: each eps's
    envelope search continues from the probe where the previous one
    stopped, and each probe is evaluated once for the whole schedule.  A
    search that finds the envelope NaN or negative ends at that probe, and
    a round that finds f inf or NaN at an eps's own interval, either with an
    infinite allowance."""
    floor = cfg.abs_tol / 10.0
    schedule = cfg.epsilon_schedule
    if support_radius is not None:
        return [(_checked_radius(support_radius), 0.0)] * len(schedule)

    def reach(m, eps):
        return math.sqrt(max(math.log(10.0 * m / floor), 1.0) / eps)

    points = []
    if envelope is not None:
        X, j, env = 10.0, 0, _envelope_at(envelope, 10.0)
        for eps in schedule:
            tail = env * math.exp(-eps * X * X) * (1.0 + X)
            while tail > floor and j < 60:
                X, j = X * 1.25, j + 1
                env = _envelope_at(envelope, X)
                tail = env * math.exp(-eps * X * X) * (1.0 + X)
            # a NaN or negative tail has no bound: integrate up to this
            # probe, with an unbounded allowance, so the result is not converged
            points.append((X, tail if tail >= 0.0 else math.inf))
        return points
    [m0] = _magnitudes(f, [10.0])
    ends, ms = [10.0] * len(schedule), [m0] * len(schedule)
    if 0.0 < m0 < math.inf:
        ends = [reach(m0, eps) for eps in schedule]
        ms = _magnitudes(f, ends)
    for eps, end, m in zip(schedule, ends, ms):
        if m == math.inf:
            # no bound on |f|: integrate up to the probe that found it, with
            # an unbounded tail, so the result is not converged
            points.append((end, math.inf))
        else:
            points.append((reach(m, eps) if m != 0.0 else 10.0, floor))
    return points


def integrate_semiinfinite_damped(f: Callable, cfg: QuadConfig,
                                  envelope: Optional[Callable] = None,
                                  support_radius: Optional[float] = None,
                                  osc_scale: float = 1.0,
                                  quad_phase: float = 1.0) -> QuadResult:
    """Damped semi-infinite integral of f with extrapolation eps -> 0.

    f is called at most three times: at most two probe calls place the
    truncation points (none with an envelope or a support radius), and one
    call evaluates the nodes of every mesh.  For an f whose value at a
    point depends on that point alone, the result is the same, to the last
    bit, as with a mesh walked and f called for each eps; an f that skips
    its work on a call where it vanishes everywhere may differ from that at
    its zeros (see the module docstring).

    Parameters
    ----------
    f : callable
        Integrand: maps a float array of points to an array of the same
        shape (real or complex values), each value depending on its own
        point alone; anything else raises ValueError.
    cfg : QuadConfig
        Supplies the eps schedule, tolerances and extrapolation order.
    envelope : callable, optional
        Upper bound on |f| used to place the truncation point: maps a float
        X to one real value, a scalar or an array of shape (1,); anything
        else raises ValueError before f is called.  A NaN or negative value
        ends the search there with an infinite allowance, so the result is
        not converged.
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
    Xs, tails = zip(*_truncation_points(f, cfg, envelope, support_radius))
    eps = np.array(cfg.epsilon_schedule)
    # the eps of each distinct X, in X order, the order of the table's own panels
    by_X = {X: [i for i, x in enumerate(Xs) if x == X] for X in sorted(set(Xs))}
    wide = _mesh(max(Xs), osc_scale, quad_phase)
    # each mesh: the number of leading panels it shares with the widest,
    # node for node, and the (a, b) edges of the panels of its own (none
    # for the widest)
    meshes = {X: _mesh_below(wide, X, osc_scale, quad_phase) for X in by_X}
    # one panel table: the widest mesh's panels, then every narrower mesh's
    # own in X order; f is called once, on all of its nodes
    table = np.concatenate([np.stack((wide[:-1], wide[1:]), axis=-1)]
                           + [own for _, own in meshes.values()])
    nodes, half = _panel_nodes(table, _RULE_X)
    nodes, half = nodes[:, 0], half[:, 0]
    values = _evaluate(f, nodes)
    n_wide = len(wide) - 1
    # own panels count once per eps, as when each eps called f on its own
    evals = _RULE_X.size * (n_wide + sum(len(own) * len(by_X[X])
                                         for X, (_, own) in meshes.items()))
    main_sums, panel_errs = np.empty(len(Xs), dtype=complex), np.empty(len(Xs))
    start = n_wide
    for X, rows in by_X.items():
        # the k panels it shares with the widest, then its own, summed
        # from the table in chunks: only per-panel sums are joined
        k, own = meshes[X]
        parts = (slice(0, k), slice(start, start + len(own)))
        start += len(own)
        p_main, p_err = _damped_sums(eps[rows], nodes, half, values, parts)
        main_sums[rows] = p_main.sum(axis=-1)
        panel_errs[rows] = np.abs(p_main - p_err).sum(axis=-1)
    samples = list(zip(cfg.epsilon_schedule, main_sums))
    # in schedule order from 0.0, as a running max over the eps would take it
    quad_err = max([0.0] + panel_errs.tolist())
    value, resid = extrapolate_to_zero(samples, cfg.extrapolation_order)
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
    endpoints are never evaluated.  f is called once, on every node.  The
    error estimate is 4 sum |G24 - G12| over the panels.
    """
    if not a < b:
        raise ValueError("integrate_finite requires a < b")
    h = 0.5 * (b - a)
    half = _mesh(h, 1.0, 0.0)

    def offsets(end):
        return half[(half == 0.0) | (half >= min(2.0 ** -40 * abs(end), h))]

    edges = np.concatenate([a + offsets(a), (b - offsets(b))[-2::-1]])
    nodes, hw = _panel_nodes(edges, _RULE_X)
    p_main, p_err = _panel_sums(_evaluate(f, nodes) * _RULE_W, hw)
    return _finish(p_main.sum(), 4.0 * float(np.abs(p_main - p_err).sum()), nodes.size, cfg)


# --------------------------------------------------------------------------
# extrapolation


def extrapolate_to_zero(samples: Sequence, order: int):
    """Polynomial extrapolation of (eps, value) samples to eps = 0.

    Uses the order+1 samples with the smallest eps, in one Neville tableau
    at 0; the residual is the change from the order-1 extrapolant, which
    the tableau holds before its last step.  At order 0 it is the change to
    the next sample, or inf when there is none, so a one-value schedule is
    never converged.  Returns (value, residual).  An order that is not a
    nonnegative integer, too few samples, and a non-finite or repeated eps
    raise ValueError, as QuadConfig does for its fields.
    """
    pts = sorted(((float(e), complex(v)) for e, v in samples), key=lambda p: p[0])
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError("order must be an integer")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if len(pts) < order + 1:
        raise ValueError("need at least order+1 samples")
    xs = [p[0] for p in pts]
    if not all(math.isfinite(x) for x in xs):
        raise ValueError("the samples' eps must be finite")
    if any(x1 == x2 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError("duplicate eps in samples")
    x = np.array(xs[: order + 1])
    t = np.array([p[1] for p in pts[: order + 1]], dtype=complex)
    # order 0 compares with the next sample, and bounds nothing without one
    prev = pts[1][1] if len(pts) > 1 else math.inf
    # exact when the samples are constant; t[0] before a step is one order lower
    for m in range(1, order + 1):
        prev = complex(t[0])
        for i in range(order + 1 - m):
            t[i] = t[i] - x[i] * (t[i] - t[i + 1]) / (x[i] - x[i + m])
    value = complex(t[0])
    return value, float(abs(value - prev))
