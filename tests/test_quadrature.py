"""Quadrature engine: finite integrals, damped semi-infinite integrals,
extrapolation to zero damping."""

import math
import warnings

import numpy as np
import pytest

from lorentzft.quadrature import (
    QuadConfig,
    QuadResult,
    _CASCADE,
    _GL_ERR,
    _GL_MAIN,
    _MAX_PANELS,
    _finish,
    _gauss_legendre,
    _magnitude_probe,
    _mesh,
    _truncation_point,
    extrapolate_to_zero,
    integrate_finite,
    integrate_semiinfinite_damped,
)
from lorentzft.specfun import Order, bessel_n

CFG = QuadConfig()

# each engine as a function of its integrand alone
_ENGINES = [
    pytest.param(lambda f: integrate_finite(f, 0.0, 1.0, CFG), id="finite"),
    pytest.param(lambda f: integrate_semiinfinite_damped(f, CFG), id="damped"),
]


class TestConfigValidation:
    def test_defaults(self):
        cfg = QuadConfig()
        assert cfg.epsilon_schedule == tuple(0.1 * 2.0 ** (-j) for j in range(6))
        assert cfg.extrapolation_order == 3

    def test_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadConfig(rel_tol=-1.0)

    def test_bad_schedule(self):
        with pytest.raises(ValueError):
            QuadConfig(epsilon_schedule=(0.1, 0.2))
        with pytest.raises(ValueError):
            QuadConfig(epsilon_schedule=(0.1, -0.05))
        with pytest.raises(ValueError):
            QuadConfig(epsilon_schedule=())

    def test_bad_order(self):
        with pytest.raises(ValueError):
            QuadConfig(epsilon_schedule=(0.1, 0.05), extrapolation_order=2)

    def test_result_invariant(self):
        with pytest.raises(ValueError):
            QuadResult(1.0, -1e-3, True, 10)


class TestFinite:
    def test_constant(self):
        res = integrate_finite(np.ones_like, 0.0, 1.0, CFG)
        assert res.converged
        assert abs(res.value - 1.0) < 1e-12

    def test_x_sin_two_pi_x(self):
        # integration by parts: int_0^1 x sin(2 pi x) dx = -1/(2 pi)
        res = integrate_finite(lambda x: x * np.sin(2 * math.pi * x), 0.0, 1.0, CFG)
        assert res.converged
        assert abs(res.value + 1.0 / (2 * math.pi)) < 1e-11

    def test_log_endpoint_singularity(self):
        res = integrate_finite(np.log, 0.0, 1.0, CFG)
        assert res.converged
        assert abs(res.value + 1.0) < 1e-9

    def test_complex_integrand(self):
        res = integrate_finite(lambda x: np.exp(1j * x), 0.0, math.pi, CFG)
        assert abs(res.value - (math.sin(math.pi) + 1j * (1 - math.cos(math.pi)))) < 1e-10

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda x: x, 1.0, 0.0, CFG)

    # a cascade toward a nonzero endpoint e stops 2^-40 |e| short of it, which
    # limits an inverse square root there; toward 0 it runs its full depth
    @pytest.mark.parametrize("f, a, b, exact, tol", [
        (lambda x: np.log(x - 1.0), 1.0, 2.0, -1.0, 1e-13),
        (lambda x: 1.0 / np.sqrt(3.0 - x), 2.0, 3.0, 2.0, 1e-6),
        (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0, 1e-10),
    ])
    def test_endpoint_singularity_estimate(self, f, a, b, exact, tol):
        res = integrate_finite(f, a, b, CFG)
        assert res.error_estimate >= abs(res.value - exact)
        assert abs(res.value - exact) < tol

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (2.0, 3.0),
                                      (-math.pi / 2.0, math.pi / 2.0)])
    def test_nodes_strictly_inside(self, a, b):
        received = []

        def f(x):
            x = np.asarray(x, dtype=float)
            received.append(x.ravel())
            return np.cos(x)

        res = integrate_finite(f, a, b, CFG)
        nodes = np.concatenate(received)
        assert nodes.size == res.evaluations
        assert np.all((a < nodes) & (nodes < b))
        assert abs(res.value - (math.sin(b) - math.sin(a))) < 1e-12


class TestIntegrandContract:
    """An integrand maps a float array to an array of the same shape."""

    def test_one_call_per_rule(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return bessel_n(Order(0), x - 1.0)

        res = integrate_finite(f, 2.0, 3.0, CFG)
        assert len(sizes) == 2
        assert sum(sizes) == res.evaluations

    def test_no_point_outside_the_interval(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = integrate_finite(lambda x: np.log(x - 1.0), 1.0, 2.0, CFG)
        assert abs(res.value + 1.0) < 1e-13

    @pytest.mark.parametrize("integrate", _ENGINES)
    def test_scalar_callable_rejected(self, integrate):
        with pytest.raises(ValueError, match="same shape"):
            integrate(lambda x: 1.0)

    @pytest.mark.parametrize("integrate", _ENGINES)
    def test_integrand_exception_propagates(self, integrate):
        def f(x):
            raise TypeError("from the integrand")

        with pytest.raises(TypeError, match="from the integrand"):
            integrate(f)


class TestMesh:
    @pytest.mark.parametrize("X, osc_scale, quad_phase", [
        (5e6, 1.0, 0.0),      # linear-phase panels alone
        (2e3, 40.0, 1.0),     # both phases
        (300.0, 0.0, 1.0),    # quadratic-phase panels alone
    ])
    def test_panel_budget(self, X, osc_scale, quad_phase):
        edges = _mesh(X, osc_scale, quad_phase)
        assert len(edges) - 1 <= _MAX_PANELS
        assert edges[-1] == X
        assert np.all(np.diff(edges) > 0)


class TestDampedSemiInfinite:
    def test_absolutely_convergent(self):
        # int_0^inf x exp(-x^2) dx = 1/2, damping is irrelevant
        res = integrate_semiinfinite_damped(lambda x: x * np.exp(-x * x), CFG,
                                            envelope=lambda x: np.exp(-0.5 * np.asarray(x) ** 2))
        assert res.converged
        assert abs(res.value - 0.5) < 1e-8
        assert abs(res.value - 0.5) <= res.error_estimate

    def test_fresnel_type(self):
        # int_0^inf x exp(i x^2) dx -> i/2 under the damped prescription
        res = integrate_semiinfinite_damped(lambda x: x * np.exp(1j * x * x), CFG,
                                            quad_phase=1.0)
        assert abs(res.value - 0.5j) < 1e-7

    def test_abel_sin(self):
        # Abel-regularized int_0^inf sin = 1; accuracy limited by the
        # epsilon-series of the endpoint contribution under the default schedule
        res = integrate_semiinfinite_damped(np.sin, CFG, osc_scale=1.0, quad_phase=0.0)
        assert abs(res.value - 1.0) < 2e-4
        assert res.error_estimate >= abs(res.value - 1.0)

    def test_support_radius(self):
        res = integrate_semiinfinite_damped(
            lambda x: np.where(np.asarray(x) < 2.0, np.asarray(x), 0.0), CFG,
            support_radius=2.0, quad_phase=0.0)
        assert res.converged
        assert abs(res.value - 2.0) < 1e-6
        assert abs(res.value - 2.0) <= res.error_estimate

    def test_zero_integrand(self):
        res = integrate_semiinfinite_damped(lambda x: np.zeros_like(np.asarray(x)), CFG)
        assert res.converged
        assert res.value == 0.0


class TestDampedInvariants:
    def test_linearity(self):
        f = lambda x: np.exp(-np.asarray(x) ** 2)
        g = lambda x: np.asarray(x) * np.exp(-np.asarray(x) ** 2)
        a, b = 2.0, -3.0
        r_f = integrate_semiinfinite_damped(f, CFG)
        r_g = integrate_semiinfinite_damped(g, CFG)
        r_c = integrate_semiinfinite_damped(lambda x: a * f(x) + b * g(x), CFG)
        combined_err = abs(a) * r_f.error_estimate + abs(b) * r_g.error_estimate \
            + r_c.error_estimate + 1e-12
        assert abs(r_c.value - (a * r_f.value + b * r_g.value)) <= combined_err

    def test_damping_monotonicity_nonnegative(self):
        # for f >= 0 the damped integral decreases with the damping strength
        f = lambda x: 1.0 / (1.0 + np.asarray(x) ** 2)
        vals = []
        for eps in (0.1, 0.05, 0.025):
            cfg = QuadConfig(epsilon_schedule=(eps,), extrapolation_order=0)
            vals.append(integrate_semiinfinite_damped(f, cfg, quad_phase=0.0).value.real)
        assert vals[0] <= vals[1] <= vals[2]

    def test_matches_finite_for_absolutely_convergent(self):
        f = lambda x: np.exp(-np.asarray(x, dtype=float))
        damped = integrate_semiinfinite_damped(f, CFG, quad_phase=0.0,
                                               envelope=lambda x: np.exp(-0.9 * np.asarray(x)))
        finite = integrate_finite(lambda x: np.exp(-x), 0.0, 60.0, CFG)
        assert abs(damped.value - finite.value) <= \
            10 * (damped.error_estimate + finite.error_estimate) + 1e-9


class TestExtrapolation:
    def test_affine_exact(self):
        samples = [(e, 3.0 + 2.0 * e) for e in (0.1, 0.05, 0.025)]
        value, resid = extrapolate_to_zero(samples, 1)
        assert abs(value - 3.0) < 1e-14

    def test_rational_sample(self):
        # v(eps) = 1/(1+eps); the quadratic through eps = .1, .05, .025
        # extrapolates to 0.9998944145285614 (off the limit by 1.0558e-4)
        samples = [(e, 1.0 / (1.0 + e)) for e in (0.1, 0.05, 0.025)]
        value, _ = extrapolate_to_zero(samples, 2)
        assert abs(value - 0.9998944145285614) < 1e-13
        assert abs(value - 1.0) < 1.1e-4

    def test_constant_samples(self):
        samples = [(e, 7.25) for e in (0.1, 0.05, 0.025, 0.0125)]
        value, resid = extrapolate_to_zero(samples, 2)
        assert value == 7.25
        assert resid == 0.0

    def test_duplicate_eps_rejected(self):
        with pytest.raises(ValueError):
            extrapolate_to_zero([(0.1, 1.0), (0.1, 2.0)], 1)

    def test_insufficient_samples(self):
        with pytest.raises(ValueError):
            extrapolate_to_zero([(0.1, 1.0), (0.05, 1.1)], 2)

    def test_uses_smallest_eps(self):
        # order 1 through the two smallest samples: line through (.025, 1.025),
        # (.0125, 1.0125) hits 1 at eps = 0
        samples = [(0.1, 5.0), (0.025, 1.025), (0.0125, 1.0125)]
        value, _ = extrapolate_to_zero(samples, 1)
        assert abs(value - 1.0) < 1e-13


# --------------------------------------------------------------------------
# one evaluation per panel across the eps schedule


def _per_eps_damped(f, cfg, envelope=None, support_radius=None, osc_scale=1.0,
                    quad_phase=1.0):
    """Reference: the damped integral with the mesh built and f evaluated
    afresh for every eps (the loop the shared-mesh engine replaced)."""
    fv = lambda x: np.asarray(f(x), dtype=complex)
    x_main, w_main = _gauss_legendre(_GL_MAIN)
    x_err, w_err = _gauss_legendre(_GL_ERR)
    samples = []
    quad_err = 0.0
    trunc_err = 0.0
    evals = 0
    for eps in cfg.epsilon_schedule:
        X, _ = _truncation_point(_magnitude_probe(fv), eps, cfg, envelope, support_radius)
        edges = _mesh(X, osc_scale, quad_phase)
        a, b = edges[:-1], edges[1:]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        n_main = mid[:, None] + half[:, None] * x_main[None, :]
        n_err = mid[:, None] + half[:, None] * x_err[None, :]

        def damped(nodes):
            return fv(nodes.ravel()).reshape(nodes.shape) * \
                np.exp(-eps * nodes * nodes)

        p_main = (damped(n_main) * w_main[None, :]).sum(axis=1) * half
        p_err = (damped(n_err) * w_err[None, :]).sum(axis=1) * half
        evals += n_main.size + n_err.size
        samples.append((eps, complex(p_main.sum())))
        quad_err = max(quad_err, float(np.abs(p_main - p_err).sum()))
        if support_radius is None:
            env_X = float(envelope(X)) if envelope is not None else 0.0
            trunc_err = max(trunc_err, env_X * math.exp(-eps * X * X) * (1.0 + X)
                            if envelope is not None else cfg.abs_tol / 10.0)
    order = min(cfg.extrapolation_order, len(samples) - 1)
    value, resid = extrapolate_to_zero(samples, order)
    return _finish(value, resid + 4.0 * quad_err + trunc_err, evals, cfg)


def _chirp(x):
    x = np.asarray(x, dtype=float)
    return np.exp(1j * x * x) * np.cos(3.0 * x) / (1.0 + x)


def _chirp_env(x):
    return 1.0 / (1.0 + np.asarray(x, dtype=float))


# (f, cfg, keyword arguments); each exercises one way the meshes relate
_SCHEDULE_CASES = {
    "chirped_envelope": (_chirp, CFG, dict(envelope=_chirp_env, quad_phase=1.0)),
    "support_radius": (
        lambda x: np.where(np.asarray(x) < 2.0,
                           np.asarray(x) * (2.0 - np.asarray(x)) * np.exp(3j * np.asarray(x)),
                           0.0),
        CFG, dict(support_radius=2.0, osc_scale=3.0, quad_phase=0.0)),
    "no_envelope": (lambda x: np.exp(1j * np.asarray(x)) / (1.0 + np.asarray(x) ** 2),
                    CFG, dict(osc_scale=1.0, quad_phase=0.0)),
    "real_envelope": (lambda x: np.cos(x) * np.exp(-0.2 * x), CFG,
                      dict(envelope=lambda x: np.exp(-0.2 * np.asarray(x)),
                           quad_phase=0.0)),
    # small eps put every X past the panel budget; s1 is set by osc_scale,
    # so the walked meshes share their cascade panels
    "coarsened": (_chirp, QuadConfig(epsilon_schedule=(6e-4, 3e-4, 1.5e-4),
                                     extrapolation_order=2),
                  dict(envelope=_chirp_env, osc_scale=20.0, quad_phase=1.0)),
    "X_below_s1": (lambda x: np.exp(1j * np.asarray(x) ** 2),
                   QuadConfig(epsilon_schedule=(50.0, 10.0, 1.0, 0.1)),
                   dict(quad_phase=1.0)),
}


def _truncation_points(f, cfg, kw):
    magnitude = _magnitude_probe(f)
    return [_truncation_point(magnitude, eps, cfg, kw.get("envelope"),
                              kw.get("support_radius"))[0]
            for eps in cfg.epsilon_schedule]


class TestSharedMesh:
    @pytest.mark.parametrize("case", sorted(_SCHEDULE_CASES))
    def test_bitwise_equal_to_per_eps_evaluation(self, case):
        f, cfg, kw = _SCHEDULE_CASES[case]
        new = integrate_semiinfinite_damped(f, cfg, **kw)
        ref = _per_eps_damped(f, cfg, **kw)
        assert new.value == ref.value
        assert new.error_estimate == ref.error_estimate
        assert new.converged == ref.converged
        assert new.evaluations <= ref.evaluations

    def test_schedules_cover_each_mesh_relation(self):
        # the meshes of the cases above are compared panel by panel; these
        # two cases have meshes that are not a prefix of the widest one
        def meshes(case):
            f, cfg, kw = _SCHEDULE_CASES[case]
            Xs = _truncation_points(f, cfg, kw)
            ms = [_mesh(X, kw.get("osc_scale", 1.0), kw.get("quad_phase", 1.0))
                  for X in Xs]
            return Xs, ms, ms[int(np.argmax(Xs))]

        # a phase step coarsened differently per eps: the meshes share their
        # first panels, then part before their own last panel
        _, ms, wide = meshes("coarsened")
        for edges in ms:
            if edges is not wide:
                n_same = int(np.argmin(edges[:len(wide)] == wide[:len(edges)]))
                assert _CASCADE + 2 <= n_same < len(edges) - 1
        # a truncation point below the widest mesh's first edge s1
        Xs, _, wide = meshes("X_below_s1")
        assert min(Xs) < wide[_CASCADE + 1]

    @pytest.mark.parametrize("with_envelope", [True, False])
    def test_evaluations_count_distinct_points(self, with_envelope):
        received = []

        def f(x):
            x = np.asarray(x, dtype=float)
            received.append(x.size)
            return np.exp(1j * x * x) / (1.0 + x)

        kw = dict(envelope=_chirp_env) if with_envelope else {}
        res = integrate_semiinfinite_damped(f, CFG, quad_phase=1.0, **kw)
        # one first round on [1e-3, 10] for the schedule, one second round per eps
        truncation_probes = 0 if with_envelope else 48 + 48 * len(CFG.epsilon_schedule)
        assert sum(received) == truncation_probes + res.evaluations
        assert res.evaluations < _per_eps_damped(f, CFG, quad_phase=1.0, **kw).evaluations

    def test_compact_support_evaluates_once(self):
        f, cfg, kw = _SCHEDULE_CASES["support_radius"]
        res = integrate_semiinfinite_damped(f, cfg, **kw)
        ref = _per_eps_damped(f, cfg, **kw)
        assert res.evaluations * len(cfg.epsilon_schedule) == ref.evaluations
