"""Quadrature engine: finite integrals, damped semi-infinite integrals,
extrapolation to zero damping."""

import importlib
import math
import warnings

import numpy as np
import pytest

from lorentzft import quadrature
from lorentzft.quadrature import (
    QuadConfig,
    QuadResult,
    _CASCADE,
    _CHUNK,
    _GL_ERR,
    _GL_MAIN,
    _LIN_RAD,
    _MAX_PANELS,
    _PHASE_STEP,
    _RULE_W,
    _damped_sums,
    _finish,
    _gauss_legendre,
    _mesh,
    _mesh_below,
    _panel_nodes,
    _panel_sums,
    _truncation_points,
    _walk_start,
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

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol", "epsilon_schedule"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, bad):
        value = (0.1, bad) if field == "epsilon_schedule" else bad
        with pytest.raises(ValueError, match="finite"):
            QuadConfig(**{field: value})

    def test_bad_order(self):
        with pytest.raises(ValueError):
            QuadConfig(epsilon_schedule=(0.1, 0.05), extrapolation_order=2)
        # a non-integer order is refused here, not inside the first integral
        for order in (2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match="integer"):
                QuadConfig(extrapolation_order=order)
        assert QuadConfig(extrapolation_order=np.int64(2)).extrapolation_order == 2

    def test_bool_order_rejected(self):
        # bool is an int subclass; True would otherwise pass as order 1
        for order in (True, False):
            with pytest.raises(ValueError, match="extrapolation_order must be an integer"):
                QuadConfig(extrapolation_order=order)

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

    def test_one_call_per_mesh(self):
        sizes = []

        def recording(f):
            def g(x):
                sizes.append(x.size)
                return f(x)
            return g

        res = integrate_finite(recording(lambda x: bessel_n(Order(0), x - 1.0)),
                               2.0, 3.0, CFG)
        assert sizes == [res.evaluations]

        f, cfg, kw = _SCHEDULE_CASES["support_radius"]
        sizes.clear()
        res = integrate_semiinfinite_damped(recording(f), cfg, **kw)
        assert sizes == [res.evaluations]

        # one call: the widest mesh's nodes, then the nodes of the panels of
        # their own of every narrower mesh, in X order
        f, cfg, kw = _SCHEDULE_CASES["chirped_envelope"]
        Xs = sorted(set(_truncation_Xs(f, cfg, kw)))
        wide = _mesh(Xs[-1], 1.0, 1.0)
        expected, own = [_panel_nodes(wide, quadrature._RULE_X)[0].ravel()], []
        for X in Xs[:-1]:
            edges = _mesh(X, 1.0, 1.0)
            m = min(len(edges), len(wide))
            differ = np.flatnonzero(edges[:m] != wide[:m])
            # a panel is shared when both of its edges are the widest mesh's
            k = (differ[0] if len(differ) else m) - 1
            own.append(len(edges) - 1 - k)
            expected.append(_panel_nodes(edges[k:], quadrature._RULE_X)[0].ravel())
        points = []
        res = integrate_semiinfinite_damped(lambda x: points.append(x.copy()) or f(x),
                                            cfg, **kw)
        # several narrower meshes, each with a panel of its own
        assert len(own) > 1 and all(n > 0 for n in own)
        assert len(points) == 1
        assert np.array_equal(points[0], np.concatenate(expected))
        assert points[0].size == res.evaluations

    def test_no_point_outside_the_interval(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = integrate_finite(lambda x: np.log(x - 1.0), 1.0, 2.0, CFG)
        assert abs(res.value + 1.0) < 1e-13

    @pytest.mark.parametrize("integrate", _ENGINES)
    def test_scalar_callable_rejected(self, integrate):
        with pytest.raises(ValueError, match="same shape"):
            integrate(lambda x: 1.0)

    def test_returned_array_is_never_written(self):
        # the engine reads f's array in place on every mesh relation of the
        # schedule cases, and on one eps of the widest mesh alone, without
        # writing it: f may return a read-only array or keep the one it
        # returned, and the result is the plain integrand's
        envelope = lambda x: 1.0 / (1.0 + np.asarray(x))

        def cos_over(x):
            return np.cos(3.0 * x) / (1.0 + x) + 0j

        one_eps = QuadConfig(epsilon_schedule=(0.1,), extrapolation_order=0)
        assert len(set(_truncation_Xs(cos_over, one_eps, dict(envelope=envelope)))) == 1
        cases = dict(_SCHEDULE_CASES, cos_over=(cos_over, CFG, dict(envelope=envelope)),
                     one_eps=(cos_over, one_eps, dict(envelope=envelope)))
        for case, (f, cfg, kw) in sorted(cases.items()):
            def owned(x):
                # complex already, so the engine takes the array as it is
                return np.array(f(x), dtype=complex)

            def read_only(x):
                out = owned(x)
                out.flags.writeable = False
                return out

            kept = []

            def keeping(x):
                out = owned(x)
                kept.append((out, out.copy()))
                return out

            expected = integrate_semiinfinite_damped(f, cfg, **kw)
            assert integrate_semiinfinite_damped(read_only, cfg, **kw) == expected, case
            assert integrate_semiinfinite_damped(keeping, cfg, **kw) == expected, case
            assert kept and all(np.array_equal(out, copy) for out, copy in kept), case
        assert abs(integrate_semiinfinite_damped(cos_over, CFG, envelope=envelope).value
                   - 0.0792215) < 1e-7

    @pytest.mark.parametrize("integrate", _ENGINES)
    def test_integrand_exception_propagates(self, integrate):
        def f(x):
            raise TypeError("from the integrand")

        with pytest.raises(TypeError, match="from the integrand"):
            integrate(f)


class TestEnvelopeContract:
    """An envelope maps a float to one real value: a scalar or an array of
    shape (1,)."""

    @pytest.mark.parametrize("value", [np.array([1.0, 2.0]), np.array([[0.5]]), 1j],
                             ids=["two-values", "one-by-one", "complex"])
    def test_wrong_value_raises_before_any_call(self, value):
        calls = []

        def f(x):
            calls.append(x)
            return np.exp(-x)

        with pytest.raises(ValueError, match="an envelope must map a float to one real value"):
            integrate_semiinfinite_damped(f, CFG, envelope=lambda x: value)
        assert calls == []

    def test_one_element_array_equals_zero_d(self):
        f = lambda x: np.cos(3.0 * x) / (1.0 + x)
        expected = integrate_semiinfinite_damped(
            f, CFG, envelope=lambda x: np.array(1.0 / (1.0 + x)))
        assert integrate_semiinfinite_damped(
            f, CFG, envelope=lambda x: np.array([1.0 / (1.0 + x)])) == expected

    @pytest.mark.parametrize("kind", [int, np.float32, np.float64, np.array,
                                      lambda v: np.array([v])],
                             ids=["int", "float32", "float64", "zero-d", "one-element"])
    def test_valid_values_read_as_float(self, kind):
        # 5e5 decays below the floor at a probe past the first for every eps
        f = lambda x: np.exp(-x)
        expected = integrate_semiinfinite_damped(f, CFG, envelope=lambda x: 5e5)
        assert integrate_semiinfinite_damped(
            f, CFG, envelope=lambda x: kind(500000)) == expected


def _walk_by_cases(X, osc_scale, quad_phase):
    """Reference: the mesh walk with one branch per step on quad_phase (the
    loop the one-statement walk of `_mesh` replaced), for finite X."""
    if X <= 0:
        return np.array([0.0])
    budget = _MAX_PANELS - _CASCADE - 2
    est = quad_phase * X * X / _PHASE_STEP + osc_scale * X / _LIN_RAD
    widen = est / budget if est > budget else 1.0
    delta = _PHASE_STEP * widen
    w_lin = _LIN_RAD / osc_scale if osc_scale > 0 else X
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


def _mesh_cases():
    rng = np.random.default_rng(2024)
    cases = [(5e6, 1.0, 0.0), (2e3, 40.0, 1.0), (300.0, 0.0, 1.0),  # over budget
             (0.5, 1.0, 0.0), (0.5, 1.0, 1.0), (3.0, 0.0, 0.0),     # X below 6/osc
             (0.0, 1.0, 1.0), (-2.0, 1.0, 0.0), (1e-300, 1.0, 1.0)]
    for _ in range(300):
        X = 10.0 ** rng.uniform(-3.0, 2.5)
        osc_scale = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-2.0, 2.0)
        quad_phase = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3.0, 1.0)
        cases.append((X, osc_scale, quad_phase))
    return cases


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

    def test_same_edges_as_the_walk_by_cases(self):
        over_budget = 0
        for X, osc_scale, quad_phase in _mesh_cases():
            edges = _mesh(X, osc_scale, quad_phase)
            assert np.array_equal(edges, _walk_by_cases(X, osc_scale, quad_phase)), \
                (X, osc_scale, quad_phase)
            # a mesh the budget widened ends close to the budget
            over_budget += len(edges) - 1 > 0.99 * _MAX_PANELS
        assert over_budget >= 3

    @pytest.mark.parametrize("X", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("quad_phase", [0.0, 1.0])
    def test_non_finite_end_raises(self, X, quad_phase):
        with pytest.raises(ValueError, match="finite"):
            _mesh(X, 1.0, quad_phase)

    def test_infinite_finite_interval_raises(self):
        with pytest.raises(ValueError, match="finite"):
            integrate_finite(lambda x: np.exp(-x), 0.0, math.inf, CFG)

    def test_stacked_panel_nodes_equal_row_by_row(self):
        # a (rows, 3) edge array: two panels a row, as the oracle's
        # transverse table lays them
        rng = np.random.default_rng(3)
        edges = np.sort(rng.uniform(0.0, 5.0, (40, 3)), axis=1)
        edges[:5] = 0.0                 # zero-width panels
        x, _ = _gauss_legendre(24)
        nodes, half = _panel_nodes(edges, x)
        assert nodes.shape == (40, 2, 24) and half.shape == (40, 2)
        for row, row_nodes, row_half in zip(edges, nodes, half):
            ref_nodes, ref_half = _panel_nodes(row, x)
            assert np.array_equal(row_nodes, ref_nodes)
            assert np.array_equal(row_half, ref_half)


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

    @pytest.mark.parametrize("radius", [-1.0, math.inf, math.nan])
    def test_bad_support_radius_raises_before_any_call(self, radius):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.ones_like(x)

        with pytest.raises(ValueError, match="support_radius"):
            integrate_semiinfinite_damped(f, CFG, support_radius=radius)
        assert calls == []

    def test_zero_integrand(self):
        res = integrate_semiinfinite_damped(lambda x: np.zeros_like(np.asarray(x)), CFG)
        assert res.converged
        assert res.value == 0.0

    _NON_FINITE = pytest.mark.parametrize("f", [
        lambda x: np.where((x > 4.0) & (x < 6.0), np.inf, np.exp(-x)),
        lambda x: np.where((x > 4.0) & (x < 6.0), np.nan, np.exp(-x)),
        lambda x: np.where(x > 20.0, np.nan, np.exp(-x)),
    ], ids=["inf-before-10", "nan-before-10", "nan-past-20"])

    @_NON_FINITE
    def test_non_finite_integrand_without_envelope(self, f):
        # the truncation probes see the inf or NaN; the result is NaN and
        # not converged, as with an envelope
        res = integrate_semiinfinite_damped(f, CFG, quad_phase=0.0)
        assert math.isnan(res.value.real)
        assert not res.converged

    @_NON_FINITE
    def test_non_finite_integrand_with_envelope(self, f):
        # damping an inf value gives NaN, with no warning to raise under the
        # suite's warnings-as-errors
        res = integrate_semiinfinite_damped(f, CFG, envelope=lambda x: np.exp(-0.5 * x),
                                            quad_phase=0.0)
        assert math.isnan(res.value.real)
        assert not res.converged

    def test_nan_envelope_ends_the_search(self):
        # the search stops at the first probe past x = 30 with an unbounded
        # tail allowance, instead of running to 10 * 1.25^60 and dropping it
        cfg = QuadConfig(abs_tol=1e-2, rel_tol=1e-2)
        res = integrate_semiinfinite_damped(
            lambda x: np.exp(-x), cfg, envelope=lambda x: np.where(x > 30.0, np.nan, 1.0),
            quad_phase=0.0)
        assert res.error_estimate == math.inf
        assert not res.converged
        assert res.evaluations < 10_000


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

    @pytest.mark.parametrize("order", [1.5, 1.0, "1", None])
    def test_non_integer_order_rejected(self, order):
        samples = [(e, 1.0 + e) for e in (0.1, 0.05, 0.025)]
        with pytest.raises(ValueError, match="order must be an integer"):
            extrapolate_to_zero(samples, order)

    def test_bool_order_rejected(self):
        # bool is an int subclass; True would otherwise pass as order 1
        samples = [(e, 1.0 + e * e) for e in (0.1, 0.05, 0.025)]
        for order in (True, False):
            with pytest.raises(ValueError, match="order must be an integer"):
                extrapolate_to_zero(samples, order)
        assert extrapolate_to_zero(samples, np.int64(1)) == extrapolate_to_zero(samples, 1)

    def test_negative_order_rejected(self):
        samples = [(e, 1.0 + e) for e in (0.1, 0.05, 0.025)]
        with pytest.raises(ValueError, match="order must be nonnegative"):
            extrapolate_to_zero(samples, -1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, bad):
        samples = [(0.1, 1.0), (bad, 2.0), (0.025, 1.5)]
        with pytest.raises(ValueError, match="eps must be finite"):
            extrapolate_to_zero(samples, 1)

    def test_uses_smallest_eps(self):
        # order 1 through the two smallest samples: line through (.025, 1.025),
        # (.0125, 1.0125) hits 1 at eps = 0
        samples = [(0.1, 5.0), (0.025, 1.025), (0.0125, 1.0125)]
        value, _ = extrapolate_to_zero(samples, 1)
        assert abs(value - 1.0) < 1e-13

    def test_one_tableau_equals_two_passes(self):
        # value and residual, bit for bit, as two Neville passes give them
        rng = np.random.default_rng(23)
        for _ in range(3000):
            order = int(rng.integers(9))
            eps = _random_eps(rng, max(order + 1, 2) + int(rng.integers(3)))
            values = 10.0 ** rng.uniform(-10.0, 3.0, len(eps)) \
                * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(eps)))
            samples = list(zip(eps, values))
            rng.shuffle(samples)
            got = extrapolate_to_zero(samples, order)
            assert got == _two_pass_extrapolation(samples, order)
            assert math.isfinite(got[1])

    def test_one_sample_is_unbounded(self):
        assert extrapolate_to_zero([(0.1, 1.0)], 0) == (1.0, math.inf)


def _random_eps(rng, terms):
    """`terms` distinct eps in (1e-6, 1]: halving, arbitrary, or a run of
    one-ulp neighbours."""
    eps0 = 10.0 ** rng.uniform(-6.0, 0.0)
    kind = rng.integers(3)
    if kind == 0:
        return [eps0 * 2.0 ** (-j) for j in range(terms)]
    if kind == 1:
        eps = set()
        while len(eps) < terms:
            eps.add(10.0 ** rng.uniform(-6.0, 0.0))
        return list(eps)
    eps = [eps0]
    while len(eps) < terms:
        eps.append(float(np.nextafter(eps[-1], 0.0)))
    return eps


def _two_pass_extrapolation(samples, order):
    """Reference: Neville's scheme run on the order+1 and the order smallest
    eps, the residual their difference; at order 0 the change to the next
    sample (the samples hold at least two)."""
    pts = sorted(((float(e), complex(v)) for e, v in samples), key=lambda p: p[0])

    def neville(points):
        x = np.array([p[0] for p in points])
        t = np.array([p[1] for p in points], dtype=complex)
        for m in range(1, len(x)):
            for i in range(len(x) - m):
                t[i] = t[i] - x[i] * (t[i] - t[i + 1]) / (x[i] - x[i + m])
        return complex(t[0])

    value = neville(pts[: order + 1])
    if order == 0:
        return value, float(abs(value - pts[1][1]))
    return value, float(abs(value - neville(pts[:order])))


class TestUnboundedError:
    """An error the engine cannot bound is reported as infinite: the result
    keeps its value and is not converged."""

    def test_one_value_schedule(self):
        # the value is the smallest-eps sample of a longer schedule
        f = lambda x: np.exp(-np.asarray(x)) * np.cos(2.0 * np.asarray(x))
        env = lambda x: np.exp(-np.asarray(x))
        for kw in ({}, {"envelope": env}, {"support_radius": 3.0}):
            one = integrate_semiinfinite_damped(
                f, QuadConfig(epsilon_schedule=(0.05,), extrapolation_order=0),
                quad_phase=0.0, **kw)
            two = integrate_semiinfinite_damped(
                f, QuadConfig(epsilon_schedule=(0.1, 0.05), extrapolation_order=0),
                quad_phase=0.0, **kw)
            assert one.error_estimate == math.inf
            assert not one.converged
            assert one.value == two.value
            assert two.error_estimate < math.inf

    @pytest.mark.parametrize("envelope", [
        lambda x: -1.0 / (1.0 + x), lambda x: -1000.0,
    ], ids=["decaying", "constant"])
    def test_negative_envelope(self, envelope):
        f = lambda x: np.cos(3.0 * x) / (1.0 + x)
        res = integrate_semiinfinite_damped(f, CFG, envelope=envelope,
                                            osc_scale=3.0, quad_phase=0.0)
        assert res.error_estimate == math.inf
        assert not res.converged
        # the search ends at its first probe, x = 10
        assert res == integrate_semiinfinite_damped(
            f, CFG, envelope=lambda x: np.where(x > 1.0, np.nan, 1.0),
            osc_scale=3.0, quad_phase=0.0)


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
    for eps, (X, _) in zip(cfg.epsilon_schedule,
                           _truncation_points(fv, cfg, envelope, support_radius)):
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
    # the two largest eps stop at the same X, below the widest one: one
    # mesh that is not the widest serves two eps
    "shared_inner_mesh": (_chirp, QuadConfig(epsilon_schedule=(0.1, 0.095, 0.05, 0.025)),
                          dict(envelope=_chirp_env, quad_phase=1.0)),
    # an envelope below the floor at the first probe: every eps stops at
    # X = 10 and shares one mesh, with no support radius
    "fast_envelope": (lambda x: np.exp(-0.5 * x * x + 2j * x), CFG,
                      dict(envelope=lambda x: np.exp(-0.5 * np.asarray(x) ** 2),
                           osc_scale=2.0, quad_phase=0.0)),
}


def _truncation_Xs(f, cfg, kw):
    return [X for X, _ in _truncation_points(f, cfg, kw.get("envelope"),
                                             kw.get("support_radius"))]


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
            Xs = _truncation_Xs(f, cfg, kw)
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
        # one truncation point for the whole schedule, from an envelope
        Xs, _, _ = meshes("fast_envelope")
        assert Xs == [10.0] * len(CFG.epsilon_schedule)
        # two eps sharing a mesh that is not the widest
        Xs, _, _ = meshes("shared_inner_mesh")
        assert Xs[0] == Xs[1] < Xs[2] < Xs[3]

    def test_shared_inner_mesh_called_once(self):
        f, cfg, kw = _SCHEDULE_CASES["shared_inner_mesh"]
        received = []

        def counting(x):
            received.append(np.size(x))
            return f(x)

        res = integrate_semiinfinite_damped(counting, cfg, **kw)
        # one call on the widest mesh and the narrower meshes' own panels
        assert len(received) == 1
        # the shared mesh's own panels count once per eps, the count a call
        # per eps would give
        assert res.evaluations == 23760
        assert sum(received) < res.evaluations

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

    @pytest.mark.parametrize("case", ["support_radius", "fast_envelope"])
    def test_one_mesh_per_truncation_point(self, case, monkeypatch):
        built = []

        def counting_mesh(*args):
            built.append(args)
            return _mesh(*args)

        monkeypatch.setattr(quadrature, "_mesh", counting_mesh)
        f, cfg, kw = _SCHEDULE_CASES[case]
        integrate_semiinfinite_damped(f, cfg, **kw)
        assert len(built) == 1

    def test_envelope_probed_once_per_point(self):
        f, cfg, kw = _SCHEDULE_CASES["chirped_envelope"]
        probed = []

        def envelope(x):
            probed.append(x)
            return kw["envelope"](x)

        res = integrate_semiinfinite_damped(f, cfg, **dict(kw, envelope=envelope))
        assert res == integrate_semiinfinite_damped(f, cfg, **kw)
        # the probes 10 * 1.25^j up to the largest X, each once
        Xs = _truncation_Xs(f, cfg, kw)
        assert len(set(Xs)) > 1
        expected = [10.0]
        while len(expected) < len(probed):
            expected.append(expected[-1] * 1.25)
        assert probed == expected
        assert probed[-1] == max(Xs)


def _mesh_below_cases():
    """(X_wide, X, osc_scale, quad_phase) with X < X_wide: seeded, with X a
    fraction of X_wide, an edge of the wide mesh or a neighbour of one,
    then every narrower truncation point of the schedule cases."""
    rng = np.random.default_rng(3030)
    cases = []
    while len(cases) < 2000:
        X_wide = 10.0 ** rng.uniform(-3.0, 2.5)
        osc_scale = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-2.0, 2.0)
        quad_phase = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-3.0, 1.0)
        wide = _mesh(X_wide, osc_scale, quad_phase)
        kind = rng.integers(3)
        X = X_wide * rng.random() if kind == 0 else wide[rng.integers(1, len(wide) - 1)]
        if kind == 2:
            X = float(np.nextafter(X, (0.0, math.inf)[int(rng.integers(2))]))
        if 0.0 < X < X_wide:
            cases.append((X_wide, X, osc_scale, quad_phase))
    for f, cfg, kw in _SCHEDULE_CASES.values():
        Xs = _truncation_Xs(f, cfg, kw)
        cases += [(max(Xs), X, kw.get("osc_scale", 1.0), kw.get("quad_phase", 1.0))
                  for X in sorted(set(Xs)) if X < max(Xs)]
    return cases


def _edges_below(wide, X, osc_scale, quad_phase):
    """The edges of the mesh `_mesh_below` gives as shared and own panels,
    checking that the own panels chain on from the shared ones."""
    k, own = _mesh_below(wide, X, osc_scale, quad_phase)
    edges = np.concatenate((wide[:k + 1], own[:, 1]))
    assert np.array_equal(own[:, 0], edges[k:-1])
    return edges


class TestMeshBelow:
    def test_equal_to_walked_mesh(self):
        prefixes = walked = 0
        for X_wide, X, osc_scale, quad_phase in _mesh_below_cases():
            wide = _mesh(X_wide, osc_scale, quad_phase)
            edges = _edges_below(wide, X, osc_scale, quad_phase)
            assert np.array_equal(edges, _mesh(X, osc_scale, quad_phase)), \
                (X_wide, X, osc_scale, quad_phase)
            widen, _, _, s1 = _walk_start(X, osc_scale, quad_phase)
            wide_widen, _, _, wide_s1 = _walk_start(X_wide, osc_scale, quad_phase)
            if (widen, s1) == (wide_widen, wide_s1):
                # the last panel at most is the mesh's own
                assert len(_mesh_below(wide, X, osc_scale, quad_phase)[1]) <= 1
                prefixes += 1
            else:
                walked += 1
        # both ways are taken, the walk for a widening or an s1 of its own
        assert prefixes > 300 and walked > 300

    @pytest.mark.parametrize("case", ["coarsened", "X_below_s1"])
    def test_walked_afresh_when_the_start_differs(self, case, monkeypatch):
        f, cfg, kw = _SCHEDULE_CASES[case]
        Xs = _truncation_Xs(f, cfg, kw)
        rates = kw.get("osc_scale", 1.0), kw.get("quad_phase", 1.0)
        wide = _mesh(max(Xs), *rates)
        built = []
        narrower = sorted(set(Xs) - {max(Xs)})
        # the meshes that are not the wide one's edges below X, then X
        not_prefix = [X for X in narrower if not np.array_equal(
            _mesh(X, *rates), np.append(wide[wide < X], X))]
        assert not_prefix
        monkeypatch.setattr(quadrature, "_mesh", lambda *a: built.append(a) or _mesh(*a))
        for X in narrower:
            assert np.array_equal(_edges_below(wide, X, *rates), _mesh(X, *rates))
        assert built == [(X, *rates) for X in not_prefix]


def _per_eps_magnitude(f, X):
    """Reference: max |f| over 48 points of [1e-3, X] from a call of its
    own, rounded up to a power of 2, inf for an inf or NaN."""
    m = float(np.max(np.abs(np.asarray(f(np.linspace(1e-3, X, 48)), dtype=complex))))
    if not m < math.inf:
        return math.inf
    return 0.0 if m <= 0 else 2.0 ** math.ceil(math.log2(m))


def _per_eps_truncation(f, cfg):
    """Reference: `_truncation_points` without an envelope, its second
    magnitude round one call per eps (the loop the batched round replaced)."""
    floor = cfg.abs_tol / 10.0

    def reach(m, eps):
        return math.sqrt(max(math.log(10.0 * m / floor), 1.0) / eps)

    m0 = _per_eps_magnitude(f, 10.0)
    points = []
    for eps in cfg.epsilon_schedule:
        end, m = 10.0, m0
        if 0.0 < m0 < math.inf:
            end = reach(m0, eps)
            m = _per_eps_magnitude(f, end)
        if m == math.inf:
            points.append((end, math.inf))
        else:
            points.append((reach(m, eps) if m != 0.0 else 10.0, floor))
    return points


def _recorded(f, calls):
    def g(x):
        calls.append(np.array(x))
        return f(x)
    return g


class TestBatchedMagnitudes:
    def test_equal_to_a_round_per_eps(self):
        # the batched round gives the per-eps (X, tail) list, on the same
        # points: the first round's, then every eps's grid in one call
        rng = np.random.default_rng(3031)
        seen = set()
        with np.errstate(all="ignore"):
            for _ in range(1500):
                cfg = QuadConfig(abs_tol=10.0 ** rng.uniform(-12.0, -1.0),
                                 epsilon_schedule=_random_schedule(rng),
                                 extrapolation_order=0)
                c = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-12.0, 12.0)
                a, b = rng.uniform(0.0, 0.5), rng.uniform(0.0, 5.0)
                onset = 10.0 * rng.random() if rng.random() < 0.1 else 0.0

                def f(x, c=c, a=a, b=b, onset=onset):
                    return np.where(x >= onset, c * np.exp(-a * x + 1j * b * x), 0.0)

                ref_calls = []
                ref = _per_eps_truncation(_recorded(f, ref_calls), cfg)
                kind = rng.integers(3)
                if kind:
                    # inf or NaN at one point of one round, perhaps the
                    # point 1e-3 that every round shares
                    grid = ref_calls[rng.integers(len(ref_calls))]
                    x_bad, bad = grid[rng.integers(48)], (math.inf, math.nan)[kind - 1]
                    f = lambda x, f=f, x_bad=x_bad, bad=bad: np.where(x == x_bad, bad, f(x))
                    ref_calls = []
                    ref = _per_eps_truncation(_recorded(f, ref_calls), cfg)
                calls = []
                got = _truncation_points(_recorded(f, calls), cfg, None, None)
                assert got == ref
                assert np.array_equal(calls[0], ref_calls[0])
                if len(ref_calls) > 1:
                    assert len(calls) == 2
                    assert np.array_equal(calls[1], np.concatenate(ref_calls[1:]))
                else:
                    assert len(calls) == 1
                seen.update("zero" if tail == cfg.abs_tol / 10.0 and X == 10.0 else
                            "unbounded" if tail == math.inf else "bounded"
                            for X, tail in got)
                seen.add("one probe" if len(calls) == 1 else "two probes")
        assert seen == {"zero", "unbounded", "bounded", "one probe", "two probes"}


class TestZeroBranch:
    @pytest.mark.parametrize("with_bound", [True, False])
    def test_no_weight_call_and_plus_zero(self, with_bound, monkeypatch):
        # a branch zero on every node of every call never reaches the
        # weight, and its integral is +0.0
        radial_integral = importlib.import_module("lorentzft.transform")._radial_integral
        g_calls, weight_calls, f_calls = [], [], []
        evaluate = quadrature._evaluate
        monkeypatch.setattr(quadrature, "_evaluate",
                            lambda f, x: f_calls.append(x.size) or evaluate(f, x))

        def g(s):
            g_calls.append(np.size(s))
            return 0.0

        def weight(s):
            weight_calls.append(np.size(s))
            return np.exp(1j * s)

        bound = (lambda s: 1.0) if with_bound else None
        res = radial_integral(g, weight, CFG, 1.0, bound, lambda s: 1.0 / (1.0 + s),
                              None, 1.0)
        assert weight_calls == []
        # with a bound: one integrand call on the widest mesh and the
        # narrower meshes' own panels; without: the first magnitude round,
        # then one mesh for every eps
        assert len(f_calls) == (1 if with_bound else 2)
        # g runs on consecutive chunks of each integrand call, each at most
        # _CHUNK points, their sizes summing to the call's; the table of the
        # bounded case spans several chunks
        assert g_calls == [min(_CHUNK, size - i) for size in f_calls
                           for i in range(0, size, _CHUNK)]
        if with_bound:
            assert len(g_calls) > 1
        assert res.value == 0.0 and res.converged
        assert math.copysign(1.0, res.value.real) == math.copysign(1.0, res.value.imag) == 1.0

    def test_branch_zero_on_one_own_panel_keeps_the_per_eps_bits(self):
        # g vanishes on the panel of its own of one narrower mesh and not on
        # another's: the call that holds both reaches the weight, so those
        # zeros are 0 * weight, as when each eps called f on its whole mesh
        k, phase = 0.5, 1.0
        kw = dict(envelope=lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float)),
                  osc_scale=2.0 * math.pi * k, quad_phase=phase)
        Xs = sorted(set(_truncation_Xs(_chirp, CFG, kw)))
        wide = _mesh(Xs[-1], kw["osc_scale"], phase)
        owns = [_mesh_below(wide, X, kw["osc_scale"], phase)[1] for X in Xs[:-1]]
        a, b = next(own[-1] for own in owns if len(own))

        def g(s):
            return np.where((s >= a) & (s <= b), 0.0, np.cos(3.0 * s) * np.exp(1j * s * s))

        def zero_branch(s):
            # the zero skip of transform's radial integrand; the weight is
            # named so numpy cannot reuse it as the product's output, which
            # swaps the operands of a complex product that rounds with FMA
            gs = g(s)
            w = np.exp(-2j * math.pi * k * s)
            return gs * w if gs.any() else gs

        own_g = [g(_panel_nodes(own, quadrature._RULE_X)[0]) for own in owns if len(own)]
        assert sum(not v.any() for v in own_g) == 1 and len(own_g) > 1
        res = integrate_semiinfinite_damped(zero_branch, CFG, **kw)
        ref = _per_eps_damped(zero_branch, CFG, **kw)
        bits = lambda z: np.array([z], dtype=complex).view(np.uint64).tolist()
        assert bits(res.value) == bits(ref.value)
        assert res.error_estimate == ref.error_estimate
        assert res.converged == ref.converged


class TestDampedSumsInChunks:
    @staticmethod
    def _one_pass(eps, nodes, half, values):
        # the damping pass on the whole table at once
        damping = np.exp(-eps[:, None, None] * nodes * nodes)
        with np.errstate(invalid="ignore"):
            terms = values * damping
        terms *= _RULE_W
        return _panel_sums(terms, half)

    @pytest.mark.parametrize("rows", [1, 6])
    def test_bits_of_the_one_pass_sums(self, rows):
        # 2.5 chunks of panels, a last chunk of one panel and an inf value:
        # every per-panel sum keeps the bits of one pass over the table
        step = _CHUNK // quadrature._RULE_X.size
        rng = np.random.default_rng(36)
        n_panels = 2 * step + step // 2 + 1
        edges = np.cumsum(rng.uniform(1e-3, 0.05, n_panels + 1))
        nodes, half = _panel_nodes(edges, quadrature._RULE_X)
        values = rng.normal(size=nodes.shape) + 1j * rng.normal(size=nodes.shape)
        values[step + 7, 3] = math.inf
        eps = np.array(QuadConfig().epsilon_schedule[:rows])
        bits = lambda a: a.view(np.uint64)
        parts = [(slice(0, n_panels),),
                 # a narrower mesh: leading panels, then panels of its own
                 (slice(0, step + 10), slice(2 * step + 3, n_panels))]
        for part in parts:
            main, err = _damped_sums(eps, nodes, half, values, part)
            ref = [self._one_pass(eps, nodes[p], half[p], values[p]) for p in part]
            assert main.shape == err.shape == (rows, sum(len(r[0][0]) for r in ref))
            assert np.array_equal(bits(main),
                                  bits(np.concatenate([r[0] for r in ref], axis=-1)))
            assert np.array_equal(bits(err),
                                  bits(np.concatenate([r[1] for r in ref], axis=-1)))
            assert np.isnan(main[:, step + 7]).all()

    def test_empty_table(self):
        # a support radius of 0 gives a mesh without panels
        eps = np.array([0.1, 0.05])
        main, err = _damped_sums(eps, np.empty((0, 36)), np.empty(0),
                                 np.empty((0, 36), dtype=complex),
                                 (slice(0, 0), slice(0, 0)))
        assert main.shape == err.shape == (2, 0)


def _restarted_search(envelope, cfg):
    """Reference: the envelope search of `_truncation_points` with each eps
    restarting at the first probe, over a probe list grown as needed."""
    floor = cfg.abs_tol / 10.0
    probes = [(10.0, float(envelope(10.0)))]
    points = []
    for eps in cfg.epsilon_schedule:
        for j in range(61):
            if j == len(probes):
                X = probes[-1][0] * 1.25
                probes.append((X, float(envelope(X))))
            X, env = probes[j]
            tail = env * math.exp(-eps * X * X) * (1.0 + X)
            if tail <= floor:
                break
            if tail != tail:
                tail = math.inf
                break
        points.append((X, tail if tail >= 0.0 else math.inf))
    return points


def _random_schedule(rng):
    """A strictly decreasing eps schedule: halving, arbitrary, or a run of
    one-ulp neighbours."""
    terms = int(rng.integers(1, 9))
    eps0 = 10.0 ** rng.uniform(-15.0, 1.0)
    kind = rng.integers(3)
    if kind == 0:
        return tuple(eps0 * 2.0 ** (-j) for j in range(terms))
    if kind == 1:
        return tuple(sorted(set(10.0 ** rng.uniform(-15.0, 1.0, terms)), reverse=True))
    eps = [eps0]
    while len(eps) < terms:
        eps.append(float(np.nextafter(eps[-1], 0.0)))
    return tuple(eps)


def _random_envelope(rng):
    """A scalar envelope: polynomial, exponential or Gaussian, possibly
    negative, or NaN or inf beyond a random point."""
    c = 10.0 ** rng.uniform(-8.0, 8.0)
    a = 10.0 ** rng.uniform(-4.0, 0.0)
    shapes = [lambda x, p=p: c * x ** p for p in (-3.0, -1.0, 0.0, 1.0, 3.0)] + [
        lambda x: c * np.exp(-a * x), lambda x: c * np.exp(a * x),
        lambda x: c * np.exp(-a * x * x)]
    shape = shapes[rng.integers(len(shapes))]
    beyond = 10.0 * 1.25 ** rng.uniform(0.0, 62.0)
    kind = rng.integers(4)
    if kind == 0:
        return shape
    if kind == 1:
        return lambda x: -shape(x)
    bad = math.nan if kind == 2 else math.inf
    return lambda x: bad if x > beyond else shape(x)


class TestForwardSearch:
    def test_equal_to_restarted_search(self):
        # the forward search gives the restarted search's (X, tail) list and
        # probes the envelope at the same points in the same order
        rng = np.random.default_rng(20260)
        seen = set()
        with np.errstate(all="ignore"):
            for _ in range(10_000):
                cfg = QuadConfig(abs_tol=10.0 ** rng.uniform(-12.0, -1.0),
                                 epsilon_schedule=_random_schedule(rng),
                                 extrapolation_order=0)
                env = _random_envelope(rng)
                calls, ref_calls = [], []
                got = _truncation_points(None, cfg, lambda x: calls.append(x) or env(x),
                                         None)
                ref = _restarted_search(lambda x: ref_calls.append(x) or env(x), cfg)
                assert got == ref
                assert calls == ref_calls
                # a finite tail above the floor ends only the 61st probe
                seen.update("unbounded" if tail == math.inf else
                            "cap" if tail > cfg.abs_tol / 10.0 else
                            "below" for _, tail in got)
        assert seen == {"unbounded", "cap", "below"}

    def test_a_tail_on_the_floor_ends_the_search(self):
        # exp(-eps X^2) rounds to 1, so the tail 1 * 1 * (1 + 10) is the floor
        cfg = QuadConfig(abs_tol=110.0, epsilon_schedule=(1e-300,), extrapolation_order=0)
        assert _truncation_points(None, cfg, lambda x: 1.0, None) == [(10.0, 11.0)]
