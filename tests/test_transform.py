"""Public transform API: regression against the closed-form Gaussian result,
specialization fixtures, Hankel transforms, recursion, spectra."""

import cmath
import dataclasses
import importlib
import io
import math
import threading
import tracemalloc

import numpy as np
import pytest

from lorentzft import specfun
from lorentzft.kernels import MomentumChar, MomentumMagnitude
from lorentzft.profiles import RadialProfile, builtin_profile, profile_from_csv
from lorentzft.quadrature import (_CHUNK as CHUNK, QuadConfig, QuadResult,
                                  integrate_semiinfinite_damped)
from lorentzft.specfun import DomainError
from lorentzft.transform import (
    gaussian_reference,
    hankel_transform,
    recursion_step,
    spectrum,
    transform,
)
from test_specfun import CountingPool

TL, SL = MomentumChar.TIMELIKE, MomentumChar.SPACELIKE
CFG = QuadConfig()
# the module itself: the package's `transform` attribute is the function
TRANSFORM_MODULE = importlib.import_module("lorentzft.transform")


def tmom(k):
    return MomentumMagnitude(k, TL)


def smom(k):
    return MomentumMagnitude(k, SL)


class TestGaussianRegression:
    @pytest.mark.parametrize("k", [0.25, 0.5, 1.0])
    def test_matches_closed_form(self, k):
        profile = builtin_profile("gauss_oscillatory")
        res = transform(1, profile, tmom(k), CFG)
        ref = gaussian_reference(k)
        assert abs(res.value - ref) <= 1e-3 * abs(ref)

    @pytest.mark.parametrize("l", [0.25, 1.25])
    @pytest.mark.parametrize("char", [TL, SL])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_closed_form_in_1_plus_n(self, n, char, l):
        # the paper's 1+n result for exp(i s^2), at the CLI's default
        # tolerances: pi^{(n+1)/2} e^{i pi (1-n)/4} e^{-+i pi^2 l^2}
        sign = -1.0 if char is TL else 1.0
        ref = (math.pi ** ((n + 1) / 2) * cmath.exp(1j * math.pi * (1 - n) / 4)
               * cmath.exp(sign * 1j * math.pi ** 2 * l ** 2))
        cfg = QuadConfig(abs_tol=1e-4, rel_tol=1e-4)
        res = transform(n, builtin_profile("gauss_oscillatory"),
                        MomentumMagnitude(l, char), cfg)
        gap = abs(res.value - ref)
        assert res.error_estimate >= gap
        assert gap <= 1e-4 * abs(ref)


class TestZeroAndVanishing:
    def test_zero_profile(self):
        profile = builtin_profile("zero")
        for n in (1, 2, 5):
            for mom in (tmom(0.7), smom(1.3)):
                res = transform(n, profile, mom, CFG)
                assert res.converged
                assert res.value == 0.0

    def test_n2_spacelike_only_profile_timelike_momentum(self):
        bump = builtin_profile("compact_bump")
        profile = RadialProfile(
            f_timelike=lambda s: np.zeros(np.shape(s), dtype=complex),
            f_spacelike=bump.f_spacelike,
            support_radius=1.0)
        res = transform(2, profile, tmom(0.8), CFG)
        assert res.value == 0.0

    @staticmethod
    def _counted(profile, monkeypatch):
        """profile with each branch counting its points, and the list of
        point counts of every special-function call."""
        points = {"timelike": [], "spacelike": [], "bessel": []}
        ufunc = specfun._ufunc

        def counting_ufunc(fn, nu, arr):
            points["bessel"].append(arr.size)
            return ufunc(fn, nu, arr)

        def counting(name):
            g = getattr(profile, f"f_{name}")

            def branch(s):
                points[name].append(np.size(s))
                return g(s)
            return branch

        counted = dataclasses.replace(profile, f_timelike=counting("timelike"),
                                      f_spacelike=counting("spacelike"))
        monkeypatch.setattr(specfun, "_ufunc", counting_ufunc)
        return counted, points

    # the parent's results: a branch zero on every node is integrated with
    # no kernel call, to the same value, estimate and evaluation count
    @pytest.mark.parametrize("name, n, mom, expected", [
        ("gauss_decay_timelike", 2, smom(0.75),
         QuadResult(0.0969499226671605 + 0j, 3.010940263672033e-10, True, 5184)),
        ("gauss_decay_timelike", 3, tmom(0.75),
         QuadResult(0.1755843344279821 + 0j, 7.594762144901736e-09, True, 5184)),
        ("zero", 1, tmom(0.75), QuadResult(0j, 0.0, True, 4680)),
        ("zero", 2, smom(0.75), QuadResult(0j, 0.0, True, 4680)),
    ])
    def test_no_kernel_call_for_a_zero_branch(self, name, n, mom, expected,
                                              monkeypatch):
        profile, points = self._counted(builtin_profile(name), monkeypatch)
        res = transform(n, profile, mom, QuadConfig(abs_tol=1e-4, rel_tol=1e-4))
        assert res == expected
        # both integrands are called on every node of their meshes
        assert sum(points["timelike"]) + sum(points["spacelike"]) == res.evaluations
        assert sum(points["spacelike"]) > 0
        # the kernel is called on the nonzero branch's nodes alone
        nonzero = 0 if name == "zero" else sum(points["timelike"])
        assert sum(points["bessel"]) == nonzero

    # timelike odd n integrates both branches; so does a spacelike momentum
    @pytest.mark.parametrize("n, mom", [(1, tmom(0.75)), (3, tmom(0.75)),
                                        (2, smom(0.75))])
    def test_scalar_zero_branch_as_array_zero(self, n, mom):
        # the branch contract: a constant branch may return a scalar
        decay = builtin_profile("gauss_decay_timelike")
        scalar = dataclasses.replace(decay, f_spacelike=lambda s: 0.0)
        array = dataclasses.replace(
            decay, f_spacelike=lambda s: np.zeros(np.shape(s), dtype=complex))
        assert transform(n, scalar, mom, CFG) == transform(n, array, mom, CFG)

    def test_nan_branch_reaches_the_kernel(self, monkeypatch):
        decay = builtin_profile("gauss_decay_timelike")
        nan_branch = dataclasses.replace(
            decay, f_spacelike=lambda s: np.full(np.shape(s), complex(math.nan, 0.0)))
        profile, points = self._counted(nan_branch, monkeypatch)
        res = transform(3, profile, tmom(0.75), CFG)
        assert sum(points["bessel"]) == res.evaluations
        assert math.isnan(res.value.real) and not res.converged
        assert res.failed_branches == ("spacelike",)

    def test_nonconvergence_names_branches(self):
        strict = QuadConfig(abs_tol=1e-16, rel_tol=1e-16)
        res = transform(1, builtin_profile("compact_bump"), tmom(0.8), strict)
        assert not res.converged
        assert set(res.failed_branches) == {"timelike", "spacelike"}

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_non_finite_support_radius_raises(self, radius):
        bump = builtin_profile("compact_bump")
        profile = RadialProfile(f_timelike=bump.f_timelike,
                                f_spacelike=bump.f_spacelike,
                                support_radius=radius)
        with pytest.raises(ValueError, match="finite"):
            transform(1, profile, tmom(0.8), CFG)

    def test_negative_support_radius_raises(self):
        bump = builtin_profile("compact_bump")
        profile = RadialProfile(f_timelike=bump.f_timelike,
                                f_spacelike=bump.f_spacelike,
                                support_radius=-1.0)
        with pytest.raises(ValueError, match="support_radius"):
            transform(1, profile, tmom(0.8), CFG)

    def test_light_cone_support_is_exactly_zero(self):
        # a CSV profile sampled at s = 0 alone is supported on the light cone
        profile = profile_from_csv(io.StringIO(
            "s,re_timelike,im_timelike,re_spacelike,im_spacelike\n0,1,0,1,0\n"))
        assert profile.support_radius == 0.0
        res = transform(1, profile, tmom(0.8), CFG)
        assert res.value == 0.0 and res.converged

    @pytest.mark.parametrize("phase_scale", [math.nan, -1.0, math.inf])
    def test_bad_phase_scale_raises(self, phase_scale):
        decay = builtin_profile("gauss_decay_timelike")
        profile = RadialProfile(f_timelike=decay.f_timelike,
                                f_spacelike=decay.f_spacelike,
                                envelope_hint=decay.envelope_hint,
                                phase_scale=phase_scale)
        with pytest.raises(ValueError, match="phase rates"):
            transform(1, profile, tmom(0.8), CFG)


def _radial_integrand(monkeypatch, g, weight):
    """The integrand `_radial_integral` hands the engine for g and weight."""
    integrands = []
    monkeypatch.setattr(TRANSFORM_MODULE, "integrate_semiinfinite_damped",
                        lambda f, *args, **kwargs: integrands.append(f))
    TRANSFORM_MODULE._radial_integral(g, weight, CFG, 0.5, None,
                                      lambda s: 1.0, None, 1.0)
    [integrand] = integrands
    return integrand


def _chirped_branch(s):
    return np.cos(3.0 * s) * np.exp(1j * s * s)


class TestRadialIntegrand:
    def test_value_independent_of_its_call(self, monkeypatch):
        # the engine calls the integrand once on the nodes of several
        # meshes, so a point's value must not depend on the other points of
        # its call; with a complex weight, a product whose operand order
        # followed the call's size would round differently (FMA)
        integrand = _radial_integrand(monkeypatch, _chirped_branch,
                                      lambda s: np.exp(-1j * math.pi * s))
        s = np.random.default_rng(235).uniform(0.0, 50.0, 20_000)
        whole = integrand(s).view(np.uint64)
        parts = np.concatenate([integrand(p) for p in np.split(s, 20)]).view(np.uint64)
        assert int((whole != parts).sum()) == 0

    def test_chunks_keep_the_bits_of_one_product(self, monkeypatch):
        # g and the weight run on consecutive chunks of the call, each point
        # once and no call longer than a chunk, and every value is the bit
        # pattern of g times the weight on the whole array
        seen = {"g": [], "weight": []}

        def recording(name, fn):
            return lambda s: seen[name].append(s.copy()) or fn(s)

        weight = lambda s: np.exp(-1j * math.pi * s)
        integrand = _radial_integrand(monkeypatch, recording("g", _chirped_branch),
                                      recording("weight", weight))
        s = np.random.default_rng(36).uniform(0.0, 50.0, 3 * CHUNK + 4321)
        got = integrand(s)
        assert np.array_equal(got.view(np.uint64),
                              np.multiply(_chirped_branch(s), weight(s)).view(np.uint64))
        for calls in seen.values():
            assert len(calls) == 4 and max(map(len, calls)) <= CHUNK
            assert np.array_equal(np.concatenate(calls), s)

    def test_skip_is_decided_on_the_whole_call(self, monkeypatch):
        # g vanishes on the whole second chunk and nowhere else, and the
        # weight is inf at one node of it: the call reaches the weight, so
        # that node is 0 * inf = NaN and the chunk's other zeros 0 * 1
        s = np.linspace(1.0, 2.0, 3 * CHUNK)
        lo, hi, bad = s[CHUNK], s[2 * CHUNK - 1], s[CHUNK + 5]

        def g(x):
            return np.where((x >= lo) & (x <= hi), 0.0, 1.0 + 1j)

        def weight(x):
            return np.where(x == bad, math.inf, 1.0)

        with np.errstate(invalid="ignore"):
            got = _radial_integrand(monkeypatch, g, weight)(s)
        assert np.isnan(got[CHUNK + 5])
        zeros = np.delete(got[CHUNK:2 * CHUNK], 5)
        assert (zeros == 0).all() and not np.signbit(zeros.real).any()
        assert (got[:CHUNK] == 1.0 + 1j).all() and (got[2 * CHUNK:] == 1.0 + 1j).all()


class TestMemory:
    def test_transients_do_not_grow_with_the_mesh(self):
        # the flagship point: exp(i s^2) at n = 5, timelike l = 1.25, CLI
        # tolerances; its timelike integral's table holds about 313k nodes.
        # Beyond the table's nodes and values, the traced peak is the
        # chunked passes' temporaries: 3.2 MiB measured, bounded by four
        # complex chunks.  Whole-mesh temporaries read 10.4 MiB here.
        sizes = {}

        def recording(name, g):
            return lambda s: sizes.setdefault(name, []).append(len(s)) or g(s)

        chirp = builtin_profile("gauss_oscillatory")
        profile = dataclasses.replace(
            chirp, f_timelike=recording("timelike", chirp.f_timelike),
            f_spacelike=recording("spacelike", chirp.f_spacelike))
        cfg = QuadConfig(abs_tol=1e-4, rel_tol=1e-4)
        transform(5, profile, tmom(1.25), cfg)       # caches and pool threads
        sizes.clear()
        tracemalloc.start()
        try:
            transform(5, profile, tmom(1.25), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each branch's calls cover its integral's table once
        table = max(sum(calls) for calls in sizes.values())
        assert table > 4 * CHUNK
        nodes_and_values = table * (8 + 16)
        assert peak - nodes_and_values < 4 * CHUNK * 16


class TestLinearity:
    def test_linear_combination(self):
        bump = builtin_profile("compact_bump")
        decay = builtin_profile("gauss_decay_timelike")
        a, b = 1.5 - 0.5j, -2.0 + 1.0j
        combo = RadialProfile(
            f_timelike=lambda s: a * bump.f_timelike(s) + b * decay.f_timelike(s),
            f_spacelike=lambda s: a * bump.f_spacelike(s) + b * decay.f_spacelike(s),
            envelope_hint=lambda s: abs(a) * (np.asarray(s) < 1.0) + abs(b) * np.exp(-np.asarray(s) ** 2))
        for mom in (tmom(0.9), smom(0.6)):
            r1 = transform(1, bump, mom, CFG)
            r2 = transform(1, decay, mom, CFG)
            rc = transform(1, combo, mom, CFG)
            tol = abs(a) * r1.error_estimate + abs(b) * r2.error_estimate \
                + rc.error_estimate + 1e-12
            assert abs(rc.value - (a * r1.value + b * r2.value)) <= tol


class TestSpecialization:
    """transform at n = 1, 2 against independently coded low-dimensional
    weights, evaluated by the same engine on the same nodes."""

    @staticmethod
    def _fixture_value(n, profile, mom, cfg):
        from scipy.special import k0, y0

        def weight(branch, s):
            sa = np.asarray(s, dtype=float)
            z = 2.0 * math.pi * sa * mom.value
            if n == 1:
                if mom.char is TL:
                    return -2 * math.pi * sa * y0(z) if branch == "t" \
                        else 4.0 * sa * k0(z)
                return 4.0 * sa * k0(z) if branch == "t" \
                    else -2 * math.pi * sa * y0(z)
            if mom.char is TL:
                return -2.0 / mom.value * sa * np.sin(z) if branch == "t" \
                    else np.zeros_like(sa)
            return 2.0 / mom.value * sa * np.exp(-z) if branch == "t" \
                else 2.0 / mom.value * sa * np.cos(z)

        total = 0.0 + 0.0j
        for branch, f in (("t", profile.f_timelike), ("s", profile.f_spacelike)):
            if n == 2 and mom.char is TL and branch == "s":
                continue

            def integrand(s, _b=branch, _f=f):
                return np.asarray(_f(s), dtype=complex) * weight(_b, s)

            res = integrate_semiinfinite_damped(
                integrand, cfg, support_radius=profile.support_radius,
                osc_scale=2.0 * math.pi * mom.value, quad_phase=0.0)
            total += res.value
        return total

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("char", [TL, SL])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_same_nodes_agreement(self, n, char, k):
        profile = builtin_profile("compact_bump")
        mom = MomentumMagnitude(k, char)
        got = transform(n, profile, mom, CFG).value
        ref = self._fixture_value(n, profile, mom, CFG)
        assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-6), \
            f"n={n} {char} k={k}: {got} vs {ref}"


def brute_force_cartesian_3d(k, half=4.0, nodes=96):
    """Tensor Gauss-Legendre evaluation of the 3-d transform of
    exp(-pi |x|^2), oscillation along one axis."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = half * x
    w = half * w
    g1 = np.exp(-math.pi * x * x)
    osc = g1 * np.exp(-2j * math.pi * k * x)
    plain = float(np.sum(g1 * w))
    oscsum = complex(np.sum(osc * w))
    return oscsum * plain * plain


class TestHankel:
    def test_n3_gaussian_vs_cartesian_oracle(self):
        g = lambda r: np.exp(-math.pi * np.asarray(r, dtype=float) ** 2)
        env = lambda r: np.exp(-2.0 * np.asarray(r, dtype=float))
        for k in (0.5, 1.0):
            res = hankel_transform(3, g, k, CFG, envelope=env, phase_scale=0.0)
            oracle = brute_force_cartesian_3d(k)
            assert abs(res.value - oracle) < 1e-9
            assert abs(res.value - math.exp(-math.pi * k * k)) < 1e-9

    def test_n1_gaussian_cosine_transform(self):
        g = lambda r: np.exp(-math.pi * np.asarray(r, dtype=float) ** 2)
        env = lambda r: np.exp(-2.0 * np.asarray(r, dtype=float))
        for k in (0.4, 1.2):
            res = hankel_transform(1, g, k, CFG, envelope=env, phase_scale=0.0)
            assert abs(res.value - math.exp(-math.pi * k * k)) < 1e-9

    def test_zero_input(self):
        res = hankel_transform(2, lambda r: np.zeros(np.shape(r)), 1.0, CFG)
        assert res.value == 0.0
        assert hankel_transform(2, lambda r: 0.0, 1.0, CFG) == res

    def test_infinite_k_raises(self):
        g = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
        with pytest.raises(ValueError, match="phase rates"):
            hankel_transform(1, g, math.inf, CFG, support_radius=1.0)

    @pytest.mark.parametrize("n, why", [
        (3, r"J_0.5\(2 pi r k\) underflows to 0"), (4, r"2 pi r\^\(4/2\) k\^\(1-4/2\) overflows"),
        (5, r"2 pi r\^\(5/2\) k\^\(1-5/2\) overflows")])
    def test_tiny_momentum_names_r_and_k(self, n, why):
        # at k = 1e-320 the transform of exp(-pi r^2) is about 1; chi gave
        # 0j with converged=True at n = 3 and NaN with overflow warnings at
        # n = 4 and 5
        g = lambda r: np.exp(-math.pi * np.asarray(r, dtype=float) ** 2)
        with pytest.raises(DomainError, match=rf"chi\({n}, r, k\) at r=\S+, "
                                              rf"k=1e-320: {why}"):
            hankel_transform(n, g, 1e-320, CFG)

    @pytest.mark.parametrize("envelope", [False, True], ids=["bare", "envelope"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_tiny_momentum_raises_before_the_envelope(self, n, envelope):
        # with an envelope, chi_envelope's k^(1-n/2) overflowed (an
        # OverflowError at n = 4 and 5, warnings at n = 3) before chi's
        # refusal: now chi refuses r and k before the envelope is called,
        # as it refuses them on g's first nodes without one
        calls = []

        def g(r):
            calls.append("g")
            return np.exp(-math.pi * np.asarray(r, dtype=float) ** 2)

        def env(r):
            calls.append("envelope")
            return np.exp(-2.0 * np.asarray(r, dtype=float))

        with pytest.raises(DomainError, match=rf"chi\({n}, r, k\) at r=\S+, k=1e-320"):
            hankel_transform(n, g, 1e-320, CFG, envelope=env if envelope else None)
        assert calls == (["g"] if not envelope else [])

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan])
    def test_k_not_positive_raises_before_any_call(self, k):
        calls = []
        with pytest.raises(DomainError, match="requires k > 0"):
            hankel_transform(1, lambda r: calls.append(r) or np.ones(np.shape(r)), k, CFG,
                             support_radius=1.0)
        assert calls == []

    @pytest.mark.parametrize("with_envelope", [False, True])
    @pytest.mark.parametrize("n", [0, 11, 2.5])
    def test_bad_dimension_raises_before_any_call(self, n, with_envelope):
        calls = []
        envelope = (lambda r: np.ones(np.shape(r))) if with_envelope else None
        with pytest.raises(DomainError, match="spatial dimension"):
            hankel_transform(n, lambda r: calls.append(r) or np.ones(np.shape(r)), 1.0,
                             CFG, envelope=envelope)
        assert calls == []

    def test_self_inverse_on_gaussian(self):
        # forward transform tabulated on a grid, then the inverse (same
        # operator by the weight's argument symmetry) recovers g
        from scipy.interpolate import CubicSpline

        g = lambda r: np.exp(-math.pi * np.asarray(r, dtype=float) ** 2)
        env = lambda r: np.exp(-2.0 * np.asarray(r, dtype=float))
        n = 3
        cfg = QuadConfig(epsilon_schedule=tuple(0.1 * 2.0 ** (-j) for j in range(4)),
                         extrapolation_order=2)
        kgrid = np.linspace(1e-3, 8.0, 321)
        Fvals = [hankel_transform(n, g, float(kk), cfg, envelope=env,
                                  phase_scale=0.0).value.real for kk in kgrid]
        F_interp = CubicSpline(kgrid, Fvals)

        def F(karr):
            ka = np.asarray(karr, dtype=float)
            return np.where((ka >= kgrid[0]) & (ka <= kgrid[-1]),
                            F_interp(np.clip(ka, kgrid[0], kgrid[-1])), 0.0)

        for r0 in (0.3, 0.7, 1.4):
            back = hankel_transform(n, F, r0, cfg, support_radius=8.0,
                                    phase_scale=0.0)
            assert abs(back.value - g(r0)) < 1e-4


class TestUnboundedError:
    """A one-value schedule, or a negative envelope hint, leaves the error
    unbounded: the estimate is infinite and the value is kept."""

    ONE = QuadConfig(epsilon_schedule=(0.1,), extrapolation_order=0)
    # its value is the smallest-eps sample of this schedule
    TWO = QuadConfig(epsilon_schedule=(0.2, 0.1), extrapolation_order=0)

    def test_one_value_transform(self):
        bump = builtin_profile("compact_bump")
        res = transform(1, bump, tmom(0.5), self.ONE)
        assert res.error_estimate == math.inf
        assert not res.converged
        assert res.failed_branches == ("timelike", "spacelike")
        assert res.value == transform(1, bump, tmom(0.5), self.TWO).value

    def test_one_value_hankel(self):
        g = lambda r: np.exp(-np.asarray(r, dtype=float) ** 2)
        res = hankel_transform(2, g, 1.0, self.ONE)
        assert res.error_estimate == math.inf
        assert not res.converged
        assert res.value == hankel_transform(2, g, 1.0, self.TWO).value

    @pytest.mark.parametrize("hint", [
        lambda s: -np.ones(np.shape(s)), lambda s: -np.exp(-np.asarray(s) ** 2),
    ], ids=["minus-one", "minus-gaussian"])
    def test_negative_envelope_hint(self, hint):
        profile = dataclasses.replace(builtin_profile("gauss_decay_timelike"),
                                      envelope_hint=hint)
        res = transform(1, profile, tmom(0.5), CFG)
        assert res.error_estimate == math.inf
        assert not res.converged
        assert res.failed_branches == ("timelike", "spacelike")


class TestRecursion:
    def test_constant_function(self):
        value, err = recursion_step(lambda k: 5.0 + 0.0j, 1.0)
        assert abs(value) <= 1e-9
        assert err >= 0.0

    def test_gaussian_fixed_point(self):
        # -(1/2 pi k) d/dk exp(-pi k^2) = exp(-pi k^2)
        F = lambda k: math.exp(-math.pi * k * k)
        for k in (0.5, 1.0, 2.0):
            value, err = recursion_step(F, k)
            ref = math.exp(-math.pi * k * k)
            assert abs(value - ref) <= max(5 * err, 1e-9)

    def test_step_too_large(self):
        # the step max(1e-3, 1e-3 k) reaches k/2 at k = 2e-3
        for k in (2e-3, 1e-3, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                recursion_step(lambda x: x, k)
        value, _ = recursion_step(lambda x: -math.pi * x * x, 2.5e-3)
        assert abs(value - 1.0) <= 1e-12

    def test_bump_dimension_raising(self):
        # spacelike magnitudes: F^(3) = recursion step applied to F^(1)
        profile = builtin_profile("compact_bump")

        def F1(x):
            return transform(1, profile, smom(x), CFG).value

        stepped, err = recursion_step(F1, 1.0)
        direct = transform(3, profile, smom(1.0), CFG).value
        assert abs(stepped - direct) <= 1e-4 * (1.0 + abs(direct))

    def test_timelike_sign_convention(self):
        # in the timelike character the derivative enters with the opposite
        # sign: F^(n+2)(l0) = +(1/2 pi l0) dF^(n)/dl0
        profile = builtin_profile("compact_bump")

        def F1(x):
            return transform(1, profile, tmom(x), CFG).value

        stepped, err = recursion_step(F1, 1.0)
        direct = transform(3, profile, tmom(1.0), CFG).value
        assert abs(-stepped - direct) <= 1e-4 * (1.0 + abs(direct))

    @pytest.mark.parametrize("l", [0.3, 0.7, 1.3])
    @pytest.mark.parametrize("char", [SL, TL], ids=["spacelike", "timelike"])
    @pytest.mark.parametrize("name", ["compact_bump", "gauss_decay_timelike"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_dimension_recursion(self, n, name, char, l):
        # F^(n+2)(l) = -+(1/2 pi l) dF^(n)/dl, - for spacelike l, + for timelike
        profile, cfg = builtin_profile(name), QuadConfig(1e-10, 1e-10)
        estimates = []

        def Fn(x):
            res = transform(n, profile, MomentumMagnitude(x, char), cfg)
            estimates.append(res.error_estimate)
            return res.value

        stepped, err = recursion_step(Fn, l)
        if char is TL:
            stepped = -stepped
        direct = transform(n + 2, profile, MomentumMagnitude(l, char), cfg)
        gap = abs(stepped - direct.value)
        assert gap <= err + direct.error_estimate + max(estimates)
        # the worst gap over this grid is 2.3e-9 of max(1, |F^(n+2)|)
        assert gap <= 1e-8 * max(1.0, abs(direct.value))


class TestLightCone:
    # As l -> 0+, with nu = (n - 1)/2, both branch weights tend to
    # 2 Gamma(nu) pi^-nu s l^-(n-1) (DLMF 10.7, 10.30), so
    #     l^(n-1) F(l) -> Gamma(nu) pi^-nu int f(w) dw
    # at spacelike l, w = s^2 over both branches; the bump's integral is 1/2.
    # At timelike l the limit is (-1)^nu times that for odd n and 0 for even
    # n, where the spacelike branch's kernel vanishes.  Over l in {0.1, 0.03,
    # 0.01} the gaps, relative to the spacelike limit, are at most 4.6 l^3
    # (n = 4), so a bound of 10 l^3 also checks that they shrink with l.
    @pytest.mark.parametrize("l", [0.1, 0.03, 0.01])
    @pytest.mark.parametrize("char", [SL, TL], ids=["spacelike", "timelike"])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_bump_tends_to_its_limit(self, n, char, l):
        nu = (n - 1) // 2 if n % 2 else (n - 1) / 2
        limit = math.gamma(nu) * math.pi ** -nu / 2.0
        if char is SL:
            expected = limit
        else:
            expected = (-1) ** nu * limit if n % 2 else 0.0
        res = transform(n, builtin_profile("compact_bump"), MomentumMagnitude(l, char), CFG)
        assert res.converged
        assert abs(l ** (n - 1) * res.value - expected) <= 10.0 * l ** 3 * limit


class TestTinyMomentum:
    # the weight c s^((n+1)/2) l^(-(n-1)/2) Z(2 pi s l) is not finite at
    # s = 1: transform gave NaN with overflow warnings.  It is refused,
    # naming l, before any branch or kernel_envelope call
    @pytest.mark.parametrize("n, name, mom", [
        (5, "gauss_decay_timelike", tmom(1e-300)), (10, "compact_bump", smom(1e-160)),
        (3, "compact_bump", smom(1e-300))])
    def test_refused_before_any_integral(self, n, name, mom, monkeypatch):
        calls = []

        def record(label, fn):
            def wrapper(*args):
                calls.append(label)
                return fn(*args)
            return wrapper

        profile = builtin_profile(name)
        profile = dataclasses.replace(
            profile, f_timelike=record("timelike", profile.f_timelike),
            f_spacelike=record("spacelike", profile.f_spacelike))
        monkeypatch.setattr(TRANSFORM_MODULE, "kernel_envelope",
                            record("kernel_envelope", TRANSFORM_MODULE.kernel_envelope))
        with pytest.raises(DomainError, match=rf"l={mom.value!r} is too small: "
                                              rf"the n={n} weight is not finite at s = 1"):
            transform(n, profile, mom, CFG)
        assert calls == []


class TestGaussianReference:
    def test_small_k_limit(self):
        assert abs(gaussian_reference(1e-12) - math.pi) < 1e-12

    def test_unit_k(self):
        ref = math.pi * np.exp(-1j * math.pi ** 2)
        assert abs(gaussian_reference(1.0) - ref) == 0.0

    def test_unit_modulus(self):
        for k in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert abs(abs(gaussian_reference(k)) - math.pi) < 1e-12

    @pytest.mark.parametrize("k", [0.0, -1.0, math.inf, math.nan])
    def test_outside_domain_raises(self, k):
        with pytest.raises(DomainError):
            gaussian_reference(k)


class TestSpectrum:
    def test_zero_profile_rows(self):
        profile = builtin_profile("zero")
        grid = [tmom(0.5), tmom(1.0), tmom(2.0)]
        results = spectrum(1, profile, grid, CFG)
        assert len(results) == 3
        assert all(r.value == 0.0 and r.converged for r in results)

    def test_gaussian_grid(self):
        profile = builtin_profile("gauss_oscillatory")
        ks = (0.25, 0.5, 1.0)
        results = spectrum(1, profile, [tmom(k) for k in ks], CFG)
        assert results[-1] == transform(1, profile, tmom(1.0), CFG)
        for res, k in zip(results, ks):
            assert abs(res.value - gaussian_reference(k)) <= 1e-3 * math.pi

    def test_n2_spacelike_only_timelike_grid(self):
        bump = builtin_profile("compact_bump")
        profile = RadialProfile(
            f_timelike=lambda s: np.zeros(np.shape(s), dtype=complex),
            f_spacelike=bump.f_spacelike,
            support_radius=1.0)
        results = spectrum(2, profile, [tmom(0.5), tmom(1.5)], CFG)
        assert all(r.value == 0.0 for r in results)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            spectrum(1, builtin_profile("zero"), [], CFG)

    def test_nonincreasing_grid_rejected(self, monkeypatch):
        calls = []
        monkeypatch.setattr(TRANSFORM_MODULE, "transform",
                            lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="increase"):
            spectrum(1, builtin_profile("zero"), [tmom(1.0), tmom(0.5)], CFG)
        assert calls == []


class TestParallelWork:
    def test_traced_names_run_on_the_calling_thread(self, monkeypatch):
        # the benchmark's tracer keeps one span stack, so every name it wraps
        # on this path must run on the caller's thread; only leaf numpy and
        # scipy calls (Bessel blocks, chirp blocks) may go to the pool
        calls = []

        def record(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        kernels = importlib.import_module("lorentzft.kernels")
        quadrature = importlib.import_module("lorentzft.quadrature")
        for module, name in [(TRANSFORM_MODULE, "minkowski_kernel"),
                             (kernels, "bessel_j"), (kernels, "bessel_n"),
                             (kernels, "bessel_k"),
                             (TRANSFORM_MODULE, "integrate_semiinfinite_damped"),
                             (quadrature, "extrapolate_to_zero")]:
            monkeypatch.setattr(module, name, record(name, getattr(module, name)))

        chirp_tasks = []

        def branch(name, fn):
            def counted(s):
                before = pool.tasks
                out = fn(s)
                chirp_tasks.append(pool.tasks - before)
                return out
            return record(name, counted)

        profile = builtin_profile("gauss_oscillatory")
        profile = dataclasses.replace(
            profile, f_timelike=branch("timelike", profile.f_timelike),
            f_spacelike=branch("spacelike", profile.f_spacelike))
        with CountingPool() as pool:
            monkeypatch.setattr(specfun, "_pool", pool)
            transform(5, profile, tmom(1.25), QuadConfig(1e-4, 1e-4))
        assert {name for name, _ in calls} >= {
            "timelike", "spacelike", "minkowski_kernel", "bessel_n", "bessel_k",
            "integrate_semiinfinite_damped", "extrapolate_to_zero"}
        assert {ident for _, ident in calls} == {threading.get_ident()}
        # the branches' long meshes sent chirp blocks to the pool
        assert sum(chirp_tasks) > 0 and pool.tasks > sum(chirp_tasks)
