"""Cartesian window oracle and the angular-integral identities."""

import math

import numpy as np
import pytest

from lorentzft.kernels import MomentumChar, MomentumMagnitude
from lorentzft.oracle import (
    AngularIdentity,
    AngularIdentityKind,
    WindowConfig,
    angular_quad_config,
    cartesian_ft_1p1,
    cartesian_ft_1p2,
    check_angular_identity,
    window_config_for,
)
from lorentzft.profiles import RadialProfile, builtin_profile
from lorentzft.quadrature import QuadConfig
from lorentzft.specfun import DomainError
from lorentzft.transform import gaussian_reference, transform

TL, SL = MomentumChar.TIMELIKE, MomentumChar.SPACELIKE


def _spacelike_only_bump():
    bump = builtin_profile("compact_bump")
    return RadialProfile(
        f_timelike=lambda s: np.zeros(np.shape(s), dtype=complex),
        f_spacelike=bump.f_spacelike,
        support_radius=1.0)


class TestAngularIdentities:
    CFG = angular_quad_config()

    @pytest.mark.parametrize("kind", list(AngularIdentityKind))
    def test_identity_at_unit_parameter(self, kind):
        lhs, rhs, gap = check_angular_identity(AngularIdentity(kind, 1.0), self.CFG)
        assert gap <= 1e-6, f"{kind}: lhs={lhs} rhs={rhs}"

    def test_sinh_to_k0_example(self):
        from lorentzft.specfun import Order, bessel_k
        lhs, rhs, gap = check_angular_identity(
            AngularIdentity(AngularIdentityKind.SINH_TO_K0, 1.0), self.CFG)
        assert abs(rhs - 2.0 * bessel_k(Order(0), 1.0)) < 1e-15
        assert gap <= 1e-8

    def test_theta_half_small_parameter(self):
        # a -> 0: both sides tend to pi/2
        lhs, rhs, gap = check_angular_identity(
            AngularIdentity(AngularIdentityKind.THETA_TO_J0_HALF, 1e-8), self.CFG)
        assert abs(lhs - math.pi / 2) < 1e-8
        assert abs(rhs - math.pi / 2) < 1e-8

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            AngularIdentity(AngularIdentityKind.SINH_TO_K0, 0.0)


class TestWindowConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowConfig((0.1, 0.2), (10.0, 10.0))
        with pytest.raises(ValueError):
            WindowConfig((0.1, 0.05), (10.0, 5.0))  # shrinking box
        with pytest.raises(ValueError):
            WindowConfig((0.1, 0.05), (10.0,))

    def test_factory_monotone(self):
        profile = builtin_profile("compact_bump")
        w = window_config_for(profile, MomentumMagnitude(1.0, TL))
        assert all(b2 >= b1 for b1, b2 in zip(w.box_halfwidth, w.box_halfwidth[1:]))
        assert len(w.eta_schedule) == len(w.box_halfwidth)


class TestCartesian1p1:
    def test_zero_profile(self):
        res = cartesian_ft_1p1(builtin_profile("zero"),
                               MomentumMagnitude(1.0, TL),
                               window_config_for(builtin_profile("zero"),
                                                 MomentumMagnitude(1.0, TL)))
        assert abs(res.value) < 1e-12

    def test_gaussian_oscillatory_window_validation(self):
        # the window prescription reproduces the closed-form transform of
        # exp(i s^2) to 1e-2 relative; spacelike k gives pi e^{+i pi^2 k^2}
        profile = builtin_profile("gauss_oscillatory")
        for char, ref in ((TL, gaussian_reference(0.5)),
                          (SL, gaussian_reference(0.5).conjugate())):
            mom = MomentumMagnitude(0.5, char)
            w = window_config_for(profile, mom)
            res = cartesian_ft_1p1(profile, mom, w)
            assert abs(res.value - ref) <= 1e-2 * abs(ref), char

    @pytest.mark.parametrize("char", [TL, SL])
    def test_bump_vs_radial(self, char):
        profile = builtin_profile("compact_bump")
        mom = MomentumMagnitude(1.0, char)
        ref = transform(1, profile, mom, QuadConfig()).value
        res = cartesian_ft_1p1(profile, mom, window_config_for(profile, mom))
        assert abs(res.value - ref) <= 1e-3 * abs(ref)

    def test_window_independence(self):
        # halving the smallest window parameter moves the answer by less
        # than the reported error estimate
        profile = builtin_profile("compact_bump")
        mom = MomentumMagnitude(0.5, TL)
        w1 = window_config_for(profile, mom, eta0=0.01, n_etas=5)
        w2 = window_config_for(profile, mom, eta0=0.01, n_etas=6)
        r1 = cartesian_ft_1p1(profile, mom, w1)
        r2 = cartesian_ft_1p1(profile, mom, w2)
        assert abs(r2.value - r1.value) <= r1.error_estimate


class TestCartesian1p2:
    def test_zero_profile(self):
        profile = builtin_profile("zero")
        mom = MomentumMagnitude(1.0, TL)
        res = cartesian_ft_1p2(profile, mom,
                               window_config_for(profile, mom, dims=2,
                                                 eta0=0.02, n_etas=4))
        assert abs(res.value) < 1e-12

    def test_spacelike_only_bump_timelike_momentum(self):
        # even spatial dimension: no contribution from the spacelike region
        profile = _spacelike_only_bump()
        for k in (0.5, 1.0):
            mom = MomentumMagnitude(k, TL)
            w = window_config_for(profile, mom, dims=2, eta0=0.02, n_etas=5)
            res = cartesian_ft_1p2(profile, mom, w)
            assert abs(res.value) <= 5e-3

    @pytest.mark.parametrize("char", [TL, SL])
    def test_bump_vs_radial(self, char):
        profile = builtin_profile("compact_bump")
        mom = MomentumMagnitude(0.5, char)
        ref = transform(2, profile, mom, QuadConfig()).value
        w = window_config_for(profile, mom, dims=2, eta0=0.02, n_etas=5)
        res = cartesian_ft_1p2(profile, mom, w)
        assert abs(res.value - ref) <= 5e-3 * abs(ref)

    def test_noncompact_rejected(self):
        profile = builtin_profile("gauss_oscillatory")
        mom = MomentumMagnitude(1.0, TL)
        w = window_config_for(builtin_profile("compact_bump"), mom, dims=2,
                              eta0=0.02, n_etas=3)
        with pytest.raises(DomainError):
            cartesian_ft_1p2(profile, mom, w)
