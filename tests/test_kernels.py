"""Radial kernels: closed-form reductions, exact vanishing, the chi weight
and the closure right-hand side."""

import math
import re

import numpy as np
import pytest

import lorentzft.kernels
from lorentzft.kernels import (
    Branch,
    KernelSpec,
    MomentumChar,
    MomentumMagnitude,
    chi,
    chi_envelope,
    chi_small_argument_limit,
    check_weight,
    closure_rhs,
    exact_cos_sin_half_pi,
    kernel_envelope,
    minkowski_kernel,
)
from lorentzft.specfun import DomainError, bessel_j, bessel_k, bessel_n
from lorentzft.validation import suite_chi, suite_reduction

TL, SL = MomentumChar.TIMELIKE, MomentumChar.SPACELIKE
TP, SP = Branch.TIMELIKE_PROFILE, Branch.SPACELIKE_PROFILE


class TestChi:
    def test_n1_cosine(self):
        r = np.linspace(0.0, 5.0, 50)
        for k in (0.3, 1.0, 2.5):
            ref = 2.0 * np.cos(2.0 * np.pi * r * k)
            assert np.allclose(chi(1, r, k), ref, rtol=1e-13, atol=1e-13)

    def test_n3_sine(self):
        r = np.linspace(0.01, 5.0, 50)
        for k in (0.3, 1.0, 2.5):
            ref = 2.0 * r / k * np.sin(2.0 * np.pi * r * k)
            assert np.allclose(chi(3, r, k), ref, rtol=1e-12, atol=1e-13)

    def test_swapped_small_argument_n2(self):
        # chi_2(k, r) -> 2 pi k as r -> 0
        for k in (0.5, 1.0, 2.0):
            assert abs(chi(2, k, 1e-8) - 2.0 * math.pi * k) <= 1e-8 * k

    @pytest.mark.parametrize("n", range(1, 11))
    def test_small_argument_limit(self, n):
        for k in (0.5, 1.0, 2.0):
            lim = chi_small_argument_limit(n, k)
            got = chi(n, k, 1e-6)
            assert abs(got - lim) <= 1e-4 * abs(lim)

    def test_first_argument_zero(self):
        assert chi(1, 0.0, 1.3) == 2.0
        assert chi(2, 0.0, 1.3) == 0.0
        assert chi(5, 0.0, 1.3) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi(1, 1.0, 0.0)
        with pytest.raises(DomainError):
            chi(1, 1.0, -2.0)
        with pytest.raises(DomainError):
            chi(1, -1.0, 1.0)
        with pytest.raises(DomainError):
            chi(0, 1.0, 1.0)
        with pytest.raises(DomainError):
            chi(11, 1.0, 1.0)
        # NaN radii and momenta, alone or among good points, are rejected
        # rather than given the r = 0 limits
        for n in (1, 3):
            for r, k in ((math.nan, 1.0), ([0.5, math.nan], 1.0),
                         (1.0, math.nan), (1.0, [math.nan, 1.0])):
                with pytest.raises(DomainError):
                    chi(n, r, k)
        for n in (3.0, 2.5):
            with pytest.raises(DomainError, match="spatial dimension n must be an integer"):
                chi(n, 1.0, 1.0)
        # the r -> 0 limit checks n as chi does
        for n in (0, 11, 2.5):
            with pytest.raises(DomainError, match="spatial dimension"):
                chi_small_argument_limit(n, 1.0)

    def test_underflowing_argument_at_n1_names_r_and_k(self):
        # J_{-1/2} has no value where 2 pi r k underflows to 0 at r > 0:
        # DomainError naming the first such r and k, in either order
        for r, k in ((np.array([0.0, 5e-6, 1e-5]), 1e-320), (1e-320, np.array([1.0, 5e-6]))):
            with pytest.raises(DomainError, match=r"at r=(5e-06|1e-320), k=(1e-320|5e-06): "
                                                  "2 pi r k underflows to 0"):
                chi(1, r, k)
        # r = 0 is the limit, and a subnormal argument has a value
        assert chi(1, np.array([0.0, 0.0]), 1e-320).tolist() == [2.0, 2.0]
        assert abs(chi(1, 1e-160, 1e-160) - 2.0) < 1e-3
        # n = 2 keeps its value, 2 pi r J_0(0)
        assert chi(2, 1e-320, 5e-6) == 2.0 * math.pi * 1e-320

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_underflowing_argument_names_r_and_k(self, n):
        # 2 pi r k underflowing to 0 at r > 0 gave chi = 0 at n >= 3, where
        # the limit is 2 pi^{n/2} r^{n-1} / Gamma(n/2) (4 pi r^2 at n = 3)
        with pytest.raises(DomainError, match=rf"chi\({n}, r, k\) at r=1e-320, "
                                              r"k=5e-06: 2 pi r k underflows to 0"):
            chi(n, 1e-320, np.array([1e16, 5e-6]))
        # 2 pi r k = 6.3e-304: J_{n/2-1} is positive, or underflows where
        # the prefactor does too, as chi's limit does
        assert chi(n, 1e-320, 1e16) == 0.0

    def test_underflowing_bessel_factor_names_r_and_k(self):
        # 2 pi r k = 3.1e-320 is no underflow, but scipy's J_{1/2} is 0 there
        # (where it is about 1.4e-160), so chi read 0 for the limit pi
        with pytest.raises(DomainError, match=r"chi\(3, r, k\) at r=0.5, k=1e-320: "
                                              r"J_0.5\(2 pi r k\) underflows to 0"):
            chi(3, 0.5, 1e-320)
        assert chi(3, 0.5, 1e-150) == pytest.approx(4.0 * math.pi * 0.25, rel=1e-13)
        # a Bessel factor that underflows against a prefactor that does too
        # gives 0, as the limit, 2 pi^5 r^9 / 4!, does
        assert chi(10, 1e-80, 1.0) == 0.0

    @pytest.mark.parametrize("n, r, k", [(4, 0.5, 1e-320), (5, 1.0, 1e-310),
                                         (10, 1e300, 1.0), (10, 1.0, 1e-80)])
    def test_overflowing_prefactor_names_r_and_k(self, n, r, k):
        # k^{1-n/2} (or r^{n/2}) overflows: chi was inf * J, or NaN, with an
        # overflow warning, which the suite turns into an error
        message = f"chi({n}, r, k) at r={r!r}, k={k!r}: 2 pi r^({n}/2) k^(1-{n}/2) overflows"
        with pytest.raises(DomainError, match=re.escape(message)):
            chi(n, r, k)

    @pytest.mark.parametrize("k", [0.0, -1.0, math.nan])
    def test_small_argument_limit_needs_positive_k(self, k):
        with pytest.raises(DomainError, match="requires k > 0"):
            chi_small_argument_limit(1, k)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_envelope_bounds_chi(self, n):
        # the bound the truncation search relies on, for 2 pi r k >= 1
        for k in (0.3, 1.0, 2.5):
            r = np.geomspace(1.0, 400.0, 2000) / (2.0 * math.pi * k)
            assert np.all(np.abs(chi(n, r, k)) <= chi_envelope(n, k)(r))


class TestExactPhase:
    def test_values(self):
        assert exact_cos_sin_half_pi(0) == (1, 0)
        assert exact_cos_sin_half_pi(1) == (0, 1)
        assert exact_cos_sin_half_pi(2) == (-1, 0)
        assert exact_cos_sin_half_pi(3) == (0, -1)
        assert exact_cos_sin_half_pi(4) == (1, 0)


class TestMinkowskiKernel:
    S = np.linspace(0.05, 6.0, 40)

    def test_n1_timelike_timelike(self):
        from scipy.special import y0
        l = MomentumMagnitude(0.8, TL)
        got = minkowski_kernel(KernelSpec(1, TL, TP), self.S, l)
        ref = -2.0 * math.pi * self.S * y0(2.0 * math.pi * self.S * 0.8)
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-13)

    def test_n2_timelike_spacelike_vanishes(self):
        l = MomentumMagnitude(1.1, TL)
        got = minkowski_kernel(KernelSpec(2, TL, SP), self.S, l)
        assert np.all(got == 0.0)

    def test_n2_timelike_timelike_sine_form(self):
        l = MomentumMagnitude(1.1, TL)
        got = minkowski_kernel(KernelSpec(2, TL, TP), self.S, l)
        ref = -2.0 / 1.1 * self.S * np.sin(2.0 * math.pi * self.S * 1.1)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_even_n_bitwise_zero(self, n):
        l = MomentumMagnitude(0.7, TL)
        got = minkowski_kernel(KernelSpec(n, TL, SP), self.S, l)
        assert np.all(got == 0.0)
        # bitwise: positive zero everywhere
        assert np.all(np.signbit(got) == False)  # noqa: E712

    def test_vanishes_marks_exactly_the_zero_kernels(self, monkeypatch):
        def no_bessel(nu, x):
            raise AssertionError("a vanishing kernel evaluated a Bessel function")

        for n in range(1, 11):
            for char in (TL, SL):
                for branch in (TP, SP):
                    spec = KernelSpec(n, char, branch)
                    l = MomentumMagnitude(0.7, char)
                    assert spec.vanishes == (char is TL and branch is SP and n % 2 == 0)
                    if spec.vanishes:
                        with monkeypatch.context() as m:
                            m.setattr(lorentzft.kernels, "bessel_k", no_bessel)
                            assert np.all(minkowski_kernel(spec, self.S, l) == 0.0)
                    else:
                        assert np.any(minkowski_kernel(spec, self.S, l) != 0.0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_the_docstring_formula(self, n):
        # the module docstring's four weights, written with scipy directly
        from scipy.special import jv, kv, yv
        nu = (n - 1) / 2.0
        cos, sin = [(1, 0), (0, 1), (-1, 0), (0, -1)][(n - 1) % 4]
        s = np.geomspace(1e-3, 30.0, 200)
        for lv in (0.3, 1.0, 2.7):
            z = 2.0 * math.pi * s * lv
            pref = s ** ((n + 1) / 2.0) / lv ** ((n - 1) / 2.0)
            refs = {
                (TL, TP): -2.0 * math.pi * pref * (yv(nu, z) * cos + jv(nu, z) * sin),
                (TL, SP): 4.0 * pref * kv(nu, z) * cos,
                (SL, TP): 4.0 * pref * kv(nu, z),
                (SL, SP): -2.0 * math.pi * pref * yv(nu, z),
            }
            for (char, branch), ref in refs.items():
                got = minkowski_kernel(KernelSpec(n, char, branch), s,
                                       MomentumMagnitude(lv, char))
                assert np.allclose(got, ref, rtol=1e-13, atol=0.0), (char, branch, lv)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_envelope_bounds_kernel(self, n):
        # the bound the truncation search relies on, for 2 pi s l in [3, 1e4]
        for char in (TL, SL):
            for branch in (TP, SP):
                spec = KernelSpec(n, char, branch)
                if spec.vanishes:
                    continue
                for lv in (0.3, 1.0, 2.7):
                    s = np.geomspace(3.0, 1e4, 2000) / (2.0 * math.pi * lv)
                    l = MomentumMagnitude(lv, char)
                    assert np.all(np.abs(minkowski_kernel(spec, s, l))
                                  <= kernel_envelope(spec, l)(s)), (char, branch, lv)

    def test_char_mismatch(self):
        l = MomentumMagnitude(1.0, SL)
        with pytest.raises(DomainError):
            minkowski_kernel(KernelSpec(1, TL, TP), 1.0, l)

    def test_lightlike_rejected(self):
        with pytest.raises(DomainError):
            MomentumMagnitude(0.0, TL)
        with pytest.raises(DomainError):
            MomentumMagnitude(-1.0, SL)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(DomainError, match="finite"):
            MomentumMagnitude(value, TL)

    def test_bad_dimension(self):
        with pytest.raises(DomainError):
            KernelSpec(0, TL, TP)
        with pytest.raises(DomainError):
            KernelSpec(11, TL, TP)
        for n in (2.0, 2.5):
            with pytest.raises(DomainError, match="spatial dimension n must be an integer"):
                KernelSpec(n, TL, TP)
        assert KernelSpec(np.int64(3), TL, TP).weight == KernelSpec(3, TL, TP).weight

    def test_bool_dimension_rejected(self):
        # bool is an int subclass; True would otherwise pass as n = 1
        for n in (True, False):
            with pytest.raises(DomainError, match="spatial dimension n must be an integer"):
                lorentzft.kernels.check_dimension(n)
        lorentzft.kernels.check_dimension(1)
        lorentzft.kernels.check_dimension(np.int64(1))

    def test_weight_names_its_function(self):
        z = {(n, char, branch): KernelSpec(n, char, branch).weight[1]
             for n in range(1, 11) for char in (TL, SL) for branch in (TP, SP)}
        for (n, char, branch), fn in z.items():
            if branch is TP:
                want = bessel_k if char is SL else (bessel_n if n % 2 else bessel_j)
            else:
                want = bessel_n if char is SL else bessel_k
            assert fn is want, (n, char, branch)

    def test_s_zero_limit(self):
        assert minkowski_kernel(KernelSpec(1, TL, TP), 0.0,
                                MomentumMagnitude(1.0, TL)) == 0.0
        assert minkowski_kernel(KernelSpec(3, SL, SP), 0.0,
                                MomentumMagnitude(1.0, SL)) == 0.0

    # 200 points, and enough to split the Bessel call over the pool
    @pytest.mark.parametrize("s", [np.geomspace(1e-3, 30.0, 200),
                                   np.geomspace(1e-3, 300.0, 30000)])
    def test_positive_points_match_the_masked_path(self, s):
        # an all-positive array is weighted whole; with s = 0 in front, the
        # same points go through the mask and must give the same bits
        with_zero = np.concatenate([[0.0], s])
        for n in range(1, 11):
            for char in (TL, SL):
                for branch in (TP, SP):
                    spec, l = KernelSpec(n, char, branch), MomentumMagnitude(0.7, char)
                    whole = minkowski_kernel(spec, s, l)
                    masked = minkowski_kernel(spec, with_zero, l)
                    assert masked[0] == 0.0
                    assert np.array_equal(whole.view(np.int64), masked[1:].view(np.int64)), \
                        (n, char, branch)

    def test_empty_input(self):
        for char in (TL, SL):
            for branch in (TP, SP):
                got = minkowski_kernel(KernelSpec(3, char, branch), np.array([]),
                                       MomentumMagnitude(0.7, char))
                assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_underflowing_argument_names_the_momentum(self):
        # 2 pi s l underflows to 0 at the least s > 0, where no Bessel value
        # exists: DomainError naming l, for every nonvanishing kernel
        s = np.array([1e-20, 1.0])
        for n in (1, 2, 5):
            for char in (TL, SL):
                for branch in (TP, SP):
                    spec, l = KernelSpec(n, char, branch), MomentumMagnitude(1e-308, char)
                    if spec.vanishes:
                        assert not minkowski_kernel(spec, s, l).any()
                        continue
                    with pytest.raises(DomainError, match=r"l=1e-308 is too small"):
                        minkowski_kernel(spec, s, l)
                    # s = 0 is the kernel's limit, with no Bessel value
                    assert minkowski_kernel(spec, np.array([0.0, 0.0]), l).tolist() == [0.0, 0.0]
        # a subnormal argument passes the check
        spec, l = KernelSpec(3, SL, TP), MomentumMagnitude(1e-300, SL)
        assert 2.0 * math.pi * 1e-20 * 1e-300 > 0
        with np.errstate(all="ignore"):
            assert minkowski_kernel(spec, s, l).shape == (2,)

    def test_weight_not_finite_at_unit_radius_names_the_momentum(self):
        # N and K overflow against 1 / l^((n-1)/2) at n = 3; at n = 4 that
        # prefactor is inf and J_{3/2} underflows to 0 (NaN)
        for n, char, branch in ((3, SL, SP), (3, SL, TP), (3, TL, TP), (4, TL, TP)):
            with pytest.raises(DomainError, match=rf"l=1e-300 is too small: "
                                                  rf"the n={n} weight is not finite"):
                check_weight(KernelSpec(n, char, branch), MomentumMagnitude(1e-300, char))
        # a vanishing kernel, a finite weight at a tiny momentum (n = 1) and
        # a large momentum pass
        check_weight(KernelSpec(4, TL, SP), MomentumMagnitude(1e-300, TL))
        check_weight(KernelSpec(1, SL, SP), MomentumMagnitude(1e-300, SL))
        check_weight(KernelSpec(10, SL, SP), MomentumMagnitude(1e30, SL))

    def test_nan_and_zero_entries(self):
        spec, l = KernelSpec(3, SL, SP), MomentumMagnitude(0.7, SL)
        got = minkowski_kernel(spec, np.array([0.0, 1.5]), l)
        assert got[0] == 0.0
        assert got[1] == minkowski_kernel(spec, 1.5, l) != 0.0
        # a NaN point, alone or among others, is rejected like a negative one,
        # for the vanishing kernels too
        for spec in (spec, KernelSpec(2, TL, SP)):
            l = MomentumMagnitude(0.7, spec.momentum_char)
            for s in (math.nan, [math.nan, 0.0, 1.5], [0.0, 1.5, math.nan], [-1.0],
                      [math.nan, -1.0], [-1.0, math.nan]):
                with pytest.raises(DomainError, match="s >= 0"):
                    minkowski_kernel(spec, np.array(s), l)


class TestReductionSuite:
    def test_all_reductions_pass(self):
        for c in suite_reduction():
            assert c.passed, f"{c.name}: worst scaled gap {c.gap:.3e}"


class TestChiSuite:
    def test_ode_and_small_argument(self):
        for c in suite_chi():
            assert c.passed, f"{c.name}: gap {c.gap:.3e} tol {c.tol:.3e}"


class TestClosureRhs:
    def test_h1_step(self):
        # h = 1: 2 pi u above the step, 0 below
        assert abs(closure_rhs(1, 3, 1.0, 2.0) - 4.0 * math.pi) < 1e-14
        assert closure_rhs(1, 3, 1.0, 0.5) == 0.0

    def test_h2_value(self):
        # h = 2 at u = 2, k = 1: (2 pi^2 / 1!) * 2 * 3 = 12 pi^2
        assert abs(closure_rhs(1, 5, 1.0, 2.0) - 12.0 * math.pi ** 2) \
            <= 1e-13 * 12.0 * math.pi ** 2

    def test_invalid_pairs(self):
        with pytest.raises(DomainError):
            closure_rhs(3, 1, 1.0, 2.0)
        with pytest.raises(DomainError):
            closure_rhs(1, 2, 1.0, 2.0)
        with pytest.raises(DomainError):
            closure_rhs(1, 3, 0.0, 2.0)
        # both dimensions are checked as chi checks them
        for n, m in ((1, 13), (1.5, 3.5), (0, 2), (11, 13)):
            with pytest.raises(DomainError, match="spatial dimension"):
                closure_rhs(n, m, 1.0, 2.0)
