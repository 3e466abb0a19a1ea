"""Cartesian window oracle and the angular-integral identities."""

import dataclasses
import importlib.util
import io
import math
import pathlib
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lorentzft import oracle, specfun
from lorentzft.kernels import MomentumChar, MomentumMagnitude
from lorentzft.oracle import (
    AngularIdentity,
    AngularIdentityKind,
    _box_halfwidth,
    angular_quad_config,
    cartesian_ft_1p1,
    cartesian_ft_1p2,
    check_angular_identity,
    window_config_for,
)
from lorentzft.profiles import (
    PROFILE_CSV_HEADER,
    RadialProfile,
    builtin_profile,
    complex_pchip,
    profile_from_csv,
)
from lorentzft.quadrature import QuadConfig, QuadResult, _gauss_legendre, _panel_nodes
from lorentzft.specfun import DomainError
from lorentzft.transform import gaussian_reference, transform
from test_specfun import CountingPool

TL, SL = MomentumChar.TIMELIKE, MomentumChar.SPACELIKE

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_ORACLE = ROOT / "tests" / "data" / "golden_oracle.txt"
GOLDEN_RADIAL = ROOT / "tests" / "data" / "golden_radial.txt"


def _byte_sweep():
    """tools/byte_sweep.py as a module: it holds the golden set's lines."""
    spec = importlib.util.spec_from_file_location("byte_sweep",
                                                  ROOT / "tools" / "byte_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        for a in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                AngularIdentity(AngularIdentityKind.SINH_TO_K0, a)


class TestWindowConfig:
    # window_config_for returns the radial engine's QuadConfig, which
    # validates the eta schedule; the box halfwidths follow from eta
    def test_validation(self):
        profile = builtin_profile("compact_bump")
        mom = MomentumMagnitude(1.0, TL)
        with pytest.raises(ValueError):
            window_config_for(profile, mom, n_etas=0)
        with pytest.raises(ValueError):
            window_config_for(profile, mom, eta0=-0.01)
        with pytest.raises(ValueError):
            window_config_for(profile, mom, eta0=math.nan)
        # n_etas is checked where it enters, not by range() further down
        for n_etas in (2.5, 3.0):
            with pytest.raises(ValueError, match="integer"):
                window_config_for(profile, mom, n_etas=n_etas)
        # dims selects the schedule, so only the oracle's dimensions pass;
        # bool is an int subclass, and True == 1 would pass as dims=1
        for dims in (0, 3, 1.5, True, False):
            with pytest.raises(DomainError):
                window_config_for(profile, mom, dims=dims)

    def test_bool_n_etas_rejected(self):
        # bool is an int subclass; True would otherwise give a one-eta schedule
        profile = builtin_profile("compact_bump")
        mom = MomentumMagnitude(1.0, TL)
        for n_etas in (True, False):
            with pytest.raises(ValueError, match="n_etas must be an integer"):
                window_config_for(profile, mom, n_etas=n_etas)
        assert window_config_for(profile, mom, n_etas=np.int64(4)) == \
            window_config_for(profile, mom, n_etas=4)

    def test_factory_monotone(self):
        profile = builtin_profile("compact_bump")
        w = window_config_for(profile, MomentumMagnitude(1.0, TL))
        box = [_box_halfwidth(profile, eta) for eta in w.epsilon_schedule]
        assert all(b2 >= b1 for b1, b2 in zip(box, box[1:]))

    @pytest.mark.parametrize("name, n_etas, eta0, schedule_length, order", [
        ("compact_bump", None, 0.01, 6, 3),
        ("gauss_oscillatory", None, 0.08, 3, 2),
        ("compact_bump", 1, 0.01, 1, 0),
        ("compact_bump", 2, 0.01, 2, 1),
        ("gauss_oscillatory", 5, 0.08, 5, 3),
    ])
    def test_quad_config(self, name, n_etas, eta0, schedule_length, order):
        w = window_config_for(builtin_profile(name), MomentumMagnitude(1.0, TL),
                              n_etas=n_etas)
        assert w == QuadConfig(abs_tol=1e-5, rel_tol=1e-3,
                               epsilon_schedule=tuple(eta0 * 2.0 ** (-j)
                                                      for j in range(schedule_length)),
                               extrapolation_order=order)

    def test_quad_config_1p2(self):
        # dims=2 gives a compact profile the 1+2 schedule (0.02, 5); an
        # unbounded profile's schedule does not depend on dims
        mom = MomentumMagnitude(1.0, TL)
        bump, gauss = builtin_profile("compact_bump"), builtin_profile("gauss_oscillatory")
        assert window_config_for(bump, mom, dims=2) == \
            window_config_for(bump, mom, eta0=0.02, n_etas=5)
        assert window_config_for(bump, mom, dims=2, n_etas=4) == \
            window_config_for(bump, mom, eta0=0.02, n_etas=4)
        assert window_config_for(gauss, mom, dims=2) == window_config_for(gauss, mom)


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

    def test_scalar_zero_branch_as_array_zero(self):
        # the branch contract: a constant branch may return a scalar
        array = _spacelike_only_bump()
        scalar = RadialProfile(f_timelike=lambda s: 0.0, f_spacelike=array.f_spacelike,
                               support_radius=1.0)
        mom = MomentumMagnitude(1.0, TL)
        cfg = window_config_for(array, mom, n_etas=2)
        assert cartesian_ft_1p1(scalar, mom, cfg) == cartesian_ft_1p1(array, mom, cfg)

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


class TestOneEta:
    @pytest.mark.parametrize("char", [TL, SL])
    def test_one_eta_is_unbounded(self, char):
        # one eta bounds no extrapolation error; the value is the windowed
        # integral at that eta, as in a longer schedule
        bump = builtin_profile("compact_bump")
        k = MomentumMagnitude(0.5, char)
        one = window_config_for(bump, k, n_etas=1)
        res = cartesian_ft_1p1(bump, k, one)
        assert res.error_estimate == math.inf
        assert not res.converged
        two = QuadConfig(abs_tol=one.abs_tol, rel_tol=one.rel_tol,
                         epsilon_schedule=(0.02,) + one.epsilon_schedule,
                         extrapolation_order=0)
        assert res.value == cartesian_ft_1p1(bump, k, two).value


class TestCartesian1p2:
    def test_zero_profile(self):
        profile = builtin_profile("zero")
        mom = MomentumMagnitude(1.0, TL)
        res = cartesian_ft_1p2(profile, mom,
                               window_config_for(profile, mom, dims=2, n_etas=4))
        assert abs(res.value) < 1e-12

    def test_spacelike_only_bump_timelike_momentum(self):
        # even spatial dimension: no contribution from the spacelike region
        profile = _spacelike_only_bump()
        for k in (0.5, 1.0):
            mom = MomentumMagnitude(k, TL)
            w = window_config_for(profile, mom, dims=2)
            res = cartesian_ft_1p2(profile, mom, w)
            assert abs(res.value) <= 5e-3

    @pytest.mark.parametrize("char", [TL, SL])
    def test_bump_vs_radial(self, char):
        profile = builtin_profile("compact_bump")
        mom = MomentumMagnitude(0.5, char)
        ref = transform(2, profile, mom, QuadConfig()).value
        w = window_config_for(profile, mom, dims=2)
        res = cartesian_ft_1p2(profile, mom, w)
        assert abs(res.value - ref) <= 5e-3 * abs(ref)

    def test_noncompact_rejected(self):
        profile = builtin_profile("gauss_oscillatory")
        mom = MomentumMagnitude(1.0, TL)
        w = window_config_for(builtin_profile("compact_bump"), mom, dims=2,
                              n_etas=3)
        with pytest.raises(DomainError):
            cartesian_ft_1p2(profile, mom, w)


class TestZeroSupport:
    # a profile supported on s = 0 alone: one CSV row at s = 0, or a bump
    # declared with support radius 0; its transform is exactly 0
    @staticmethod
    def _profiles():
        csv_text = ",".join(PROFILE_CSV_HEADER) + "\n0,1,0,1,0\n"
        bump = builtin_profile("compact_bump")
        return (profile_from_csv(io.StringIO(csv_text)),
                RadialProfile(f_timelike=bump.f_timelike, f_spacelike=bump.f_spacelike,
                              support_radius=0.0))

    @pytest.mark.parametrize("n, oracle_ft", [(1, cartesian_ft_1p1), (2, cartesian_ft_1p2)],
                             ids=["1p1", "1p2"])
    @pytest.mark.parametrize("char", [TL, SL])
    def test_exact_zero_as_transform_gives(self, n, oracle_ft, char):
        mom = MomentumMagnitude(0.5, char)
        for profile in self._profiles():
            cfg = window_config_for(profile, mom, dims=n)
            res = oracle_ft(profile, mom, cfg)
            assert res == QuadResult(0j, 0.0, True, 0, ())
            assert res == transform(n, profile, mom, cfg)


class TestBadSupportRadius:
    # transform's ValueError, raised before the profile is evaluated once
    @pytest.mark.parametrize("n, oracle_ft", [(1, cartesian_ft_1p1), (2, cartesian_ft_1p2)],
                             ids=["1p1", "1p2"])
    @pytest.mark.parametrize("radius", [math.nan, -1.0, math.inf])
    def test_raises_before_any_evaluation(self, n, oracle_ft, radius):
        bump = builtin_profile("compact_bump")
        calls = []

        def branch(s):
            calls.append(s)
            return bump.f_timelike(s)

        profile = RadialProfile(f_timelike=branch, f_spacelike=branch,
                                support_radius=radius)
        mom = MomentumMagnitude(0.5, TL)
        cfg = window_config_for(bump, mom, dims=n)
        with pytest.raises(ValueError, match="support_radius"):
            oracle_ft(profile, mom, cfg)
        with pytest.raises(ValueError, match="support_radius"):
            transform(n, profile, mom, cfg)
        assert calls == []


class TestBadPhaseScale:
    # transform's ValueError, raised before the profile is evaluated once
    @pytest.mark.parametrize("n, oracle_ft, name", [
        (1, cartesian_ft_1p1, "gauss_oscillatory"),
        (1, cartesian_ft_1p1, "compact_bump"),
        (2, cartesian_ft_1p2, "compact_bump"),
    ], ids=["1p1-unbounded", "1p1-compact", "1p2-compact"])
    @pytest.mark.parametrize("phase_scale", [math.nan, -1.0, math.inf])
    def test_raises_before_any_evaluation(self, n, oracle_ft, name, phase_scale):
        base = builtin_profile(name)
        calls = []

        def branch(s):
            calls.append(s)
            return base.f_timelike(s)

        profile = RadialProfile(f_timelike=branch, f_spacelike=branch,
                                envelope_hint=base.envelope_hint,
                                support_radius=base.support_radius,
                                phase_scale=phase_scale)
        mom = MomentumMagnitude(1.0, TL)
        cfg = window_config_for(base, mom, dims=n)
        with pytest.raises(ValueError, match="phase rates"):
            oracle_ft(profile, mom, cfg)
        assert calls == []
        with pytest.raises(ValueError, match="phase rates"):
            transform(n, profile, mom, cfg)


class TestCellCap:
    # an axis past the cap would need a cells x cells product of many GB
    @pytest.mark.parametrize("n, oracle_ft, name, k, phase_scale", [
        (1, cartesian_ft_1p1, "compact_bump", 100.0, 0.0),
        (2, cartesian_ft_1p2, "compact_bump", 100.0, 0.0),
        (1, cartesian_ft_1p1, "gauss_oscillatory", 1.0, 100.0),
    ], ids=["1p1-compact-k100", "1p2-compact-k100", "1p1-unbounded-phase100"])
    def test_raises_before_any_evaluation(self, n, oracle_ft, name, k, phase_scale):
        base = builtin_profile(name)
        calls = []

        def branch(s):
            calls.append(s)
            return base.f_timelike(s)

        profile = RadialProfile(f_timelike=branch, f_spacelike=branch,
                                envelope_hint=base.envelope_hint,
                                support_radius=base.support_radius,
                                phase_scale=phase_scale)
        mom = MomentumMagnitude(k, TL)
        with pytest.raises(DomainError, match=f"more than {oracle._MAX_CELLS} cells"):
            oracle_ft(profile, mom, window_config_for(base, mom, dims=n))
        assert calls == []

    @pytest.mark.parametrize("name", ["compact_bump", "gauss_oscillatory"])
    def test_an_axis_of_the_cap_is_admitted(self, name, monkeypatch):
        profile = builtin_profile(name)
        L = _box_halfwidth(profile, 0.02)
        cells = len(oracle._axis_edges(profile, L, 2.0)) - 1
        monkeypatch.setattr(oracle, "_MAX_CELLS", cells)
        assert len(oracle._axis_edges(profile, L, 2.0)) - 1 == cells
        monkeypatch.setattr(oracle, "_MAX_CELLS", cells - 1)
        with pytest.raises(DomainError, match=f"more than {cells - 1} cells"):
            oracle._axis_edges(profile, L, 2.0)


def _window_integral_per_block(eta, k, plane, edges, w_lo, w_hi):
    """The plane integral with one f(u v) call per einsum block, element by
    element through `profile_on_invariant` for a profile: the loop that
    `oracle._window_integral` splits into pieces and sign groups, kept as
    a reference."""
    fw = (oracle.profile_on_invariant(plane) if isinstance(plane, RadialProfile)
          else plane)
    xg, wg = _gauss_legendre(oracle._GLN)
    nodes, half = _panel_nodes(edges, xg)
    window = half[:, None] * wg[None, :] * np.exp(-eta * nodes ** 2 / 2.0)
    sign_u = 1.0 if k.char is MomentumChar.SPACELIKE else -1.0
    pu = window * np.exp(sign_u * 1j * math.pi * k.value * nodes)
    pv = window * np.exp(-1j * math.pi * k.value * nodes)
    nearest = np.clip(0.0, edges[:-1], edges[1:])
    wmin = nearest[:, None] * nearest[None, :]
    iu, iv = np.nonzero((w_lo <= wmin) & (wmin <= w_hi))
    total = 0.0 + 0.0j
    for c0 in range(0, len(iu), oracle._BLOCK):
        bu, bv = iu[c0:c0 + oracle._BLOCK], iv[c0:c0 + oracle._BLOCK]
        g = fw(nodes[bu][:, :, None] * nodes[bv][:, None, :])
        total += np.einsum("ci,cij,cj->", pu[bu], g, pv[bv])
    return 0.5 * total, len(iu) * oracle._GLN * oracle._GLN


class TestPieces:
    # the plane integrand is evaluated in pieces (1+1: _PIECE cell pairs, one
    # branch call per sign of u v in a piece; 1+2: _RUN pairs of the table,
    # shared between the caller and the pool), each run's einsum sum is kept
    # and the runs are folded in order into each _BLOCK's sum; none of it
    # changes a bit or a count against one einsum per block
    CASES = [
        pytest.param(1, "compact_bump", 1.0, TL, {}, id="1p1-bump-timelike"),
        pytest.param(1, "compact_bump", 1.0, SL, {}, id="1p1-bump-spacelike"),
        pytest.param(2, "compact_bump", 0.5, TL, {"n_etas": 3}, id="1p2-bump"),
        # etas 0.16 and 0.08: 1.3 and 5.3 blocks, pieces spanning both signs of w
        pytest.param(1, "gauss_oscillatory", 1.0, TL, {"eta0": 0.16, "n_etas": 2},
                     id="1p1-gauss-cheap"),
        # etas 0.31 and 0.155: 27 and 54 cells an axis; at 27 the middle cell
        # straddles u = 0, so its pairs take profile_on_invariant's path
        pytest.param(1, "gauss_oscillatory", 1.0, SL, {"eta0": 0.31, "n_etas": 2},
                     id="1p1-gauss-straddling"),
        # etas 100 and 50: 2 cells an axis, so 4 pairs, one short run and no
        # full one
        pytest.param(1, "gauss_oscillatory", 1.0, TL, {"eta0": 100.0, "n_etas": 2},
                     id="1p1-gauss-one-short-run"),
        # etas 0.02 and 0.01: 2714 and 4654 pairs, 1.3 and 2.3 blocks, each
        # ending in a short run (26 and 14 pairs)
        pytest.param(2, "compact_bump", 1.0, TL, {"n_etas": 2},
                     id="1p2-bump-short-last-run"),
        # the default schedule: 1962 to 18,166 pairs, up to 8.9 blocks
        pytest.param(2, "compact_bump", 0.79, SL, {}, id="1p2-bump-spacelike"),
    ]

    @pytest.mark.parametrize("n, name, k, char, schedule", CASES)
    def test_equal_to_one_call_per_block(self, n, name, k, char, schedule, monkeypatch):
        profile, mom = builtin_profile(name), MomentumMagnitude(k, char)
        cfg = window_config_for(profile, mom, dims=n, **schedule)
        oracle_ft = {1: cartesian_ft_1p1, 2: cartesian_ft_1p2}[n]
        res = oracle_ft(profile, mom, cfg)
        monkeypatch.setattr(oracle, "_window_integral", _window_integral_per_block)
        assert res == oracle_ft(profile, mom, cfg)

    def test_straddling_cell_in_the_case(self):
        profile = builtin_profile("gauss_oscillatory")
        L = _box_halfwidth(profile, 0.31)
        nodes, _ = _panel_nodes(oracle._axis_edges(profile, L, 1.0),
                                _gauss_legendre(oracle._GLN)[0])
        signs = oracle._cell_signs(nodes)
        assert len(signs) % 2 == 1 and list(signs).count(0) == 1

    def test_calls_bounded_by_piece(self):
        sizes = []

        def counting(branch):
            def counted(s):
                assert s.ndim == 1
                sizes.append(s.size)
                return branch(s)
            return counted

        bump, mom = builtin_profile("compact_bump"), MomentumMagnitude(1.0, TL)
        profile = RadialProfile(f_timelike=counting(bump.f_timelike),
                                f_spacelike=counting(bump.f_spacelike),
                                support_radius=bump.support_radius)
        res = cartesian_ft_1p1(profile, mom, window_config_for(profile, mom))
        assert max(sizes) <= oracle._PIECE * oracle._GLN ** 2
        assert sum(sizes) == res.evaluations
        assert res.evaluations > oracle._BLOCK * oracle._GLN ** 2

    @pytest.mark.parametrize("pairs", [1, 31, 32, 33, 128, 2047, 2048])
    def test_run_sums_fold_to_the_block_einsum(self, pairs):
        # numpy's einsum sums a block in buffers of _RUN pairs, each from 0
        # and added to the block's sum in order; the batched form's runs are
        # those of one call per run
        rng = np.random.default_rng(pairs)
        n = oracle._GLN

        def operand(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        a, g, b = operand(pairs, n), operand(pairs, n, n), operand(pairs, n)
        runs = oracle._run_sums(a, g, b)
        starts = range(0, pairs, oracle._RUN)
        assert len(runs) == len(starts)
        for run, r in zip(runs, starts):
            one = np.einsum("ci,cij,cj->", *(x[r:r + oracle._RUN] for x in (a, g, b)))
            assert run == one
        fold = 0.0 + 0.0j
        for run in runs:
            fold += run
        assert fold == np.einsum("ci,cij,cj->", a, g, b)


class TestOracleMemory:
    # the traced peak of one oracle call: at most one _PIECE of plane values
    # and its temporaries beside the cell-pair selection and the transverse
    # table.  Measured 2.5 MiB (1+1) and 5.1 MiB (1+2); one value buffer of
    # 2048 pairs read 9.7 and 12.6 MiB
    @pytest.mark.parametrize("n, char, k, bound_mib", [
        (1, TL, 0.98, 4.0), (2, SL, 0.79, 7.0)], ids=["1p1-compact", "1p2"])
    def test_peak(self, n, char, k, bound_mib):
        profile, mom = builtin_profile("compact_bump"), MomentumMagnitude(k, char)
        cfg = window_config_for(profile, mom, dims=n)
        oracle_ft = {1: cartesian_ft_1p1, 2: cartesian_ft_1p2}[n]
        oracle_ft(profile, mom, cfg)        # caches
        tracemalloc.start()
        try:
            oracle_ft(profile, mom, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20


def _recording_tables(monkeypatch, plane=None):
    """Patch the oracle's `complex_pchip` so that every transverse table it
    builds appends (table index, thread) to the returned list on each call,
    and then calls `plane(table index, evaluator, w)` if given."""
    calls, built = [], []
    real = oracle.complex_pchip

    def pchip(x, y):
        f, index = real(x, y), len(built)
        built.append(index)

        def table(w):
            calls.append((index, threading.get_ident()))
            return f(w) if plane is None else plane(index, f, w)
        return table

    monkeypatch.setattr(oracle, "complex_pchip", pchip)
    return calls


class TestParallelWork:
    # the benchmark's tracer keeps one span stack, and the profile branches
    # may be any callable: no traced name and no profile branch runs off the
    # caller's thread.  Only the 1+2 plane's table pieces, the evaluator of
    # `complex_pchip` (numpy calls, no package name), go to the pool
    MOM = MomentumMagnitude(0.79, SL)

    @staticmethod
    def _cfg(n):
        return window_config_for(builtin_profile("compact_bump"), TestParallelWork.MOM,
                                 dims=n, n_etas=2)

    @pytest.mark.parametrize("n, name", [(1, "compact_bump"), (1, "gauss_oscillatory"),
                                         (2, "compact_bump")])
    def test_traced_names_and_branches_run_on_the_caller(self, n, name, monkeypatch):
        calls = []

        def record(label, fn):
            def wrapper(*args, **kwargs):
                calls.append((label, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        for label in ("extrapolate_to_zero", "window_config_for"):
            monkeypatch.setattr(oracle, label, record(label, getattr(oracle, label)))
        profile = builtin_profile(name)
        profile = dataclasses.replace(
            profile, f_timelike=record("timelike", profile.f_timelike),
            f_spacelike=record("spacelike", profile.f_spacelike))
        tables = _recording_tables(monkeypatch)
        oracle_ft = {1: oracle.cartesian_ft_1p1, 2: oracle.cartesian_ft_1p2}[n]
        with CountingPool() as pool:
            monkeypatch.setattr(specfun, "_pool", pool)
            oracle_ft(profile, self.MOM, oracle.window_config_for(profile, self.MOM,
                                                                  dims=n, n_etas=2))
        assert {label for label, _ in calls} == {
            "timelike", "spacelike", "extrapolate_to_zero", "window_config_for"}
        assert {ident for _, ident in calls} == {threading.get_ident()}
        # 1+2 sends one share of each eta's table pieces to the pool
        assert pool.tasks == (2 if n == 2 else 0)
        assert len(tables) > 0 if n == 2 else tables == []

    def test_table_pieces_run_on_two_threads(self, monkeypatch):
        tables = _recording_tables(monkeypatch)
        with CountingPool() as pool:
            monkeypatch.setattr(specfun, "_pool", pool)
            cartesian_ft_1p2(builtin_profile("compact_bump"), self.MOM, self._cfg(2))
        for index in (0, 1):
            threads = [ident for i, ident in tables if i == index]
            # pieces are dealt in turn, the first to the caller, whose share
            # is the larger by one for an odd count
            assert len(set(threads)) == 2
            caller = threads.count(threading.get_ident())
            assert caller == (len(threads) + 1) // 2

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("where", ["real pool", "two workers", "three workers",
                                       "in a pool block"])
    def test_same_bits_wherever_it_runs(self, n, where, monkeypatch):
        profile, cfg = builtin_profile("compact_bump"), self._cfg(n)
        oracle_ft = {1: cartesian_ft_1p1, 2: cartesian_ft_1p2}[n]
        monkeypatch.setattr(specfun, "_pool", None)
        alone = oracle_ft(profile, self.MOM, cfg)
        if where == "real pool":
            monkeypatch.undo()
            assert oracle_ft(profile, self.MOM, cfg) == alone
            return
        tables = _recording_tables(monkeypatch)
        with ThreadPoolExecutor(3 if where == "three workers" else 2) as pool:
            monkeypatch.setattr(specfun, "_pool", pool)
            if where == "in a pool block":
                # one inline share on the block's thread: no deadlock
                res = pool.submit(specfun._block_context().run, oracle_ft, profile,
                                  self.MOM, cfg).result()
                threads = {ident for _, ident in tables}
                assert len(threads) == (1 if n == 2 else 0)
                assert threading.get_ident() not in threads
            else:
                res = oracle_ft(profile, self.MOM, cfg)
                assert len({ident for _, ident in tables}) == (
                    0 if n == 1 else 3 if where == "three workers" else 2)
        assert res == alone

    def test_same_bits_with_more_shares_than_cpus(self, monkeypatch):
        # each share writes its own runs of one array: with more shares than
        # CPUs and a thread switch every 10 microseconds, a lost or misplaced
        # run would change the value
        profile, cfg = builtin_profile("compact_bump"), self._cfg(2)
        monkeypatch.setattr(specfun, "_pool", None)
        alone = cartesian_ft_1p2(profile, self.MOM, cfg)
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(2 * specfun._cpu_count() + 1) as pool:
            monkeypatch.setattr(specfun, "_pool", pool)
            sys.setswitchinterval(1e-5)
            try:
                assert cartesian_ft_1p2(profile, self.MOM, cfg) == alone
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.parametrize("raising", [(1,), (0,), (0, 1)],
                             ids=["worker", "caller", "both"])
    def test_an_error_is_raised_after_every_share_finishes(self, raising, monkeypatch):
        profile, cfg = builtin_profile("compact_bump"), self._cfg(2)
        # the first eta's pieces: the caller's share takes the even ones
        clean = _recording_tables(monkeypatch)
        monkeypatch.setattr(specfun, "_pool", None)
        cartesian_ft_1p2(profile, self.MOM, cfg)
        pieces = sum(index == 0 for index, _ in clean)
        caller = threading.get_ident()

        def plane(index, f, w):
            share = 0 if threading.get_ident() == caller else 1
            if share in raising:
                raise RuntimeError(f"share {share}")
            if share == 1:
                time.sleep(0.002)   # the worker's share ends well after the caller's
            return f(w)

        tables = _recording_tables(monkeypatch, plane)
        with CountingPool() as pool:
            monkeypatch.setattr(specfun, "_pool", pool)
            with pytest.raises(RuntimeError, match=f"share {raising[0]}"):
                cartesian_ft_1p2(profile, self.MOM, cfg)
            # raised from the first eta, after a share that did not raise had
            # made every call of its own, and a raising share its first only
            # (read before the pool's exit waits for its workers)
            threads = [ident for _, ident in tables]
            made = {0: threads.count(caller), 1: len(threads) - threads.count(caller)}
        assert {index for index, _ in tables} == {0}
        share_pieces = {0: (pieces + 1) // 2, 1: pieces // 2}
        for share in (0, 1):
            assert made[share] == (1 if share in raising else share_pieces[share])


def _scipy_pchip(x, y):
    """The reference: scipy's interpolant of both parts, nan set to 0."""
    from scipy.interpolate import PchipInterpolator
    interp = PchipInterpolator(x, np.column_stack([y.real, y.imag]),
                               extrapolate=False)

    def f(xq):
        v = interp(np.asarray(xq, dtype=float))
        v[np.isnan(v)] = 0.0
        return v[..., 0] + 1j * v[..., 1]

    return f


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype == complex
            and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def _transverse_knots(eta):
    """The knots and samples of the bump's 1+2 transverse table at eta."""
    seen = []

    def record(x, y):
        seen.append((x, y))
        return complex_pchip(x, y)

    fw = oracle.profile_on_invariant(builtin_profile("compact_bump"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "complex_pchip", record)
        oracle._transverse_table(fw, 1.0, eta)
    return seen[0]


def _pchip_tables():
    """(id, x, y): seeded tables covering the derivative rule's branches."""
    rng = np.random.default_rng(2604)
    tables = [
        ("two-knots", np.array([-0.5, 2.0]), np.array([1.0 - 2.0j, -3.0 + 0.5j])),
        # a -0.0 sample where scipy's sum, started from 0.0, gives +0.0
        ("signed-zero", np.array([0.180479, 0.50913159, 1.0334836]),
         np.array([2.04824527 - 1.23849129j, -0.0 - 1.650011j,
                   -3.29122601 - 1.52703244j])),
    ]
    for j in range(8):
        n = (3, 4, 7, 40)[j % 4]
        x = np.cumsum(rng.exponential(size=n)) - 1.0
        ties = np.round(rng.normal(size=(2, n)))
        tables += [
            (f"ties-zero-slopes-{j}", x, ties[0] + 1j * ties[1]),
            (f"sign-changes-{j}", x,
             np.cos(3.0 * x) * rng.normal(size=n) + 1j * rng.normal(size=n)),
            (f"real-only-{j}", x, rng.normal(size=n)),
            (f"negative-x-{j}", x - x[-1] - 0.5,
             np.cumsum(rng.random(n)) * (1.0 - 1.0j) * (rng.random(n) < 0.7)),
        ]
    eta = window_config_for(builtin_profile("compact_bump"), MomentumMagnitude(0.5, SL),
                            dims=2).epsilon_schedule[-1]
    tables.append(("transverse-table", *_transverse_knots(eta)))
    return [pytest.param(x, y, id=name) for name, x, y in tables]


class TestComplexPchip:
    X = np.array([0.0, 0.5, 1.5, 2.0])
    Y = np.array([1.0 + 0.5j, 0.25 - 1.0j, -0.5 + 0.0j, 2.0 + 1.0j])

    def test_zero_outside_and_at_nan(self):
        f = complex_pchip(self.X, self.Y)
        out = f(np.array([-1e-12, -3.0, 2.0 + 1e-12, 7.0, np.nan, -np.inf, np.inf]))
        assert out.dtype == complex
        assert np.all(out == 0.0)

    def test_interpolant_inside(self):
        from scipy.interpolate import PchipInterpolator
        xq = np.linspace(0.0, 2.0, 41).reshape(41, 1, 1)
        re = PchipInterpolator(self.X, self.Y.real)(xq)
        im = PchipInterpolator(self.X, self.Y.imag)(xq)
        out = complex_pchip(self.X, self.Y)(xq)
        assert out.shape == xq.shape
        assert np.array_equal(out.real, re) and np.array_equal(out.imag, im)

    @pytest.mark.parametrize("x, y", _pchip_tables())
    def test_equal_to_scipy(self, x, y):
        rng = np.random.default_rng(len(x))
        span = x[-1] - x[0]
        xq = np.concatenate([
            x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
            [x[0] - 1e-3 * span, x[-1] + 1e-3 * span, -1e300, 1e300],
            rng.uniform(x[0] - 0.1 * span, x[-1] + 0.1 * span, 2000),
            [np.nan, np.inf, -np.inf, 0.0, -0.0]])
        got = complex_pchip(x, y)(xq)
        assert _same_bits(got, _scipy_pchip(x, y)(xq))
        assert np.all(got[-5:-2] == 0.0)

    def test_oracle_queries_on_the_transverse_table(self):
        # the products u v of node pairs the 1+2 window integral asks for
        x, y = _transverse_knots(0.02)
        rng = np.random.default_rng(5)
        xq = rng.uniform(-40.0, 40.0, (128, 16, 1)) * rng.uniform(-40.0, 40.0, (128, 1, 16))
        assert _same_bits(complex_pchip(x, y)(xq), _scipy_pchip(x, y)(xq))

    @pytest.mark.parametrize("xq", [0.7, 2.0, -1.0, np.float64(0.25), np.array(1.5),
                                    np.array(np.nan), [0.1, 1.9],
                                    np.linspace(-0.5, 2.5, 60).reshape(3, 4, 5)],
                             ids=["scalar", "last-knot", "outside", "float64", "0-d",
                                  "0-d-nan", "list", "3-d"])
    def test_shapes(self, xq):
        got = complex_pchip(self.X, self.Y)(xq)
        assert np.shape(got) == np.shape(xq)
        assert _same_bits(got, _scipy_pchip(self.X, self.Y)(xq))

    def test_nan_and_inf_queries_warn_nothing(self):
        f = complex_pchip(self.X, self.Y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = f(np.array([[np.nan, np.inf], [-np.inf, 1.0]]))
        assert np.all(out[0] == 0.0) and out[1, 0] == 0.0 and out[1, 1] != 0.0

    @pytest.mark.parametrize("x, y", [
        ([0.5], [1.0 + 0j]),
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
        ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0]),
        ([0.0, np.nan, 1.0], [1.0, 2.0, 3.0]),
        ([0.0, 1.0, np.inf], [1.0, 2.0, 3.0]),
        ([0.0, 1.0, 2.0], [1.0, np.inf, 3.0]),
        ([0.0, 1.0, 2.0], [1.0, complex(2.0, np.nan), 3.0]),
    ], ids=["one-knot", "repeated-x", "decreasing-x", "nan-x", "inf-x", "inf-y",
            "nan-imag-y"])
    def test_refused_as_scipy_refuses(self, x, y):
        x, y = np.array(x), np.array(y, dtype=complex)
        with pytest.raises(ValueError):
            _scipy_pchip(x, y)
        with pytest.raises(ValueError):
            complex_pchip(x, y)


class TestGoldenBits:
    def test_oracle_lines(self):
        # identities at a in {0.5, 5} and the bump in 1+1 and 1+2 at k = 0.5,
        # every value, estimate, flag and count at full precision
        expected = GOLDEN_ORACLE.read_text(encoding="utf-8").splitlines()
        assert _byte_sweep().oracle_lines() == expected

    def test_radial_lines(self):
        # hankel_transform, n = 1..10 at k in {0.5, 2}, with an envelope and
        # with a support radius, at full precision
        expected = GOLDEN_RADIAL.read_text(encoding="utf-8").splitlines()
        assert _byte_sweep().radial_lines() == expected
