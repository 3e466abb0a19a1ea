"""Special-function accuracy against closed forms and series oracles."""

import dataclasses
import importlib
import math
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special as sp

import lorentzft.kernels
from lorentzft import specfun
from lorentzft.kernels import MomentumChar, MomentumMagnitude
from lorentzft.profiles import builtin_profile
from lorentzft.quadrature import _RULE_X, QuadConfig
from lorentzft.specfun import DomainError, Order, bessel_j, bessel_k, bessel_n, gamma_fn

from series_reference import (
    besselj_series,
    besselk0_series,
    besselk1_series,
    bessely0_series,
    bessely1_series,
    gamma_spouge,
)

HALF = Order(1)          # nu = 1/2
MINUS_HALF = Order(-1)   # nu = -1/2
ZERO = Order(0)


def j_half_closed(x):
    return math.sqrt(2.0 / (math.pi * x)) * math.sin(x)


def n_half_closed(x):
    return -math.sqrt(2.0 / (math.pi * x)) * math.cos(x)


def k_half_closed(x):
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)


class TestOrder:
    def test_constructors(self):
        assert Order(21).nu == 10.5

    @pytest.mark.parametrize("bad", [-2, 22, 100])
    def test_out_of_range(self, bad):
        with pytest.raises(DomainError):
            Order(bad)

    def test_not_half_integer(self):
        with pytest.raises(DomainError):
            Order(1.5)

    def test_bool_rejected(self):
        # bool is an int subclass; True would otherwise pass as 2 nu = 1
        for bad in (True, False):
            with pytest.raises(DomainError, match="twice_nu must be an integer"):
                Order(bad)
        assert bessel_j(Order(np.int64(1)), 2.0) == bessel_j(Order(1), 2.0)


class TestExamples:
    def test_j0_at_zero(self):
        assert bessel_j(ZERO, 0.0) == 1.0

    def test_j_half_at_pi(self):
        # closed form gives sqrt(2/pi^2) sin(pi) = 0
        assert abs(bessel_j(HALF, math.pi) - j_half_closed(math.pi)) < 1e-15

    def test_j0_at_one_series(self):
        ref = besselj_series(0, 1.0)
        assert abs(bessel_j(ZERO, 1.0) - ref) <= 1e-12 * abs(ref)

    def test_n_half_values(self):
        assert abs(bessel_n(HALF, math.pi / 2) - n_half_closed(math.pi / 2)) < 1e-15
        ref = math.sqrt(2.0) / math.pi     # -sqrt(2/pi^2) cos(pi)
        assert abs(bessel_n(HALF, math.pi) - ref) <= 1e-13 * ref

    def test_n0_log_divergence(self):
        # N_0(x) ~ (2/pi)(ln(x/2) + gamma) for x -> 0+
        gamma_e = 0.5772156649015329
        for x in (1e-3, 1e-4, 1e-5):
            asym = 2.0 / math.pi * (math.log(x / 2.0) + gamma_e)
            assert bessel_n(ZERO, x) < -1.0
            assert abs(bessel_n(ZERO, x) / asym - 1.0) < 1e-6

    def test_k_half_values(self):
        assert abs(bessel_k(HALF, 1.0) - k_half_closed(1.0)) <= 1e-13 * k_half_closed(1.0)
        assert abs(bessel_k(HALF, 2.0) - math.sqrt(math.pi / 4.0) * math.exp(-2.0)) \
            <= 1e-13 * k_half_closed(2.0)

    def test_k0_decay(self):
        val = bessel_k(ZERO, 20.0)
        assert 0.0 < val <= math.exp(-20.0)

    def test_gamma_exact_points(self):
        assert gamma_fn(1.0) == 1.0
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) <= 1e-15 * math.sqrt(math.pi)
        assert abs(gamma_fn(4.0) - 6.0) <= 1e-14


class TestDomainErrors:
    def test_negative_argument(self):
        for fn in (bessel_j, bessel_n, bessel_k):
            with pytest.raises(DomainError):
                fn(ZERO, -1.0)

    def test_zero_argument(self):
        with pytest.raises(DomainError):
            bessel_n(ZERO, 0.0)
        with pytest.raises(DomainError):
            bessel_k(ZERO, 0.0)
        with pytest.raises(DomainError):
            bessel_j(MINUS_HALF, 0.0)

    def test_gamma_nonpositive(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-2.5)

    def test_array_domain_check(self):
        with pytest.raises(DomainError):
            bessel_k(ZERO, np.array([1.0, -0.5]))

    @pytest.mark.parametrize("x", [math.nan, np.array([1.0, math.nan])],
                             ids=["scalar", "array"])
    @pytest.mark.parametrize("fn", [
        lambda x: bessel_j(ZERO, x), lambda x: bessel_j(MINUS_HALF, x),
        lambda x: bessel_n(ZERO, x), lambda x: bessel_k(ZERO, x), gamma_fn,
    ], ids=["j", "j-minus-half", "n", "k", "gamma"])
    def test_nan_argument(self, fn, x):
        with pytest.raises(DomainError):
            fn(x)


GRID = np.linspace(0.1, 30.0, 113)


class TestHalfIntegerReductions:
    """|Z_{1/2} - closed form| <= 1e-12 |closed| + 1e-15 pointwise."""

    def test_j_half(self):
        got = bessel_j(HALF, GRID)
        ref = np.sqrt(2.0 / (np.pi * GRID)) * np.sin(GRID)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-15)

    def test_j_minus_half(self):
        got = bessel_j(MINUS_HALF, GRID)
        ref = np.sqrt(2.0 / (np.pi * GRID)) * np.cos(GRID)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-14)

    def test_n_half(self):
        got = bessel_n(HALF, GRID)
        ref = -np.sqrt(2.0 / (np.pi * GRID)) * np.cos(GRID)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-15)

    def test_k_half(self):
        got = bessel_k(HALF, GRID)
        ref = np.sqrt(np.pi / (2.0 * GRID)) * np.exp(-GRID)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-300)


class TestRecurrences:
    """Three-term recurrences to 1e-9 relative (scale of the larger side)."""

    XS = np.linspace(0.5, 30.0, 60)

    @pytest.mark.parametrize("twice_nu", range(1, 20))
    def test_jn_recurrence(self, twice_nu):
        lo, mid, hi = Order(twice_nu - 2), Order(twice_nu), Order(twice_nu + 2)
        for fn in (bessel_j, bessel_n):
            lhs = fn(lo, self.XS) + fn(hi, self.XS)
            rhs = 2.0 * mid.nu / self.XS * fn(mid, self.XS)
            scale = np.maximum.reduce([np.abs(lhs), np.abs(rhs), np.full_like(rhs, 1e-280)])
            assert np.all(np.abs(lhs - rhs) <= 1e-9 * scale)

    @pytest.mark.parametrize("twice_nu", range(1, 20))
    def test_k_recurrence(self, twice_nu):
        lo, mid, hi = Order(twice_nu - 2), Order(twice_nu), Order(twice_nu + 2)
        lhs = bessel_k(hi, self.XS) - bessel_k(lo, self.XS)
        rhs = 2.0 * mid.nu / self.XS * bessel_k(mid, self.XS)
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * scale)


class TestWronskian:
    """J_nu N_nu' - J_nu' N_nu = 2/(pi x), derivatives via
    Z_nu'(x) = (nu/x) Z_nu(x) - Z_{nu+1}(x)."""

    @pytest.mark.parametrize("twice_nu", range(-1, 20))
    def test_wronskian(self, twice_nu):
        xs = np.linspace(0.5, 30.0, 40)
        nu = Order(twice_nu)
        nu1 = Order(twice_nu + 2)
        j, j1 = bessel_j(nu, xs), bessel_j(nu1, xs)
        n, n1 = bessel_n(nu, xs), bessel_n(nu1, xs)
        jp = nu.nu / xs * j - j1
        np_ = nu.nu / xs * n - n1
        lhs = j * np_ - jp * n
        rhs = 2.0 / (np.pi * xs)
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * rhs)


class TestSeriesOracles:
    """Integer-order values against the ascending-series references."""

    XS_J = np.linspace(0.25, 50.0, 29)
    XS_LOG = np.geomspace(2e-3, 50.0, 29)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_j_series(self, n):
        order = Order(2 * n)
        for x in self.XS_J:
            ref = besselj_series(n, float(x))
            assert abs(bessel_j(order, float(x)) - ref) <= 1e-10 * (abs(ref) + 1e-3)

    def test_y0_series(self):
        for x in self.XS_LOG:
            ref = bessely0_series(float(x))
            assert abs(bessel_n(ZERO, float(x)) - ref) <= 1e-10 * (abs(ref) + 1e-3)

    def test_y1_series(self):
        for x in self.XS_LOG:
            ref = bessely1_series(float(x))
            assert abs(bessel_n(Order(2), float(x)) - ref) <= 1e-10 * (abs(ref) + 1e-3)

    def test_k0_series(self):
        for x in self.XS_LOG:
            ref = besselk0_series(float(x))
            assert abs(bessel_k(ZERO, float(x)) - ref) <= 1e-10 * abs(ref)

    def test_k1_series(self):
        for x in self.XS_LOG:
            ref = besselk1_series(float(x))
            assert abs(bessel_k(Order(2), float(x)) - ref) <= 1e-10 * abs(ref)

    def test_gamma_spouge(self):
        for x in np.geomspace(0.05, 30.0, 41):
            ref = gamma_spouge(float(x))
            assert abs(gamma_fn(float(x)) - ref) <= 1e-12 * abs(ref)


class TestPositivity:
    def test_k_positive(self):
        xs = np.geomspace(1e-3, 50.0, 200)
        for twice_nu in range(-1, 22):
            assert np.all(bessel_k(Order(twice_nu), xs) > 0.0)


# ---------------------------------------------------------------------------
# long arguments: blocks on the shared thread pool

BLOCK = specfun._BLOCK
POOL_MIN = specfun._POOL_MIN     # the shortest argument split into blocks
RAW = [(bessel_j, sp.jv), (bessel_n, sp.yv), (bessel_k, sp.kv)]


class CountingPool(ThreadPoolExecutor):
    """A two-worker pool that counts the tasks submitted to it: one, the
    worker's share, per pooled call."""

    def __init__(self):
        super().__init__(2)
        self.tasks = 0

    def submit(self, *args, **kwargs):
        self.tasks += 1
        return super().submit(*args, **kwargs)


@pytest.fixture(params=["pool", "inline"])
def pool(request, monkeypatch):
    """A counting pool in place of the shared one (even on one CPU), or
    None with the pool switched off."""
    if request.param == "inline":
        monkeypatch.setattr(specfun, "_pool", None)
        yield None
        return
    with CountingPool() as counting:
        monkeypatch.setattr(specfun, "_pool", counting)
        yield counting


def _positive(size):
    return np.random.default_rng(size).uniform(1e-3, 80.0, size)


_WIDE = _positive(6 * BLOCK).reshape(3, 2 * BLOCK)
ARGUMENTS = {
    "1": _positive(1),
    "2block-1": _positive(2 * BLOCK - 1),
    "2block": _positive(2 * BLOCK),
    "3block-1": _positive(3 * BLOCK - 1),
    "3block": _positive(3 * BLOCK),
    "5block+17": _positive(5 * BLOCK + 17),
    "2d": _WIDE,
    "strided": _WIDE[:, ::2],
    "transposed": _WIDE.T,
}


class TestBlockPool:
    @pytest.mark.parametrize("name", sorted(ARGUMENTS))
    @pytest.mark.parametrize("fn, raw", RAW, ids=["j", "n", "k"])
    def test_equal_to_one_ufunc_call(self, pool, fn, raw, name):
        x = ARGUMENTS[name]
        for twice_nu in (-1, 0, 7):
            nu = Order(twice_nu).nu
            ref = raw(abs(nu) if raw is sp.kv else nu, x)
            assert np.array_equal(fn(Order(twice_nu), x), ref)
        if pool is not None:
            # three calls, each pooled call one share on the worker
            assert pool.tasks == (3 if x.size >= POOL_MIN else 0)

    def test_blocks_are_dealt_in_turn(self, monkeypatch):
        # blocks 0, 2, 4, ... on the caller's thread, the others on one worker
        x = ARGUMENTS["5block+17"]
        first = {x[i]: i // BLOCK for i in range(0, x.size, BLOCK)}
        threads = {}
        neumann = specfun._neumann

        def recording(nu, block, out=None):
            threads[first[block[0]]] = threading.get_ident()
            return neumann(nu, block, out=out)

        monkeypatch.setattr(specfun, "_neumann", recording)
        with CountingPool() as counting:
            monkeypatch.setattr(specfun, "_pool", counting)
            assert np.array_equal(bessel_n(ZERO, x), sp.yv(0.0, x))
        assert sorted(threads) == list(range(len(first)))
        caller = threading.get_ident()
        assert all((threads[i] == caller) == (i % 2 == 0) for i in threads)
        assert len({threads[i] for i in threads if i % 2}) == 1
        assert counting.tasks == 1

    def test_forked_child_after_the_pool_ran(self, monkeypatch):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        # a pool built as at import, with two workers, whose threads run
        # before the fork; the child must build its own
        monkeypatch.setattr(specfun, "_cpu_count", lambda: 2)
        monkeypatch.setattr(specfun, "_pool", specfun._new_pool())
        x = ARGUMENTS["5block+17"]
        bessel_n(ZERO, x)
        try:
            child = multiprocessing.get_context("fork").Process(
                target=_child_bessel_n, args=(x,))
            child.start()
            child.join(timeout=20)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join()
            assert not hung
            assert child.exitcode == 0
        finally:
            specfun._pool.shutdown()

    def test_calls_from_a_block_run_inline(self):
        # every block makes a call long enough for the pool; were it to
        # queue blocks behind the two busy workers, neither would finish.
        # It runs in a forked child, which the timeout kills if it hangs
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        child = multiprocessing.get_context("fork").Process(target=_child_nested_calls)
        child.start()
        child.join(timeout=20)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung
        assert child.exitcode == 0

    def test_one_cpu_runs_inline(self, monkeypatch):
        monkeypatch.setattr(specfun, "_cpu_count", lambda: 1)
        assert specfun._new_pool() is None
        monkeypatch.setattr(specfun, "_pool", specfun._new_pool())
        x = ARGUMENTS["5block+17"]
        assert np.array_equal(bessel_n(ZERO, x), sp.yv(0.0, x))

    def test_pool_takes_meshes_of_683_panels_or_more(self):
        # one integrand call per mesh, on _RULE_X.size nodes a panel
        assert _RULE_X.size * 682 < POOL_MIN <= _RULE_X.size * 683

    def test_package_functions_run_on_the_calling_thread(self, pool, monkeypatch):
        # only the scipy ufunc may leave the caller's thread: the benchmark's
        # tracer keeps one span stack for the package's functions
        lt = importlib.import_module("lorentzft.transform")
        calls = []

        def record(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(lorentzft.kernels, "bessel_n",
                            record("bessel_n", lorentzft.kernels.bessel_n))
        monkeypatch.setattr(lt, "minkowski_kernel",
                            record("minkowski_kernel", lt.minkowski_kernel))
        profile = builtin_profile("gauss_oscillatory")
        profile = dataclasses.replace(
            profile, f_timelike=record("branch", profile.f_timelike))
        lt.transform(1, profile, MomentumMagnitude(0.5, MomentumChar.TIMELIKE),
                     QuadConfig())
        assert {name for name, _ in calls} == {"bessel_n", "minkowski_kernel", "branch"}
        assert {ident for _, ident in calls} == {threading.get_ident()}
        if pool is not None:
            assert pool.tasks > 0


def _nested_block(nu, block, out=None):
    """N_0(block), from one bessel_n call of at least POOL_MIN points."""
    repeated = np.tile(block, -(-POOL_MIN // block.size))
    value = bessel_n(ZERO, repeated)[:block.size]
    if out is None:
        return value
    out[...] = value
    return out


def _child_nested_calls():
    pool = specfun._pool = CountingPool()
    x = _positive(4 * BLOCK)
    got = specfun._ufunc(_nested_block, 0.0, x)
    # only the outer call's worker share reached the pool, and the bits are
    # those of the inline call
    assert pool.tasks == 1
    assert np.array_equal(got, specfun._ufunc(_nested_block, 0.0, x, x.size + 1))
    assert np.array_equal(got, sp.yv(0.0, x))
    pool.shutdown()


def _child_bessel_n(x):
    assert np.array_equal(bessel_n(ZERO, x), sp.yv(0.0, x))


# ---------------------------------------------------------------------------
# bessel_n for nu >= 0 and bessel_j for nu = -1/2 are one Hankel evaluation:
# the same bits as scipy's yv and jv everywhere

# down to 1e-320, so the overflow band near 0 (yv = -inf, Im H1 = NaN) is in;
# past 2.26e15, where Im H1 is NaN again, up to the largest float; at x = inf
# both are NaN.  Long enough to run on the pool.
_NEUMANN_X = np.concatenate([np.logspace(-320.0, 12.0, 12000),
                             np.linspace(1e-3, 200.0, 12000),
                             np.linspace(200.0, 2000.0, 600),
                             np.logspace(12.0, 308.0, 3000),
                             [np.finfo(float).max, np.inf]])


def _hankel_cases(neumann_orders):
    """(function, scipy's function, 2 nu): bessel_n at each 2 nu, with 2 nu
    as id, and bessel_j at nu = -1/2."""
    return [pytest.param(bessel_n, sp.yv, twice_nu, id=str(twice_nu))
            for twice_nu in neumann_orders] + [
        pytest.param(bessel_j, sp.jv, -1, id="j-minus-half")]


class _CountingSpecial:
    """scipy.special with each call of jv recorded with its argument size."""

    def __init__(self):
        self.jv_sizes = []

    def __getattr__(self, name):
        return getattr(sp, name)

    def jv(self, nu, x, *args, **kwargs):
        self.jv_sizes.append(np.size(x))
        return sp.jv(nu, x, *args, **kwargs)


class TestNeumannBits:
    @pytest.mark.parametrize("fn, raw, twice_nu", _hankel_cases(range(-1, 22)))
    def test_equal_to_yv(self, pool, fn, raw, twice_nu):
        out = fn(Order(twice_nu), _NEUMANN_X)
        ref = raw(twice_nu / 2, _NEUMANN_X)
        assert np.array_equal(out, ref, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
        if pool is not None:
            assert pool.tasks == 1

    @pytest.mark.parametrize("fn, raw, twice_nu", _hankel_cases([-1, 0, 1, 9, 21]))
    def test_scalar_and_zero_d(self, fn, raw, twice_nu):
        for x in (1e-310, 1e-40, 0.75, 31.0, 1e10, np.float64(2.5), np.array(6.0)):
            out = fn(Order(twice_nu), x)
            assert type(out) is float
            assert out == raw(twice_nu / 2, float(x))

    def test_j_minus_half_calls_no_jv(self, pool, monkeypatch):
        # off the NaN bands of Im H1, jv is never called: one Hankel
        # evaluation a point
        counting = _CountingSpecial()
        monkeypatch.setattr(specfun, "_sp", counting)
        x = ARGUMENTS["5block+17"]
        out = bessel_j(MINUS_HALF, x)
        assert counting.jv_sizes == []
        assert np.array_equal(out, sp.jv(-0.5, x))
