"""Cylinder and Gamma functions for integer and half-integer orders.

The radial kernels need J_nu (Bessel), N_nu (Neumann, also written Y_nu),
K_nu (Macdonald) and Gamma, all for orders 2*nu in {-1, 0, 1, ..., 21} and
positive real argument.  Evaluation is delegated to scipy.special, which is
accurate to near machine precision on the supported ranges; the test suite
pins the accuracy against independent ascending-series oracles and against
the half-integer closed forms.

N_nu for nu >= 0 is the imaginary part of one Hankel function,
H1_nu(x) = J_nu(x) + i N_nu(x) for real x (DLMF 10.4.3).  scipy's `yv` runs
AMOS zbesy, which forms N = (H1 - H2) / 2i from two Hankel evaluations, so
`Im hankel1` is the same number, bit for bit, for about half the work.  `yv`
is kept where `Im hankel1` is NaN (the overflow band next to x = 0, where
`yv` is -inf, and x = inf) and for the one negative order, nu = -1/2, whose
reflection `yv` computes differently.

J_{-1/2}, the 1+1 weight, is -Im hankel1(1/2, x) for the same reason.  scipy's
`jv` at a negative non-integer order reflects, J_{-nu} = cospi(nu) J_nu -
sinpi(nu) N_nu, from one zbesj and one zbesy call; cospi(1/2) is exactly 0,
so its value is -N_{1/2}, which one Hankel evaluation gives bit for bit in
place of three.  `jv` is kept where -Im hankel1 is NaN (x below about
2.2e-305, above about 2.25e15, and x = inf); -yv there would differ from
`jv` near 0.  Every other order of `bessel_j` is `jv` itself.

The package has one thread pool, sized from the CPUs the process may use
and built at import, and one way onto it, `_in_shares`: share 0 of a task
runs on the caller's thread and the others on the pool's workers, each in a
copy of the caller's `contextvars` context, so the caller's `np.errstate`
holds in every share.  Every share ends before an error is raised: the
first, in share order.  A call made from inside a share runs inline, since
a share waiting on shares queued behind it could leave every worker
waiting.  scipy's Bessel ufuncs release the GIL, so `_ufunc` deals an
argument of three blocks (24,576 points) or more to the shares in
interleaved 8192-point blocks, each writing its own slice of one output
array: the ufunc is elementwise, so the result is bit-identical to one
call.  `_ufunc` also serves the chirp exp(+-i s^2) of the `gauss_oscillatory`
profile from 65,536 points (see `profiles`), and `_in_shares` the 1+2
window oracle's transverse-table pieces (see `oracle`).  Those are all that
runs on the pool: the wrappers, the profile branches and every other
function of the package run on the caller's thread.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

__all__ = [
    "DomainError",
    "Order",
    "bessel_j",
    "bessel_n",
    "bessel_k",
    "gamma_fn",
]

_TWICE_NU_MIN = -1
_TWICE_NU_MAX = 21


class DomainError(ValueError):
    """Argument or order outside the supported domain."""


@dataclass(frozen=True)
class Order:
    """Bessel-function order nu, stored as 2*nu so half-integers stay exact."""

    twice_nu: int

    def __post_init__(self):
        if isinstance(self.twice_nu, bool) or \
                not isinstance(self.twice_nu, (int, np.integer)):
            raise DomainError(f"twice_nu must be an integer, got {self.twice_nu!r}")
        if not _TWICE_NU_MIN <= self.twice_nu <= _TWICE_NU_MAX:
            raise DomainError(
                f"order 2*nu={self.twice_nu} outside supported range "
                f"[{_TWICE_NU_MIN}, {_TWICE_NU_MAX}]"
            )

    @property
    def nu(self) -> float:
        return self.twice_nu / 2.0


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


_BLOCK = 8192          # points per block of a pooled ufunc call
# Shorter arguments run inline.  The quadrature engines call an integrand
# on 36 nodes a panel, a damped integral's widest mesh in one call, so the
# pool takes the meshes of 683 panels or more.  A pooled call's time
# depends on whether the other CPUs are free: pooling shorter calls spread
# the times of the ops that made them without making those ops faster.
_POOL_MIN = 3 * _BLOCK


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:         # no affinity masks on this platform
        return os.cpu_count() or 1


def _new_pool():
    # None on one CPU; a ThreadPoolExecutor starts no thread before a task
    cpus = _cpu_count()
    return (ThreadPoolExecutor(cpus, thread_name_prefix="lorentzft-bessel")
            if cpus > 1 else None)


_pool = _new_pool()


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool
    _pool = _new_pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


# True in the context a share runs in, where `_in_shares` runs inline
_IN_BLOCK = contextvars.ContextVar("lorentzft_in_pool_block", default=False)


def _block_context() -> contextvars.Context:
    """A copy of the caller's context, marked as a pool block's."""
    context = contextvars.copy_context()
    context.run(_IN_BLOCK.set, True)
    return context


def _ufunc(fn, nu, arr: np.ndarray, pool_min: int = _POOL_MIN, dtype=float):
    """fn(nu, arr), split into `_BLOCK`-point blocks when arr holds pool_min
    points or more.  A block is fn(nu, block, out=slice of one output array
    of `dtype`); the blocks are dealt in turn to the shares of `_in_shares`,
    share 0 on the caller's thread.  With no pool, or from inside a share,
    the call is inline."""
    if arr.size < pool_min or _pool is None or _IN_BLOCK.get():
        return fn(nu, arr)
    flat = arr.ravel()
    out = np.empty(flat.shape, dtype)

    def blocks(share: int, shares: int) -> None:
        # the blocks share, share + shares, ...: a mesh's radii are sorted,
        # so interleaved blocks give each share every region's cost
        for i in range(share * _BLOCK, flat.size, shares * _BLOCK):
            fn(nu, flat[i:i + _BLOCK], out=out[i:i + _BLOCK])

    _in_shares(blocks)
    return out.reshape(arr.shape)


def _in_shares(fn) -> None:
    """fn(share, shares) for share = 0 .. shares - 1, as many shares as the
    pool has workers: share 0 on the caller's thread and the others on the
    pool, each in `_block_context()`.  With no pool, or from inside a pool
    block, fn(0, 1) runs inline.  Every share finishes before an error is
    raised: the first, in share order."""
    pool = None if _IN_BLOCK.get() else _pool
    if pool is None:
        return fn(0, 1)
    shares = pool._max_workers
    others = [pool.submit(_block_context().run, fn, share, shares)
              for share in range(1, shares)]
    first = None
    try:
        _block_context().run(fn, 0, shares)
    except Exception as error:
        first = error
    # every share is waited for, so none is still writing when one raises
    for error in [first] + [share.exception() for share in others]:
        if error is not None:
            raise error


def _hankel_imag(order: float, sign: float, exact, nu: float, x: np.ndarray,
                 out=None):
    """exact(nu, x) for one block, as sign * Im hankel1(order, x) where that
    is not NaN (see the module docstring)."""
    out = np.empty(x.shape) if out is None else out
    np.multiply(_sp.hankel1(order, x).imag, sign, out=out)
    nan = np.isnan(out)
    if nan.any():
        out[nan] = exact(nu, x[nan])
    return out


def _neumann(nu: float, x: np.ndarray, out=None):
    """yv(nu, x) for one block, from one Hankel evaluation when nu >= 0."""
    if nu < 0:
        return _sp.yv(nu, x, out=out)
    return _hankel_imag(nu, 1.0, _sp.yv, nu, x, out)


def _j_minus_half(nu: float, x: np.ndarray, out=None):
    """jv(-1/2, x) for one block, as -N_{1/2}(x) from one Hankel evaluation."""
    return _hankel_imag(0.5, -1.0, _sp.jv, nu, x, out)


def bessel_j(nu: Order, x):
    """Bessel function of the first kind J_nu(x).

    x may be a scalar or array, x > 0 (x = 0 allowed for nu >= 0); a NaN
    argument raises DomainError.  The values are scipy's `jv`, bit for bit;
    for nu = -1/2 they come from one `hankel1` call (see the module
    docstring), with `jv` where that is NaN.
    """
    arr, scalar = _as_array(x)
    if not np.all(arr >= 0):
        raise DomainError("bessel_j requires x >= 0")
    if nu.twice_nu < 0 and np.any(arr == 0):
        raise DomainError("bessel_j at x = 0 requires nu >= 0")
    out = _ufunc(_j_minus_half if nu.twice_nu == -1 else _sp.jv, nu.nu, arr)
    return float(out) if scalar else out


def bessel_n(nu: Order, x):
    """Neumann function N_nu(x) (Bessel second kind, also written Y_nu).

    Diverges at x = 0; requires x > 0, so NaN raises.  The values are
    scipy's `yv`, bit for bit; for nu >= 0 they come from one `hankel1` call
    (see the module docstring), with `yv` where that is NaN.
    """
    arr, scalar = _as_array(x)
    if not np.all(arr > 0):
        raise DomainError("bessel_n requires x > 0")
    out = _ufunc(_neumann, nu.nu, arr)
    return float(out) if scalar else out


def bessel_k(nu: Order, x):
    """Macdonald function K_nu(x) (modified Bessel, third kind); x > 0,
    so NaN raises."""
    arr, scalar = _as_array(x)
    if not np.all(arr > 0):
        raise DomainError("bessel_k requires x > 0")
    out = _ufunc(_sp.kv, abs(nu.nu), arr)
    return float(out) if scalar else out


def gamma_fn(x):
    """Euler Gamma function for positive real argument; NaN raises."""
    arr, scalar = _as_array(x)
    if not np.all(arr > 0):
        raise DomainError("gamma_fn requires x > 0")
    out = _sp.gamma(arr)
    return float(out) if scalar else out
