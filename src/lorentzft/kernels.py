"""Radial kernels: the Euclidean-sphere Hankel weight chi_n and the four
Minkowski weight families (timelike/spacelike momentum x timelike/spacelike
profile branch).

With l the invariant momentum magnitude and s the radial coordinate of the
matching branch, the transform of a profile f is

    F(l) = sum over branches of  int_0^inf ds f_branch(s) w(s),

where w is the weight returned by `minkowski_kernel`:

    timelike l, timelike branch:
        -2 pi s^{(n+1)/2} / l^{(n-1)/2} [ N_{(n-1)/2}(2 pi s l) cos(pi(n-1)/2)
                                        + J_{(n-1)/2}(2 pi s l) sin(pi(n-1)/2) ]
    timelike l, spacelike branch:
        +4   s^{(n+1)/2} / l^{(n-1)/2}   K_{(n-1)/2}(2 pi s l) cos(pi(n-1)/2)
    spacelike l, timelike branch:
        +4   s^{(n+1)/2} / l^{(n-1)/2}   K_{(n-1)/2}(2 pi s l)
    spacelike l, spacelike branch:
        -2 pi s^{(n+1)/2} / l^{(n-1)/2}  N_{(n-1)/2}(2 pi s l)

Exactly one of cos and sin of pi(n-1)/2 is nonzero (exact case analysis on
n mod 4), so each weight is one coefficient c times one cylinder function,
`KernelSpec.weight`; c = 0 makes the vanishing kernels exactly zero.

A branch is a member of `Branch`; its value ("timelike" or "spacelike")
names the profile branch it integrates.  The transform integrates each
branch, and `hankel_transform` its one integral against chi_n, with the same
radial driver; `kernel_envelope` and `chi_envelope` bound the weights there
to place the truncation points.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError, Order, bessel_j, bessel_k, bessel_n, gamma_fn

__all__ = [
    "MomentumChar",
    "Branch",
    "KernelSpec",
    "MomentumMagnitude",
    "chi",
    "chi_small_argument_limit",
    "minkowski_kernel",
    "kernel_envelope",
    "check_weight",
    "chi_envelope",
    "closure_rhs",
    "exact_cos_sin_half_pi",
    "check_dimension",
]

_N_MIN, _N_MAX = 1, 10


class MomentumChar(enum.Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"


class Branch(enum.Enum):
    """Profile branch of a radial integral, in the order of the fields
    `RadialProfile.f_timelike` and `f_spacelike`; the value names the branch
    in failed_branches."""

    TIMELIKE_PROFILE = "timelike"    # support at s^2 > 0, radius s0
    SPACELIKE_PROFILE = "spacelike"  # support at s^2 < 0, radius s1


@dataclass(frozen=True)
class KernelSpec:
    """Dimension, momentum character and profile branch of one radial weight."""

    n: int
    momentum_char: MomentumChar
    branch: Branch

    def __post_init__(self):
        check_dimension(self.n)

    @property
    def weight(self):
        """(c, Z): the weight is c s^{(n+1)/2} / l^{(n-1)/2} times the
        cylinder function Z of order (n-1)/2 at 2 pi s l.  Z is looked up by
        name at each read, so a patched module attribute is the one returned."""
        cos, sin = exact_cos_sin_half_pi(self.n - 1)
        if self.momentum_char is MomentumChar.TIMELIKE:
            if self.branch is Branch.TIMELIKE_PROFILE:
                return -2.0 * math.pi * (cos or sin), bessel_n if cos else bessel_j
            return 4.0 * cos, bessel_k
        if self.branch is Branch.TIMELIKE_PROFILE:
            return 4.0, bessel_k
        return -2.0 * math.pi, bessel_n

    @property
    def vanishes(self) -> bool:
        """True for the zero kernels: timelike momentum, spacelike branch, even n."""
        return self.weight[0] == 0


@dataclass(frozen=True)
class MomentumMagnitude:
    """Invariant momentum magnitude with its character.

    value = sqrt(k0^2 - k^2) for timelike momenta, sqrt(k^2 - k0^2) for
    spacelike ones.  Lightlike momenta (value 0) are not supported.
    """

    value: float
    char: MomentumChar

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"momentum magnitude must be finite, got {self.value}")
        if not self.value > 0:
            raise DomainError("momentum magnitude must be positive (lightlike "
                              "momenta are unsupported)")


def check_dimension(n: int) -> None:
    """Raise DomainError unless the spatial dimension n is supported."""
    # bool is an int subclass, but True is no dimension
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"spatial dimension n must be an integer, got {n!r}")
    if not _N_MIN <= n <= _N_MAX:
        raise DomainError(f"spatial dimension n={n} outside [{_N_MIN}, {_N_MAX}]")


def exact_cos_sin_half_pi(m: int):
    """(cos(pi m / 2), sin(pi m / 2)) by case analysis, exact integers."""
    return [(1, 0), (0, 1), (-1, 0), (0, -1)][m % 4]


def _refuse_chi(n: int, r: np.ndarray, k: np.ndarray, pos: np.ndarray,
                bad: np.ndarray, why: str) -> None:
    """DomainError naming the first r and k where `bad`, one entry per
    point of the mask `pos`, holds, if any."""
    if bad.any():
        i = np.flatnonzero(pos)[np.argmax(bad)]
        raise DomainError(f"chi({n}, r, k) at r={float(r[i])!r}, "
                          f"k={float(k[i])!r}: {why}")


def chi(n: int, r, k):
    """Hankel weight chi_n(r, k) = 2 pi r^{n/2} k^{1-n/2} J_{n/2-1}(2 pi r k).

    Reduces an n-dimensional Euclidean radial Fourier transform to one
    dimension.  Swapping the arguments gives the inverse weight chi_n(k, r).
    Broadcasts over r and k; requires k > 0, r >= 0.  It raises
    DomainError, naming the first such r and k, where the prefactor
    2 pi r^{n/2} k^{1-n/2} overflows, and at r > 0 and n != 2 where 2 pi r k
    underflows to 0, or where the Bessel factor does below 2 pi r k = 1
    against a nonzero prefactor.
    """
    check_dimension(n)
    ra, ka = np.broadcast_arrays(np.asarray(r, dtype=float),
                                 np.asarray(k, dtype=float))
    scalar = ra.ndim == 0
    ra, ka = np.atleast_1d(ra), np.atleast_1d(ka)
    if not np.all(ka > 0):
        raise DomainError("chi requires k > 0")
    if not np.all(ra >= 0):
        raise DomainError("chi requires r >= 0")
    nu = Order(n - 2)
    out = np.empty_like(ra)
    pos = ra > 0
    # ra[pos] and ka[pos] are taken where used, not held: two more arrays
    # of the call's size made the heap trim and fault back about 180 pages
    # a call on 13k radii
    x = 2.0 * math.pi * ra[pos] * ka[pos]
    # J_{-1/2} has no value at 0
    if n == 1:
        _refuse_chi(n, ra, ka, pos, x == 0, "2 pi r k underflows to 0")
    j = bessel_j(nu, x)
    with np.errstate(over="ignore"):
        pref = 2.0 * math.pi * ra[pos] ** (n / 2.0) * ka[pos] ** (1.0 - n / 2.0)
    _refuse_chi(n, ra, ka, pos, ~np.isfinite(pref),
                f"2 pi r^({n}/2) k^(1-{n}/2) overflows")
    # at n >= 3 J_{n/2-1}(0) = 0 loses the limit 2 pi^{n/2} r^{n-1} / Gamma(n/2)
    # of chi, so a 2 pi r k that underflows is refused, and so is a J that is
    # 0 below its first zero against a nonzero prefactor (scipy's jv is 0 at
    # orders > 0 below about 2.2e-305); at n = 2 J_0(0) = 1 gives the limit
    if n != 2 and not j.all():
        _refuse_chi(n, ra, ka, pos, x == 0, "2 pi r k underflows to 0")
        _refuse_chi(n, ra, ka, pos, (j == 0) & (x < 1) & (pref > 0),
                    f"J_{nu.nu:g}(2 pi r k) underflows to 0")
    out[pos] = pref * j
    # r = 0 limits: 2 for n = 1 (cosine kernel), 0 otherwise
    out[~pos] = 2.0 if n == 1 else 0.0
    return float(out[0]) if scalar else out


def chi_small_argument_limit(n: int, k: float) -> float:
    """lim_{r -> 0} chi_n(k, r) = 2 pi^{n/2} k^{n-1} / Gamma(n/2).

    The prefactor is the unit (n-1)-sphere volume times k^{n-1}.
    """
    check_dimension(n)
    if not k > 0:
        raise DomainError("chi_small_argument_limit requires k > 0")
    return 2.0 * math.pi ** (n / 2.0) * k ** (n - 1) / gamma_fn(n / 2.0)


def minkowski_kernel(spec: KernelSpec, s, l: MomentumMagnitude):
    """Radial weight w(s) for the given dimension, momentum and branch.

    Vectorized over s >= 0; s = 0 yields the limit 0 of every kernel.  A
    nonvanishing kernel raises DomainError, naming l, when 2 pi s l
    underflows to 0 at its least s > 0.
    """
    if spec.momentum_char is not l.char:
        raise DomainError("momentum character does not match the kernel spec")
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    lo = arr.min() if arr.size else 0.0
    if not lo >= 0:                   # lo is NaN when arr holds one
        raise DomainError("minkowski_kernel requires s >= 0")
    n = spec.n
    c, Z = spec.weight
    # the Bessel argument at the least point, in the weight's association:
    # a momentum so small that it underflows to 0 has no Bessel value there
    if c and lo > 0 and not 2.0 * math.pi * lo * l.value > 0:
        raise DomainError(f"momentum magnitude l={l.value!r} is too small: "
                          "2 pi s l underflows to 0 at s > 0")

    def weight(sp):
        pref = sp ** ((n + 1) / 2.0) / l.value ** ((n - 1) / 2.0)
        return c * pref * Z(Order(n - 1), 2.0 * math.pi * sp * l.value)

    if c and lo > 0:                  # every point positive: no mask, no scatter
        out = weight(arr)
    else:
        out = np.zeros_like(arr)
        if c:                         # else exactly zero, no Bessel call
            pos = arr > 0
            out[pos] = weight(arr[pos])
    return float(out[0]) if scalar else out


def check_weight(spec: KernelSpec, l: MomentumMagnitude) -> None:
    """Raise DomainError, naming l, where the weight is not finite at s = 1.

    Every weight divides by l^((n-1)/2), which underflows to 0 at small l,
    and near the light cone the N and K weights tend to
    2 Gamma(nu) pi^-nu s l^(1-n), nu = (n-1)/2 > 0 (DLMF 10.7, 10.30), which
    overflows before it.  Either leaves NaN on a transform's radii, so
    `transform` calls this before any integral or `kernel_envelope` runs.
    No Bessel function is evaluated.
    """
    c, Z = spec.weight
    nu = (spec.n - 1) / 2.0
    scale = l.value ** nu
    grows = Z is not bessel_j and nu > 0
    if c and (scale == 0 or grows and not math.isfinite(
            2.0 * math.gamma(nu) * math.pi ** -nu / scale / scale)):
        raise DomainError(f"momentum magnitude l={l.value!r} is too small: the "
                          f"n={spec.n} weight is not finite at s = 1")


def kernel_envelope(spec: KernelSpec, l: MomentumMagnitude):
    """Smooth upper bound on |minkowski_kernel|, valid for 2 pi s l >= 3.

    Only used to place tail truncation points, where the large-argument
    envelopes of the cylinder functions apply; below 2 pi s l ~ 2.5 it
    fails for n >= 5.
    """
    n = spec.n
    lv = l.value
    nu = (n - 1) / 2.0
    uses_k = spec.weight[1] is bessel_k

    def env(s):
        sa = np.maximum(np.asarray(s, dtype=float), 1e-9)
        z = np.maximum(2.0 * math.pi * sa * lv, 1e-9)
        pref = 2.0 * math.pi * sa ** ((n + 1) / 2.0) / lv ** ((n - 1) / 2.0)
        if uses_k:
            amp = 1.5 * np.sqrt(math.pi / (2.0 * z)) * (1.0 + nu * nu / z) \
                * np.exp(-np.minimum(z, 700.0))
        else:
            amp = 2.0 * np.sqrt(2.0 / (math.pi * z)) * (1.0 + nu * nu / z)
        return pref * amp

    return env


def chi_envelope(n: int, k: float):
    """Smooth upper bound on |chi(n, r, k)|, valid for 2 pi r k >~ 1.

    The counterpart of `kernel_envelope` for the Hankel weight: the
    prefactor times twice the large-argument amplitude sqrt(2 / (pi z)) of
    J at z = 2 pi r k.  Only used to place tail truncation points.
    """
    def env(r):
        ra = np.maximum(np.asarray(r, dtype=float), 1e-9)
        return 2.0 * math.pi * ra ** (n / 2.0) * k ** (1.0 - n / 2.0) \
            * 2.0 * np.sqrt(2.0 / (math.pi * 2.0 * math.pi * ra * k))

    return env


def closure_rhs(n: int, m: int, k: float, u: float) -> float:
    """Closed form of int_0^inf chi_n(r, k) chi_m(u, r) dr for m > n.

    Equals (2 pi^h / Gamma(h)) u (u^2 - k^2)^{h-1} Theta(u - k) with
    h = (m - n)/2; requires m - n even.
    """
    check_dimension(n)
    check_dimension(m)
    if not (k > 0 and u > 0):
        raise DomainError("closure_rhs requires k > 0 and u > 0")
    if m <= n or (m - n) % 2 != 0:
        raise DomainError("closure_rhs requires m > n with m - n even")
    h = (m - n) // 2
    if u < k:
        return 0.0
    return 2.0 * math.pi ** h / gamma_fn(float(h)) * u * (u * u - k * k) ** (h - 1)
