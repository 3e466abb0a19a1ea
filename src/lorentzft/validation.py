"""Named validation suites shared by the CLI and the acceptance tests.

Each suite returns a list of CheckResult rows (name, expected, actual, gap,
tolerance, pass flag).  Suites: angular, closure, recursion, gaussian,
reduction, oracle, chi.  The reduction suite's references are the paper's
boxed table of 1+1 and 1+2 weights, written with scipy and numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import k0, y0

from .kernels import (
    Branch,
    KernelSpec,
    MomentumChar,
    MomentumMagnitude,
    chi,
    chi_small_argument_limit,
    closure_rhs,
    minkowski_kernel,
)
from .oracle import (
    AngularIdentity,
    AngularIdentityKind,
    angular_quad_config,
    cartesian_ft_1p1,
    cartesian_ft_1p2,
    check_angular_identity,
    window_config_for,
)
from .profiles import builtin_profile
from .quadrature import QuadConfig, integrate_semiinfinite_damped
from .transform import recursion_step, gaussian_reference, transform

__all__ = [
    "CheckResult",
    "SUITES",
    "run_suite",
    "suite_angular",
    "suite_closure",
    "suite_recursion",
    "suite_gaussian",
    "suite_reduction",
    "suite_oracle",
    "suite_chi",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: complex
    actual: complex
    gap: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.tol


def _check(name, expected, actual, tol) -> CheckResult:
    gap = abs(complex(actual) - complex(expected))
    return CheckResult(name, complex(expected), complex(actual), gap, tol)


# --------------------------------------------------------------------------


def suite_angular():
    """Six table-integral identities at a in {0.5, 1, 2, 5}, gap <= 1e-6."""
    cfg = angular_quad_config()
    out = []
    for kind in AngularIdentityKind:
        for a in (0.5, 1.0, 2.0, 5.0):
            lhs, rhs, gap = check_angular_identity(AngularIdentity(kind, a), cfg)
            out.append(CheckResult(f"angular/{kind.value}/a={a}", rhs, lhs,
                                   gap, 1e-6))
    return out


def suite_closure():
    """Damped int chi_1(r,k) chi_3(u,r) dr against 2 pi u Theta(u-k)."""
    cfg = QuadConfig(abs_tol=1e-10, rel_tol=1e-10)
    out = []
    for k in (0.5, 1.0, 2.0):
        for u in (0.5, 1.0, 2.0):
            if abs(u - k) < 0.25:
                continue

            def integrand(r, _k=k, _u=u):
                return chi(1, r, _k) * chi(3, _u, r)

            env = lambda r, _u=u: 4.0 * _u / np.maximum(np.asarray(r, dtype=float), 1.0)
            res = integrate_semiinfinite_damped(
                integrand, cfg, envelope=env,
                osc_scale=2.0 * math.pi * (u + k), quad_phase=0.0)
            rhs = closure_rhs(1, 3, k, u)
            out.append(_check(f"closure/k={k}/u={u}", rhs, res.value.real, 1e-3))
    return out


def _spacelike_transform_fn(n, profile, cfg):
    def F(x):
        return transform(n, profile,
                         MomentumMagnitude(x, MomentumChar.SPACELIKE), cfg).value
    return F


def suite_recursion():
    """Dimension recursion n -> n+2 on the compact bump, spacelike momenta."""
    cfg = QuadConfig()
    profile = builtin_profile("compact_bump")
    out = []
    for n in (1, 2):
        F_n = _spacelike_transform_fn(n, profile, cfg)
        F_n2 = _spacelike_transform_fn(n + 2, profile, cfg)
        for k in (0.5, 1.0, 2.0):
            stepped, _ = recursion_step(F_n, k)
            direct = F_n2(k)
            tol = 1e-4 * (1.0 + abs(direct))
            out.append(_check(f"recursion/n={n}->{n+2}/k={k}", direct, stepped, tol))
    return out


def suite_gaussian():
    """Transform of exp(i s^2) at n=1 against the closed form pi e^{-i pi^2 k^2}."""
    cfg = QuadConfig()
    profile = builtin_profile("gauss_oscillatory")
    out = []
    for k in (0.25, 0.5, 1.0):
        res = transform(1, profile, MomentumMagnitude(k, MomentumChar.TIMELIKE), cfg)
        ref = gaussian_reference(k)
        out.append(_check(f"gaussian/k={k}", ref, res.value, 1e-3 * abs(ref)))
    return out


# The paper's boxed 1+1 and 1+2 weights at z = 2 pi s l, keyed like
# KernelSpec: N0 and K0 in 1+1; sine, decaying exponential, zero and cosine
# in 1+2.  scipy and numpy only, so the suite checks the kernels independently.
_TL, _SL = MomentumChar.TIMELIKE, MomentumChar.SPACELIKE
_TP, _SP = Branch.TIMELIKE_PROFILE, Branch.SPACELIKE_PROFILE
_BOXED_WEIGHTS = {
    (1, _TL, _TP): lambda s, z, l: -2.0 * math.pi * s * y0(z),
    (1, _TL, _SP): lambda s, z, l: 4.0 * s * k0(z),
    (1, _SL, _TP): lambda s, z, l: 4.0 * s * k0(z),
    (1, _SL, _SP): lambda s, z, l: -2.0 * math.pi * s * y0(z),
    (2, _TL, _TP): lambda s, z, l: -2.0 / l * s * np.sin(z),
    (2, _TL, _SP): lambda s, z, l: np.zeros_like(s),
    (2, _SL, _TP): lambda s, z, l: 2.0 / l * s * np.exp(-z),
    (2, _SL, _SP): lambda s, z, l: 2.0 / l * s * np.cos(z),
}


def suite_reduction():
    """General-n kernels at n=1, 2 against the paper's boxed low-dimensional
    weights."""
    s_grid = np.linspace(0.1, 5.0, 20)
    out = []
    for (n, char, branch), boxed in _BOXED_WEIGHTS.items():
        spec = KernelSpec(n, char, branch)
        worst = 0.0
        for l in np.linspace(0.1, 5.0, 20):
            general = minkowski_kernel(spec, s_grid, MomentumMagnitude(l, char))
            ref = boxed(s_grid, 2.0 * math.pi * s_grid * l, l)
            gap = np.abs(general - ref)
            # 1e-10 relative with a tiny floor at oscillation zeros
            amp = max(float(np.max(np.abs(ref))), 1e-30)
            rel = gap / (np.abs(ref) + 1e-3 * amp)
            worst = max(worst, float(np.max(rel)))
        out.append(CheckResult(f"reduction/n={n}/{char.value}/{branch.value}",
                               0.0, worst, worst, 1e-10))
    return out


def suite_chi():
    """chi_n differential identity and small-argument normalization."""
    out = []
    # 4th-order central differences keep the scaled residual below 1e-6
    for n in range(1, 7):
        for k in (0.5, 1.0, 2.0):
            rr = np.linspace(0.5, 5.0, 41)
            h = 1e-3 / k
            c = chi(n, k, rr)
            cp = chi(n, k, rr + h)
            cm = chi(n, k, rr - h)
            cpp = chi(n, k, rr + 2 * h)
            cmm = chi(n, k, rr - 2 * h)
            d2 = (-cpp + 16 * cp - 30 * c + 16 * cm - cmm) / (12 * h * h)
            d1 = (-cpp + 8 * cp - 8 * cm + cmm) / (12 * h)
            res = d2 + (n - 1) / rr * d1 + 4 * math.pi ** 2 * k * k * c
            bound = 1e-6 * (4 * math.pi ** 2 * k * k * np.abs(c) + 1.0)
            worst = float(np.max(np.abs(res) / bound))
            out.append(CheckResult(f"chi-ode/n={n}/k={k}", 0.0, worst, worst, 1.0))
    for n in range(1, 7):
        for k in (0.5, 1.0, 2.0):
            lim = chi_small_argument_limit(n, k)
            val = chi(n, k, 1e-6)
            out.append(_check(f"chi-small-r/n={n}/k={k}", lim, val,
                              1e-4 * abs(lim)))
    return out


def suite_oracle():
    """Cartesian windowed evaluation against the radial pipeline (bump)."""
    cfg = QuadConfig()
    profile = builtin_profile("compact_bump")
    out = []
    for n, cartesian, tol in ((1, cartesian_ft_1p1, 1e-3),
                              (2, cartesian_ft_1p2, 5e-3)):
        for k in (0.5, 1.0):
            for char in MomentumChar:
                mom = MomentumMagnitude(k, char)
                ref = transform(n, profile, mom, cfg).value
                w = window_config_for(profile, mom, dims=n)
                got = cartesian(profile, mom, w).value
                out.append(_check(f"oracle-1p{n}/{char.value}/k={k}", ref, got,
                                  tol * abs(ref)))
    return out


SUITES = {
    "angular": suite_angular,
    "closure": suite_closure,
    "recursion": suite_recursion,
    "gaussian": suite_gaussian,
    "reduction": suite_reduction,
    "oracle": suite_oracle,
    "chi": suite_chi,
}


def run_suite(name: str):
    """Run one named suite, or all of them."""
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    try:
        fn = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; available: "
                       f"{sorted(SUITES)} or 'all'") from None
    return fn()
