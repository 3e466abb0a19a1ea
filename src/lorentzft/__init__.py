"""Fourier transforms of Lorentz-invariant functions on R^{1,n}.

The (n+1)-dimensional Fourier transform of a function depending only on the
invariant s^2 = t^2 - |x|^2 reduces to one-dimensional radial integrals
against Bessel-type kernels, separately for timelike and spacelike momenta.
This package evaluates those transforms, exposes the kernels and the
quadrature machinery behind them, and ships validation suites comparing the
radial pipeline against direct windowed evaluation of the defining spacetime
integral.
"""

from .specfun import DomainError, Order, bessel_j, bessel_k, bessel_n, gamma_fn
from .quadrature import (
    QuadConfig,
    QuadResult,
    extrapolate_to_zero,
    integrate_finite,
    integrate_semiinfinite_damped,
)
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
from .profiles import (
    RadialProfile,
    builtin_profile,
    profile_from_csv,
    profile_to_csv,
)
from .transform import (
    gaussian_reference,
    hankel_transform,
    recursion_step,
    spectrum,
    transform,
)
from .oracle import (
    AngularIdentity,
    AngularIdentityKind,
    cartesian_ft_1p1,
    cartesian_ft_1p2,
    check_angular_identity,
    window_config_for,
)

__all__ = [
    "DomainError", "Order", "bessel_j", "bessel_k", "bessel_n", "gamma_fn",
    "QuadConfig", "QuadResult", "extrapolate_to_zero", "integrate_finite",
    "integrate_semiinfinite_damped",
    "Branch", "KernelSpec", "MomentumChar", "MomentumMagnitude", "chi",
    "chi_small_argument_limit", "closure_rhs", "minkowski_kernel",
    "RadialProfile", "builtin_profile", "profile_from_csv", "profile_to_csv",
    "gaussian_reference", "hankel_transform", "recursion_step", "spectrum",
    "transform",
    "AngularIdentity", "AngularIdentityKind",
    "cartesian_ft_1p1", "cartesian_ft_1p2", "check_angular_identity",
    "window_config_for",
]

__version__ = "0.1.0"
