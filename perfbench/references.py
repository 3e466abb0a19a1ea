"""Reference values for the benchmark's output checks.

This module uses only the standard library and mpmath and never imports
lorentzft, so a defect in the package cannot also sit in its reference.

* `chirped_closed_form`: the all-n closed form of the transform of
  f(s^2) = exp(i s^2).
* `radial_series`: the transform of `compact_bump` or
  `gauss_decay_timelike`, integrated term by term.  Every cylinder function
  of the Minkowski kernels is expanded in its ascending series
  (DLMF 10.2.2, 10.8.1, 10.25.2, 10.27.4, 10.31.1). The integral of each
  term against the profile is an exact moment. For the bump this is a Beta
  function; for the Gaussian it is a Gamma function. The terms are summed
  in mpmath at a working precision that covers their cancellation.
* `radial_quadrature`: the same transform by `mpmath.quad` against
  mpmath's own Bessel functions.  It is slow (0.05-10 s a point), so the
  benchmark's self-check uses it to cross-check `radial_series`, and the
  timed runs use the series.
* `angular_rhs` and `closure_rhs`: right-hand sides of the angular-integral
  identities and of the chi_1 chi_3 closure relation.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp


def chirped_closed_form(n: int, timelike: bool, l: float) -> complex:
    """pi^{(n+1)/2} e^{i pi (1-n)/4} e^{-+ i pi^2 l^2} (- timelike, + spacelike)."""
    sign = -1.0 if timelike else 1.0
    return (math.pi ** ((n + 1) / 2.0) * cmath.exp(1j * math.pi * (1 - n) / 4.0)
            * cmath.exp(sign * 1j * math.pi ** 2 * l * l))


def _kernel_terms(n: int, timelike_mom: bool):
    """[(branch, factor, family)]: the kernel of each branch is
    factor * s^{(n+1)/2} / l^{(n-1)/2} * Z(2 pi s l), Z named by family."""
    cosf, sinf = [(1, 0), (0, 1), (-1, 0), (0, -1)][(n - 1) % 4]
    two_pi = 2 * mp.pi
    if timelike_mom:
        out = []
        if cosf:
            out.append(("timelike", -two_pi * cosf, "Y"))
            out.append(("spacelike", 4 * cosf, "K"))
        if sinf:
            out.append(("timelike", -two_pi * sinf, "J"))
        return out
    return [("timelike", mp.mpf(4), "K"), ("spacelike", -two_pi, "Y")]


def _moment_seq(profile: str, q0):
    """Yield (M(q), L(q)) for q = q0, q0 + 2, ..., where M(q) = int f s^q ds
    and L(q) = int f s^q log(s) ds over the profile's timelike branch (equal
    to its spacelike branch for the bump)."""
    q = q0
    if profile == "compact_bump":
        # (1 - s^2)^3 on [0, 1]: M = (1/2) B((q+1)/2, 4) and L = dM/dq
        while True:
            m = 48 / ((q + 1) * (q + 3) * (q + 5) * (q + 7))
            yield m, -m * (1 / (q + 1) + 1 / (q + 3) + 1 / (q + 5) + 1 / (q + 7))
            q += 2
    # exp(-s^2) on [0, inf): M = Gamma(x)/2 and L = Gamma(x) psi(x)/4, x = (q+1)/2
    x = (q + 1) / 2
    g, psi = mp.gamma(x), mp.digamma(x)
    while True:
        yield g / 2, g * psi / 4
        g *= x
        psi += 1 / x
        x += 1


def _integrated_series(profile, mu, half_a, p0, alternating, const_w, psi_w, log_w):
    """int f(s) s^mu Z(a s) ds for one ascending series
    Z(z) = sum_k b_k (+-1)^k (z/2)^{2k+p0}
           [const_w + psi_w (psi(k+1) + psi(k+p0+1)) + log_w log(z/2)],
    with b_k = 1 / (k! Gamma(k+p0+1)), summed until the terms die out."""
    p0 = mp.mpf(p0)
    log_half_a = mp.log(half_a)
    b = 1 / mp.gamma(p0 + 1)
    psi_sum = (mp.digamma(1) + mp.digamma(p0 + 1)) if psi_w else 0
    scale = half_a ** p0
    step = half_a * half_a
    total = peak = mp.mpf(0)
    tiny = mp.mpf(10) ** (5 - mp.mp.dps)
    quiet = 0
    k = 0
    for M, L in _moment_seq(profile, mu + p0):
        w = -b if alternating and k % 2 else b
        term = w * scale * ((const_w + psi_w * psi_sum) * M
                            + log_w * (log_half_a * M + L))
        total += term
        mag = abs(term)
        peak = max(peak, mag)
        # the terms rise to one peak and then fall; stop once several in a
        # row are negligible against it
        quiet = quiet + 1 if mag <= peak * tiny else 0
        if quiet >= 4:
            return total
        k += 1
        b /= k * (k + p0)
        if psi_w:
            psi_sum += 1 / mp.mpf(k) + 1 / (k + p0)
        scale *= step


def _cylinder_integral(profile, family, twice_nu, mu, half_a):
    """int f(s) s^mu Z_nu(2 half_a s) ds for Z in {J, Y, K}, nu = twice_nu / 2."""
    nu = mp.mpf(twice_nu) / 2
    series = lambda p0, alt, c, p=0, lg=0: _integrated_series(
        profile, mu, half_a, p0, alt, c, p, lg)
    if family == "J":                                       # DLMF 10.2.2
        return series(nu, True, 1)
    if twice_nu % 2:
        # nu = m + 1/2: Y_nu = (-1)^{m+1} J_{-nu} (DLMF 10.2.3) and
        # K_nu = (-1)^m (pi/2) (I_{-nu} - I_nu) (DLMF 10.27.4)
        sgn = (-1) ** (twice_nu // 2)
        if family == "Y":
            return -sgn * series(-nu, True, 1)
        return sgn * mp.pi / 2 * (series(-nu, False, 1) - series(nu, False, 1))
    # integer order m: a finite sum of negative powers, then the log series
    m = twice_nu // 2
    moments = _moment_seq(profile, mu - m)
    finite = mp.mpf(0)
    for k in range(m):
        M, _ = next(moments)
        c = mp.factorial(m - k - 1) / mp.factorial(k) * half_a ** (2 * k - m) * M
        finite += c if family == "Y" else (-1) ** k * c
    if family == "Y":                                       # DLMF 10.8.1
        return -finite / mp.pi + series(m, True, 0, -1 / mp.pi, 2 / mp.pi)
    return (finite / 2                                      # DLMF 10.31.1
            + series(m, False, 0, (-1) ** m / mp.mpf(2), (-1) ** (m + 1)))


def _has_branch(profile: str, branch: str) -> bool:
    return not (profile == "gauss_decay_timelike" and branch == "spacelike")


def radial_series(profile: str, n: int, timelike_mom: bool, l: float) -> complex:
    """Transform of a builtin real profile at invariant momentum l, by series."""
    a_float = 2 * math.pi * l
    # digits lost to cancellation: peak term ~ e^{a^2/4} (Gaussian) or e^a (bump)
    lost = a_float * a_float / 4 if profile == "gauss_decay_timelike" else a_float
    dps = 30 + int(lost / math.log(10)) + 1
    with mp.workdps(dps):
        lv = mp.mpf(l)
        mu = mp.mpf(n + 1) / 2
        total = mp.mpf(0)
        for branch, factor, family in _kernel_terms(n, timelike_mom):
            if _has_branch(profile, branch):
                total += factor * _cylinder_integral(profile, family, n - 1, mu,
                                                     mp.pi * lv)
        return complex(float(total / lv ** (mp.mpf(n - 1) / 2)), 0.0)


def radial_quadrature(profile: str, n: int, timelike_mom: bool, l: float,
                      dps: int = 20) -> complex:
    """Transform of a builtin real profile by mpmath.quad and mpmath Bessels."""
    with mp.workdps(dps):
        lv = mp.mpf(l)
        nu = mp.mpf(n - 1) / 2
        bessel = {"J": mp.besselj, "Y": mp.bessely, "K": mp.besselk}
        total = mp.mpf(0)
        for branch, factor, family in _kernel_terms(n, timelike_mom):
            if not _has_branch(profile, branch):
                continue
            if profile == "compact_bump":
                f, top = (lambda s: (1 - s * s) ** 3), mp.mpf(1)
            else:
                f, top = (lambda s: mp.exp(-s * s)), mp.mpf(8)
            if family == "K":
                top = min(top, 80 / (2 * mp.pi * lv))    # K_nu(z) < e^{-z}
            panels = int(mp.ceil(top * max(4 * lv, 2)))
            edges = [top * j / panels for j in range(panels + 1)]
            z = lambda s: bessel[family](nu, 2 * mp.pi * s * lv)
            total += factor * mp.quad(lambda s: f(s) * s ** ((n + 1) / mp.mpf(2))
                                      * z(s), edges) / lv ** nu
        return complex(float(total), 0.0)


def angular_rhs(kind: str, a: float) -> float:
    """Closed-form right-hand side of one angular identity (oracle kinds)."""
    a = mp.mpf(a)
    zero = 0
    table = {
        "cosh_to_N0": lambda: -mp.pi * mp.bessely(zero, a),
        "sinh_to_K0": lambda: 2 * mp.besselk(zero, a),
        "theta_to_J0_half": lambda: mp.pi / 2 * mp.besselj(zero, a),
        "theta_to_J0_full": lambda: mp.pi * mp.besselj(zero, a),
        "sinh_J0_exp": lambda: 2 * mp.pi / a * mp.exp(-a),
        "cosh_J0_cos": lambda: mp.pi / (2 * a) * mp.cos(a),
    }
    return float(table[kind]())


def closure_rhs(k: float, u: float) -> float:
    """int_0^inf chi_1(r, k) chi_3(u, r) dr = 2 pi u Theta(u - k)."""
    return 2.0 * math.pi * u if u > k else 0.0
