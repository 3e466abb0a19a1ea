"""Radial profiles: Lorentz-invariant functions given by their two branches.

A profile represents f(s^2) through f_timelike(s0) = f(s0^2) on the timelike
side and f_spacelike(s1) = f(-s1^2) on the spacelike side, both evaluable for
radius >= 0; `RadialProfile` states what a branch returns.  Profiles may carry
an envelope hint (an upper bound on |f| used for tail truncation), a support
radius (beyond which both branches vanish identically), and a phase-scale
hint for oscillatory profiles.

The builtin `gauss_oscillatory` branches return the bits of
np.exp(+-1j * np.asarray(s) ** 2), values and signs.  A radii array of
65,536 points or more is evaluated in blocks shared between the caller and
the `specfun` thread pool, each block doing those numpy operations in place
in its slice of one output; shorter arrays, scalars and 0-d inputs are
evaluated inline.  The branch call itself stays on the caller's thread.

Tabulated profiles are read from CSV with header

    s,re_timelike,im_timelike,re_spacelike,im_spacelike

five entries a row, strictly increasing s >= 0 and every entry finite (a
UTF-8 byte-order mark before the header is accepted);
values are interpolated by `complex_pchip`, the package's own PCHIP
(scipy 1.17's `PchipInterpolator` values, bit for bit), inside the sample
range and extended by zero beyond it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .specfun import _ufunc

__all__ = [
    "RadialProfile",
    "builtin_profile",
    "BUILTIN_PROFILES",
    "profile_from_csv",
    "profile_to_csv",
    "PROFILE_CSV_HEADER",
]

PROFILE_CSV_HEADER = ["s", "re_timelike", "im_timelike", "re_spacelike", "im_spacelike"]


@dataclass(frozen=True)
class RadialProfile:
    """Two complex branches of a Lorentz-invariant function, as plain data.

    f_timelike(s0) is f at s^2 = s0^2 > 0; f_spacelike(s1) is f at
    s^2 = -s1^2 < 0.  A branch maps an array of radii to complex values
    that broadcast to that array's shape, so a constant branch, such as
    `lambda s: 0.0` for a function supported on one side, may return a
    scalar; every reader of a profile honours this.  A branch's value at a
    radius must depend on that radius alone: a transform calls a branch on
    consecutive chunks of a mesh's radii, and the engine calls it on
    several meshes at once.  The builtins are shared frozen instances.
    """

    f_timelike: Callable
    f_spacelike: Callable
    envelope_hint: Optional[Callable] = None
    support_radius: Optional[float] = None
    phase_scale: float = 0.0    # bound on |d arg f / d(s^2)|, 0 if non-oscillatory


def _bump(s):
    """(1 - s^2)^3 for s < 1, else 0, complex: the bits of
    np.where(s < 1, (1 - np.minimum(s, 1) ** 2) ** 3, 0.0) + 0j, sign bits
    included.  fmin takes a NaN radius to 1, so 1 - a^2 is already +0.0
    wherever that expression picks 0.0; the cube skips those zeros, on
    which pow is about four times slower than inside the support.  A scalar
    or 0-d input gives a numpy complex scalar, as that expression does."""
    sa = np.asarray(s, dtype=float)
    a = np.fmin(sa, 1.0, out=np.empty(sa.shape))
    np.multiply(a, a, out=a)
    np.subtract(1.0, a, out=a)
    np.power(a, 3, out=a, where=a != 0)
    out = np.zeros(sa.shape, dtype=complex)
    out.real = a
    return out[()] if out.ndim == 0 else out


def _zeros(s):
    return np.zeros(np.shape(s), dtype=complex)


# Shorter radii arrays evaluate the chirp inline: below about 64k points the
# split saves little or nothing, and pooling the oracle's branch calls (the
# pairs of one sign of u v in a plane piece, at most 32,768 points) made the
# oracle slower.
_CHIRP_POOL_MIN = 65536


def _chirp_block(rate, s, out=None):
    """exp(rate * s**2) for one block of radii, in place in `out` if given."""
    if out is None:
        return np.exp(rate * s ** 2)
    np.multiply(rate, s ** 2, out=out)
    return np.exp(out, out=out)


def _chirp(rate, s):
    """exp(rate * s**2): the inline expression's bits and dtype.  A long
    array is split into blocks on the specfun pool; only the numpy calls of
    `_chirp_block` leave the caller's thread."""
    s = np.asarray(s)
    return _ufunc(_chirp_block, rate, s, _CHIRP_POOL_MIN, np.result_type(rate, s))


BUILTIN_PROFILES = {
    # f(s^2) = exp(i s^2): unit modulus, quadratic phase on both branches;
    # the bits of np.exp(+-1j * np.asarray(s) ** 2), long arrays pooled
    "gauss_oscillatory": RadialProfile(
        f_timelike=lambda s: _chirp(1j, s),
        f_spacelike=lambda s: _chirp(-1j, s),
        envelope_hint=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        phase_scale=1.0),
    "gauss_decay_timelike": RadialProfile(
        f_timelike=lambda s: np.exp(-np.asarray(s, dtype=float) ** 2) + 0j,
        f_spacelike=_zeros,
        envelope_hint=lambda s: np.exp(-np.asarray(s, dtype=float) ** 2)),
    "compact_bump": RadialProfile(f_timelike=_bump, f_spacelike=_bump,
                                  support_radius=1.0),
    "zero": RadialProfile(f_timelike=_zeros, f_spacelike=_zeros,
                          support_radius=1.0),
}


def builtin_profile(name: str) -> RadialProfile:
    """The named builtin profile: the same frozen instance on every call."""
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown builtin profile {name!r}; available: "
                       f"{sorted(BUILTIN_PROFILES)}") from None


# --------------------------------------------------------------------------
# CSV-tabulated profiles


def complex_pchip(x: np.ndarray, y: np.ndarray) -> Callable:
    """PCHIP interpolant of complex samples y(x), the real and imaginary
    parts each its own monotone cubic (Fritsch & Butland, SIAM J. Sci. Stat.
    Comput. 5, 1984); zero outside [x[0], x[-1]] and at nan.

    The knot slopes are the weighted harmonic mean of the neighbouring
    secants, 0 where those change sign or one is 0; the end slopes are
    one-sided three-point estimates, clamped to keep the data's shape;
    two knots give the line.  Intervals are x[i] <= x < x[i+1], the last
    closed.  The floating-point operations are those of scipy 1.17's
    `PchipInterpolator(x, [y.real, y.imag], extrapolate=False)` on the same
    operands, so the values are scipy's bit for bit, sign bits included.
    A query of any shape gives a complex result of that shape.  Fewer than
    two knots, a y not of x's shape, non-finite samples or a non-increasing
    x raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 1 or len(x) < 2 or y.shape != x.shape:
        raise ValueError("complex_pchip needs at least two knots and one "
                         "sample per knot")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("complex_pchip needs finite knots and samples")
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("complex_pchip needs strictly increasing knots")
    yp = np.array([y.real, y.imag], dtype=float)    # one row per part
    m = np.diff(yp) / h
    if len(x) == 2:
        d = np.concatenate([m, m], axis=1)
    else:
        sm = np.sign(m)
        flat = (sm[:, 1:] != sm[:, :-1]) | (m[:, 1:] == 0) | (m[:, :-1] == 0)
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        d = np.zeros_like(yp)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:, :-1] + w2 / m[:, 1:]) / (w1 + w2)
            d[:, 1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        # both ends at once: the end interval and its neighbour
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[:, [0, -1]], m[:, [1, -2]]
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        keep = np.sign(e) == np.sign(m0)
        steep = keep & (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
        d[:, [0, -1]] = np.where(steep, 3.0 * m0, np.where(keep, e, 0.0))
    t = (d[:, :-1] + d[:, 1:] - 2 * m) / h
    # a column per interval i: x[i], then the coefficients of s^0..s^3 at
    # s = x - x[i], each for the real and the imaginary part; scipy's sum
    # starts from 0.0, which turns a -0.0 sample into +0.0
    rows = np.concatenate([x[None, :-1], yp[:, :-1] + 0.0, d[:, :-1],
                           (m - d[:, :-1]) / h - t, t / h])
    inner, lo, hi = x[1:-1], x[0], x[-1]

    def f(xq):
        xq = np.asarray(xq, dtype=float)
        xf = xq.ravel()
        # searching the inner knots gives x[i] <= xf < x[i+1], the last closed
        r = rows.take(np.searchsorted(inner, xf, side="right"), axis=1)
        s = np.subtract(xf, r[0], out=r[0])
        # outside the knots s is nan, like a nan query, and the value 0 below
        np.copyto(s, np.nan, where=(xf < lo) | (xf > hi))
        c0, c1, c2, c3 = r[1:3], r[3:5], r[5:7], r[7:9]
        # ((c0 + c1 s) + c2 s^2) + c3 s^3 with s^3 = (s s) s, in place
        v = c1 * s
        v += c0
        s2 = s * s
        c2 *= s2
        v += c2
        s2 *= s
        c3 *= s2
        v += c3
        v[np.isnan(v)] = 0.0
        v = v.reshape((2,) + xq.shape)
        return v[0] + 1j * v[1]

    return f


def _interp_branch(s: np.ndarray, vals: np.ndarray) -> Callable:
    if len(s) == 1:
        lo = s[0]
        only = vals[0]

        def f(x):
            xa = np.asarray(x, dtype=float)
            return np.where(xa == lo, only, 0.0 + 0.0j)

        return f
    return complex_pchip(s, vals)


def _check_table(data: np.ndarray) -> None:
    """ValueError unless data, one row per sample in the CSV column order,
    is a table `profile_from_csv` accepts."""
    if data.size == 0:
        raise ValueError("profile CSV has no samples")
    if not np.all(np.isfinite(data)):
        raise ValueError("profile CSV entries must be finite (no nan or inf)")
    s = data[:, 0]
    if np.any(s < 0) or np.any(np.diff(s) <= 0):
        raise ValueError("profile CSV requires strictly increasing s >= 0")


def profile_from_csv(source) -> RadialProfile:
    """Load a tabulated profile; `source` is a path or a text stream."""
    if hasattr(source, "read"):
        rows = list(csv.reader(source))
    else:
        with open(source, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    if rows and rows[0]:
        # spreadsheets often start a UTF-8 file with a byte-order mark
        rows[0][0] = rows[0][0].removeprefix("\ufeff")
    if not rows or [c.strip() for c in rows[0]] != PROFILE_CSV_HEADER:
        raise ValueError(f"profile CSV must start with header "
                         f"{','.join(PROFILE_CSV_HEADER)}")
    width = len(PROFILE_CSV_HEADER)
    for line, row in enumerate(rows[1:], start=2):
        if row and len(row) != width:
            raise ValueError(f"profile CSV line {line} has {len(row)} entries; "
                             f"each row needs {width}")
    data = np.array([[float(c) for c in row] for row in rows[1:] if row],
                    dtype=float)
    _check_table(data)
    s = data[:, 0]
    ft = _interp_branch(s, data[:, 1] + 1j * data[:, 2])
    fs = _interp_branch(s, data[:, 3] + 1j * data[:, 4])
    return RadialProfile(f_timelike=ft, f_spacelike=fs,
                         support_radius=float(s[-1]))


def profile_to_csv(profile: RadialProfile, s_grid, stream=None) -> str:
    """Sample both branches on s_grid, flattened to one row per radius, and
    write the CSV format.  A table `profile_from_csv` would refuse (an
    empty, negative, non-increasing or non-finite grid, or non-finite
    values) raises its ValueError instead, with nothing written."""
    sg = np.ravel(np.asarray(s_grid, dtype=float))
    vt, vs = (np.broadcast_to(np.asarray(f(sg), dtype=complex), sg.shape)
              for f in (profile.f_timelike, profile.f_spacelike))
    table = np.column_stack([sg, vt.real, vt.imag, vs.real, vs.imag])
    _check_table(table)
    out = stream if stream is not None else io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PROFILE_CSV_HEADER)
    for row in table:
        writer.writerow([f"{x:.17g}" for x in row])
    return out.getvalue() if stream is None else ""
