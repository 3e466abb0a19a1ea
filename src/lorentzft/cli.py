"""Command-line front end.

    lorentzft transform --n 1 --profile builtin:gauss_oscillatory \
        --char timelike --kmin 0.25 --kmax 1 --kcount 3
    lorentzft validate --suite angular
    lorentzft chi --n 2 --k 1.0 --rmin 0 --rmax 5 --rcount 51

`transform` writes a spectrum CSV (header char,l,re,im,err,converged) to
standard output; `validate` runs a named check suite and reports one line
per check; `chi` samples the radial Hankel weight.  Exit codes: 0 success,
1 failed checks or non-converged points, 2 bad usage.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .kernels import (MomentumChar, MomentumMagnitude, check_dimension, chi,
                      chi_small_argument_limit)
from .profiles import BUILTIN_PROFILES, builtin_profile, profile_from_csv
from .quadrature import QuadConfig, _halving
from .specfun import DomainError
from .transform import spectrum
from .validation import SUITES, run_suite


def _parse_profile(text: str):
    if text.startswith("builtin:"):
        return builtin_profile(text[len("builtin:"):])
    if text.startswith("csv:"):
        return profile_from_csv(text[len("csv:"):])
    raise ValueError(f"profile must be builtin:<name> or csv:<path>, got {text!r}")


def _momentum_grid(kmin, kmax, kcount, spacing, char):
    if kcount == 1:
        vals = [kmin]
    elif spacing == "log":
        vals = np.geomspace(kmin, kmax, kcount).tolist()
    else:
        vals = np.linspace(kmin, kmax, kcount).tolist()
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError(f"{kcount} momenta from {kmin!r} to {kmax!r} repeat a value; "
                         "widen the range or lower --kcount")
    return [MomentumMagnitude(v, char) for v in vals]


def cmd_transform(args) -> int:
    try:
        if args.kmax is None and args.kcount > 1:
            raise ValueError("--kmax required when --kcount > 1")
        kmax = args.kmin if args.kmax is None else args.kmax
        check_dimension(args.n)
        profile = _parse_profile(args.profile)
        char = MomentumChar(args.char)
        if args.kmax is not None and not math.isfinite(args.kmax):
            raise ValueError(f"--kmax must be finite, got {args.kmax}")
        if args.kcount < 1 or args.kmin <= 0 or (
                args.kcount > 1 and not args.kmin < kmax):
            raise ValueError("need kmin > 0 and a finite kmax > kmin (for kcount > 1)")
        grid = _momentum_grid(args.kmin, kmax, args.kcount, args.grid, char)
        cfg = QuadConfig(abs_tol=args.tol, rel_tol=args.tol,
                         epsilon_schedule=_halving(args.epsilon0, 6))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        results = spectrum(args.n, profile, grid, cfg)
    except DomainError as exc:        # a momentum outside the kernels' domain
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("char,l,re,im,err,converged")
    for l, r in zip(grid, results):
        print(f"{l.char.value},{l.value:.17g},{r.value.real:.17g},"
              f"{r.value.imag:.17g},{r.error_estimate:.17g},{str(r.converged).lower()}")
    return 0 if all(r.converged for r in results) else 1


def cmd_validate(args) -> int:
    try:
        checks = run_suite(args.suite)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    n_fail = 0
    print(f"{'check':44s} {'expected':>24s} {'actual':>24s} {'gap':>12s} pass")
    for c in checks:
        ok = c.passed
        n_fail += 0 if ok else 1
        print(f"{c.name:44s} {_fmt(c.expected):>24s} {_fmt(c.actual):>24s} "
              f"{c.gap:12.3e} {'PASS' if ok else 'FAIL'}")
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return 0 if n_fail == 0 else 1


def _fmt(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.10g}"
    return f"{z.real:.6g}{z.imag:+.6g}j"


def cmd_chi(args) -> int:
    try:
        if args.rmax is None and args.rcount > 1:
            raise ValueError("--rmax required when --rcount > 1")
        rmax = args.rmin if args.rmax is None else args.rmax
        check_dimension(args.n)
        if not all(math.isfinite(v) for v in (args.k, args.rmin, rmax)):
            raise ValueError("--k, --rmin and --rmax must be finite")
        if args.rcount < 0 or args.rmin < 0 or args.k <= 0:
            raise ValueError("need rmin >= 0, k > 0, rcount >= 0")
        if args.rcount > 1 and rmax < args.rmin:
            raise ValueError("need rmax >= rmin")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rr = np.linspace(args.rmin, rmax, args.rcount)
    # tabulates chi_n(k, r); the r = 0 rows are the small-argument limit
    pos = rr > 0
    vals = np.full(rr.shape, chi_small_argument_limit(args.n, args.k))
    try:
        vals[pos] = chi(args.n, args.k, rr[pos])
    except DomainError as exc:        # chi refuses an underflow or overflow
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("r,chi")
    for r, v in zip(rr, vals):
        print(f"{r:.17g},{v:.17g}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every `main` call shares it."""
    p = argparse.ArgumentParser(prog="lorentzft",
                                description="Fourier transforms of Lorentz-"
                                            "invariant functions")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="spectrum of a profile over a momentum grid")
    t.add_argument("--n", type=int, required=True, help="spatial dimension (1..10)")
    t.add_argument("--profile", required=True,
                   help="builtin:<name> or csv:<path>; builtins: "
                        + ", ".join(BUILTIN_PROFILES))
    t.add_argument("--char", choices=["timelike", "spacelike"], required=True)
    t.add_argument("--kmin", type=float, required=True)
    t.add_argument("--kmax", type=float, default=None)
    t.add_argument("--kcount", type=int, default=1)
    t.add_argument("--grid", choices=["linear", "log"], default="linear")
    t.add_argument("--tol", type=float, default=1e-4,
                   help="absolute and relative tolerance for the per-point "
                        "convergence flag")
    t.add_argument("--epsilon0", type=float, default=0.1,
                   help="largest damping parameter of the schedule")
    t.set_defaults(func=cmd_transform)

    v = sub.add_parser("validate", help="run a validation suite")
    v.add_argument("--suite", required=True,
                   help=f"one of {sorted(SUITES)} or 'all'")
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("chi", help="sample the radial Hankel weight chi_n(k, r)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=float, required=True)
    c.add_argument("--rmin", type=float, required=True)
    c.add_argument("--rmax", type=float, default=None)
    c.add_argument("--rcount", type=int, required=True)
    c.set_defaults(func=cmd_chi)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
