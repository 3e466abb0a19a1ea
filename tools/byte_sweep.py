"""Byte-identity sweep: run a fixed set of CLI invocations in-process and
print the line count and sha256 of their concatenated standard output.

    python tools/byte_sweep.py [--src PATH] [--save PATH]

The sweep is `transform` of the three non-zero builtin profiles for
n = 1..10 (`gauss_oscillatory` for n <= 5), both momentum characters, one
`--tol 1e-6 --epsilon0 0.3` run, one `builtin:zero` run,
`validate --suite all`, and `chi` for n = 1..10 at `--k 0.5` and `--k 2`
over 41 radii from 0 to 5 plus one single-radius run.  The oracle's lines
follow: the `.17g` golden set that `tests/data/golden_oracle.txt` pins
(`oracle_lines`), then the unbounded 1+1 `gauss_oscillatory` at k = 1 for
both characters, the benchmark's oracle anchor (about 5 s each, too slow
for the test suite).  Last come the full-precision `hankel_transform`
lines that `tests/data/golden_radial.txt` pins (`radial_lines`).  A change
meant to keep the package's numbers must print the same digest as its
parent.  The package is imported from `--src` (default: the `src/` next
to this script), so one script can sweep two checkouts.  `--save` also
writes the output, for a diff when the digests differ.
"""

import argparse
import contextlib
import hashlib
import io
import pathlib
import sys

CHARS = ("timelike", "spacelike")


def sweep():
    """The argument lists of the sweep, in order."""
    runs = [f"--n {n} --profile builtin:gauss_oscillatory --char {c} "
            "--kmin 0.25 --kmax 1.5 --kcount 5"
            for n in range(1, 6) for c in CHARS]
    runs += [f"--n {n} --profile builtin:{p} --char {c} "
             "--kmin 0.1 --kmax 3 --kcount 4"
             for p in ("compact_bump", "gauss_decay_timelike")
             for n in range(1, 11) for c in CHARS]
    runs += ["--n 3 --profile builtin:gauss_oscillatory --char timelike "
             "--kmin 0.5 --tol 1e-6 --epsilon0 0.3",
             "--n 2 --profile builtin:zero --char timelike "
             "--kmin 0.5 --kmax 1 --kcount 2"]
    chi = [f"--n {n} --k {k} --rmin 0 --rmax 5 --rcount 41"
           for k in ("0.5", "2") for n in range(1, 11)]
    chi.append("--n 3 --k 1.25 --rmin 0.7 --rcount 1")
    return [["transform", *r.split()] for r in runs] + [
        ["validate", "--suite", "all"]] + [["chi", *r.split()] for r in chi]


def _result_line(name, result) -> str:
    v = result.value
    return (f"{name} value={v.real:.17g}{v.imag:+.17g}j "
            f"error_estimate={result.error_estimate:.17g} "
            f"converged={result.converged} evaluations={result.evaluations}")


def oracle_lines(anchor: bool = False) -> list:
    """Full-precision lines of the oracle: `check_angular_identity` lhs and
    rhs for every kind at a in {0.5, 5}, then `cartesian_ft_1p1` and
    `cartesian_ft_1p2` (its `dims=2` schedule) on `compact_bump` at k = 0.5,
    both characters.  `anchor` appends the unbounded 1+1 `gauss_oscillatory`
    at k = 1, both characters.  Imports `lorentzft` from the import path."""
    from lorentzft.kernels import MomentumChar, MomentumMagnitude
    from lorentzft.oracle import (AngularIdentity, AngularIdentityKind,
                                  angular_quad_config, cartesian_ft_1p1,
                                  cartesian_ft_1p2, check_angular_identity,
                                  window_config_for)
    from lorentzft.profiles import builtin_profile

    lines = []
    cfg = angular_quad_config()
    for kind in AngularIdentityKind:
        for a in (0.5, 5.0):
            lhs, rhs, _ = check_angular_identity(AngularIdentity(kind, a), cfg)
            lines.append(f"identity {kind.value} a={a:g} lhs={lhs:.17g} rhs={rhs:.17g}")
    bump = builtin_profile("compact_bump")
    for char in MomentumChar:
        mom = MomentumMagnitude(0.5, char)
        lines.append(_result_line(
            f"1p1 compact_bump {char.value} k=0.5",
            cartesian_ft_1p1(bump, mom, window_config_for(bump, mom))))
        lines.append(_result_line(
            f"1p2 compact_bump {char.value} k=0.5",
            cartesian_ft_1p2(bump, mom, window_config_for(bump, mom, dims=2))))
    if anchor:
        gauss = builtin_profile("gauss_oscillatory")
        for char in MomentumChar:
            mom = MomentumMagnitude(1.0, char)
            lines.append(_result_line(
                f"1p1 gauss_oscillatory {char.value} k=1",
                cartesian_ft_1p1(gauss, mom, window_config_for(gauss, mom))))
    return lines


def radial_lines() -> list:
    """Full-precision lines of `hankel_transform` for n = 1..10 at
    k in {0.5, 2}: the Gaussian exp(-pi r^2) with the envelope exp(-2r) and
    no phase, then the compact bump (1 - r^2)^3 on its support radius 1 at
    the default phase scale.  Imports `lorentzft` from the import path."""
    import numpy as np

    from lorentzft.quadrature import QuadConfig
    from lorentzft.transform import hankel_transform

    def gauss(r):
        return np.exp(-np.pi * np.asarray(r, dtype=float) ** 2)

    def env(r):
        return np.exp(-2.0 * np.asarray(r, dtype=float))

    def bump(r):
        ra = np.asarray(r, dtype=float)
        return np.where(ra < 1.0, (1.0 - np.minimum(ra, 1.0) ** 2) ** 3, 0.0)

    cfg = QuadConfig()
    lines = []
    for n in range(1, 11):
        for k in (0.5, 2.0):
            lines.append(_result_line(
                f"hankel gauss n={n} k={k:g}",
                hankel_transform(n, gauss, k, cfg, envelope=env, phase_scale=0.0)))
            lines.append(_result_line(
                f"hankel bump n={n} k={k:g}",
                hankel_transform(n, bump, k, cfg, support_radius=1.0)))
    return lines


def run_sweep(src: pathlib.Path) -> str:
    sys.path.insert(0, str(src.resolve()))
    from lorentzft.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        for argv in sweep():
            main(argv)
    lines = oracle_lines(anchor=True) + radial_lines()
    return buf.getvalue() + "".join(line + "\n" for line in lines)


def cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent / "src",
                    help="directory holding the lorentzft package to sweep")
    ap.add_argument("--save", type=pathlib.Path, default=None,
                    help="also write the sweep's output to this file")
    args = ap.parse_args(argv)
    text = run_sweep(args.src)
    if args.save is not None:
        args.save.write_text(text, encoding="utf-8")
    print(f"{text.count(chr(10))} lines  sha256 "
          f"{hashlib.sha256(text.encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(cli())
