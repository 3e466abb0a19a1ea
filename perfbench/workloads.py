"""The benchmark's four workloads: their inputs, operations and checks.

A pass is one op list: the anchor round, then seeded rounds.  The anchor
round puts every slot at the end of its range where the gap to the
reference peaks, so the worst gap is measured in every run.  In the seeded
rounds each slot samples its range systematically: a seeded offset plus
evenly spaced strata, visited in a seeded order.  So a pass covers each
range evenly whatever the seed, and its op times do not hinge on a lucky
draw.

The ops reach the package only through its public functions and the
in-process CLI entry point, looked up as module attributes at call time,
so the tracer in `tracing.py` sees every call it wraps.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

import lorentzft.cli as lcli
import lorentzft.kernels as lk
import lorentzft.oracle as lo
import lorentzft.profiles as lp
import lorentzft.quadrature as lq

# the package re-exports the function transform under the module's name
lt = importlib.import_module("lorentzft.transform")

WORKLOADS = ("chirped_spectrum", "compact_spectrum", "oracle_check", "identities")

# A run is PASSES passes over the same op list, timed with the calibration
# kernel named in CALIBRATION (see calibration.py).  The (anchor round,
# seeded round) seconds at the baseline on a 2-core x86 VM set how many
# seeded rounds a pass holds.
PASSES = 2
CALIBRATION = {
    "chirped_spectrum": "cpu",
    "compact_spectrum": "cpu",
    "oracle_check": "memory",
    "identities": "cpu",
}
ROUND_SECONDS = {
    "chirped_spectrum": (2.2, 2.2),
    "compact_spectrum": (1.4, 1.2),
    "oracle_check": (4.5, 4.3),
    "identities": (0.13, 0.14),
}
CLI_TOL = 1e-4            # the CLI's default --tol: the stated accuracy
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

TL, SL = lk.MomentumChar.TIMELIKE, lk.MomentumChar.SPACELIKE
ANGULAR_KINDS = tuple(k.value for k in lo.AngularIdentityKind)


@dataclass(frozen=True)
class Op:
    """One workload operation: `kind` selects the call, `args` its input."""

    kind: str
    args: tuple

    @property
    def label(self) -> str:
        return self.kind + "(" + ", ".join(
            f"{a:.6g}" if isinstance(a, float) else str(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Check:
    """One output against its reference; passes when
    gap <= max(atol, rtol * |ref|)."""

    label: str
    got: complex
    ref: complex
    rtol: float
    atol: float
    estimate: Optional[float] = None
    converged: Optional[bool] = None

    @property
    def gap(self) -> float:
        return abs(self.got - self.ref)

    @property
    def passed(self) -> bool:
        return self.gap <= max(self.atol, self.rtol * abs(self.ref))

    @property
    def rel_gap(self) -> float:
        # relative above |ref| = 1, absolute below: zeros of a spectrum
        # cannot blow it up
        return self.gap / max(abs(self.ref), 1.0)


@dataclass
class Setup:
    """Profiles and configs a workload builds before its first op."""

    profiles: dict
    quad: lq.QuadConfig
    closure_quad: lq.QuadConfig
    angular_quad: lq.QuadConfig


def setup(name: str) -> Setup:
    """Build the workload's profiles and configs (what setup_s times)."""
    if name not in WORKLOADS:
        raise KeyError(name)
    names = ("compact_bump", "gauss_oscillatory")
    return Setup(profiles={p: lp.builtin_profile(p) for p in names},
                 quad=lq.QuadConfig(),
                 closure_quad=lq.QuadConfig(abs_tol=1e-10, rel_tol=1e-10),
                 angular_quad=lo.angular_quad_config())


# --------------------------------------------------------------------------
# inputs


def _spectrum(n, profile, char, kmin, kmax=None):
    if kmax is None:
        return Op("spectrum", (n, profile, char, kmin))
    return Op("spectrum", (n, profile, char, kmin, kmax))


def _chirped(t):
    # one point per op: each costs 0.1-0.6 s already
    slots = [(n, c) for n in range(1, 6) for c in ("timelike", "spacelike")]
    if t is None:
        return [_spectrum(n, "gauss_oscillatory", c, 1.25) for n, c in slots]
    return [_spectrum(n, "gauss_oscillatory", c, 0.25 + t(i))
            for i, (n, c) in enumerate(slots)]


def _compact(t):
    slots = [(p, n, c) for p in ("compact_bump", "gauss_decay_timelike")
             for n in range(1, 11) for c in ("timelike", "spacelike")]
    if t is None:
        return [_spectrum(n, p, c, 0.1, 4.0) for p, n, c in slots]
    # log-uniform: kmin in [0.1, 0.63), kmax in [0.63, 4)
    return [_spectrum(n, p, c, 0.1 * 40.0 ** (t(2 * i) / 2),
                      0.1 * 40.0 ** ((1.0 + t(2 * i + 1)) / 2))
            for i, (p, n, c) in enumerate(slots)]


def _oracle(t, gauss_char):
    # the bump checks' gaps do not grow toward either end of [0.5, 1], so
    # only the unbounded Gaussian path (~5 s an op) is anchored, at k = 1
    if t is None:
        return [Op("oracle_1p1", ("gauss_oscillatory", gauss_char, 1.0))]
    # three 1+1 pairs to one 1+2 pair, so the op-time quantiles sit inside
    # one kind of op.  A pair's two characters take mirrored momenta: with
    # so few ops, and 1+2 times doubling over the range, the seed would
    # otherwise move the pass time
    ops = []
    for pair, kind in enumerate(("oracle_1p1",) * 3 + ("oracle_1p2",)):
        x = t(pair)
        ops += [Op(kind, ("compact_bump", "timelike", 0.5 + 0.5 * x)),
                Op(kind, ("compact_bump", "spacelike", 1.0 - 0.5 * x))]
    return ops


def _identities(t):
    n_ang = len(ANGULAR_KINDS)
    if t is None:
        a = [0.5] * n_ang
        closure = [(0.5, 2.0), (2.0, 0.5)]
        k_rec = [0.5, 0.5]
    else:
        a = [0.5 * 10.0 ** t(i) for i in range(n_ang)]
        # one pair with u > k (rhs 2 pi u), one with u < k (rhs 0), both
        # with |u - k| >= 0.25 as in suite_closure
        k_above = 0.5 + 1.25 * t(n_ang)
        u_below = 0.5 + 1.25 * t(n_ang + 1)
        closure = [(k_above, k_above + 0.25 + (1.75 - k_above) * t(n_ang + 2)),
                   (u_below + 0.25 + (1.75 - u_below) * t(n_ang + 3), u_below)]
        k_rec = [0.5 + 1.5 * t(n_ang + 4), 0.5 + 1.5 * t(n_ang + 5)]
    return ([Op("angular", (kind, x)) for kind, x in zip(ANGULAR_KINDS, a)]
            + [Op("closure", pair) for pair in closure]
            + [Op("recursion", (n, k)) for n, k in zip((1, 2), k_rec)])


def seeded_rounds(name: str, seconds: float) -> int:
    """Seeded rounds per pass, so that PASSES passes take about `seconds`."""
    anchor, seeded = ROUND_SECONDS[name]
    return max(1, round((seconds / PASSES - anchor) / seeded))


def make_pass(name: str, seed: int, rounds: int) -> list:
    """The ops of one pass: the anchor round, then `rounds` seeded rounds.

    Slot i of seeded round j takes stratum order_i[j] of `rounds` equal
    strata of its range, shifted by u_i inside it.  The shifts
    u_i = u0 + i * golden ratio (mod 1) spread over the slots, so the sum of
    the op times barely depends on the seed."""
    rng = random.Random(f"{name}/{seed}")
    u0 = rng.random()
    gauss_char = rng.choice(("timelike", "spacelike"))
    orders = {}

    def strata(j):
        def t(slot):
            if slot not in orders:
                orders[slot] = rng.sample(range(rounds), rounds)
            return (orders[slot][j] + (u0 + slot * GOLDEN) % 1.0) / rounds
        return t

    build = {
        "chirped_spectrum": _chirped,
        "compact_spectrum": _compact,
        "oracle_check": lambda t: _oracle(t, gauss_char),
        "identities": _identities,
    }[name]
    ops = build(None)
    for j in range(rounds):
        ops += build(strata(j))
    return ops


# --------------------------------------------------------------------------
# operations (timed)


def _momentum(char: str, k: float):
    return lk.MomentumMagnitude(k, TL if char == "timelike" else SL)


def run_op(op: Op, s: Setup):
    """Execute one op and return its raw result; nothing is checked here."""
    kind, args = op.kind, op.args
    if kind == "spectrum":
        n, profile, char, kmin = args[:4]
        argv = ["transform", "--n", str(n), "--profile", f"builtin:{profile}",
                "--char", char, "--kmin", repr(kmin)]
        if len(args) > 4:
            argv += ["--kmax", repr(args[4]), "--kcount", "2"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lcli.main(argv)
        return code, out.getvalue()
    if kind in ("oracle_1p1", "oracle_1p2"):
        profile, char, k = args
        f, mom = s.profiles[profile], _momentum(char, k)
        if kind == "oracle_1p1":
            return lo.cartesian_ft_1p1(f, mom, lo.window_config_for(f, mom))
        w = lo.window_config_for(f, mom, dims=2, eta0=0.02, n_etas=5)
        return lo.cartesian_ft_1p2(f, mom, w)
    if kind == "angular":
        kind_name, a = args
        ident = lo.AngularIdentity(lo.AngularIdentityKind(kind_name), a)
        return lo.check_angular_identity(ident, s.angular_quad)
    if kind == "closure":
        k, u = args

        def integrand(r):
            return lk.chi(1, r, k) * lk.chi(3, u, r)

        def env(r):
            return 4.0 * u / np.maximum(np.asarray(r, dtype=float), 1.0)

        return lq.integrate_semiinfinite_damped(
            integrand, s.closure_quad, envelope=env,
            osc_scale=2.0 * math.pi * (u + k), quad_phase=0.0)
    if kind == "recursion":
        n, k = args
        bump = s.profiles["compact_bump"]

        def F(x):
            return lt.transform(n, bump, _momentum("spacelike", x), s.quad).value

        return lt.recursion_step(F, k)
    raise KeyError(kind)


# --------------------------------------------------------------------------
# checks (untimed)


def _transform_ref(refs, profile, n, timelike, l):
    if profile == "gauss_oscillatory":
        return refs.chirped_closed_form(n, timelike, l)
    return refs.radial_series(profile, n, timelike, l)


def check_op(op: Op, result, refs) -> list:
    """Compare an op's result with its reference: a list of Checks.

    Raises ValueError when the output itself is malformed."""
    kind, args = op.kind, op.args
    if kind == "spectrum":
        code, text = result
        if code not in (0, 1):
            raise ValueError(f"cli exit code {code}")
        n, profile, char = args[:3]
        lines = text.splitlines()
        if lines[0] != "char,l,re,im,err,converged" or len(lines) != 1 + len(args[3:]):
            raise ValueError("unexpected transform CSV")
        out = []
        for line, k in zip(lines[1:], args[3:]):
            c, l, re, im, err, conv = line.split(",")
            if c != char or float(l) != k:
                raise ValueError(f"CSV row {line!r} is not the requested point")
            ref = _transform_ref(refs, profile, n, char == "timelike", k)
            out.append(Check(f"{op.label}@{k:.6g}", complex(float(re), float(im)),
                             ref, CLI_TOL, CLI_TOL, float(err), conv == "true"))
        return out
    if kind in ("oracle_1p1", "oracle_1p2"):
        profile, char, k = args
        n = 1 if kind == "oracle_1p1" else 2
        ref = _transform_ref(refs, profile, n, char == "timelike", k)
        # relative tolerances of suite_oracle and tests/test_oracle.py; the
        # WindowConfig's own abs_tol (1e-5) near zeros of the spectrum
        rtol = 1e-2 if profile == "gauss_oscillatory" else (1e-3 if n == 1 else 5e-3)
        return [Check(op.label, result.value, ref, rtol, 1e-5,
                      result.error_estimate, result.converged)]
    if kind == "angular":
        kind_name, a = args
        lhs = result[0]
        return [Check(op.label, lhs, refs.angular_rhs(kind_name, a), 0.0, 1e-6)]
    if kind == "closure":
        k, u = args
        return [Check(op.label, result.value.real, refs.closure_rhs(k, u), 0.0, 1e-3,
                      result.error_estimate, result.converged)]
    if kind == "recursion":
        n, k = args
        value, err = result
        ref = refs.radial_series("compact_bump", n + 2, False, k)
        return [Check(op.label, value, ref, 1e-4, 1e-4, err)]
    raise KeyError(kind)
