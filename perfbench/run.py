"""lorentzft benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload chirped_spectrum --seed 1 \
        --seconds 16 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
It makes two passes over the workload's op list, seeded by --seed and
sized by --seconds, and calibrates each op's time (calibration.py).  With
--trace 0 it prints the end-to-end metrics.  With --trace 1 it adds one
traced pass and prints the per-layer metrics.  Either way every output is
checked against a reference from `references.py`, which shares no code
with the package.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Lines before it are a
human-readable report.  BENCHMARK.json and perfbench/README.md describe
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time

# one single-threaded process: pin numeric thread pools before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import calibration  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
TAIL_BEYOND = 10          # ops beyond the reported tail percentile
MAX_RUN_FACTOR = 6        # stop a run that takes 6x --seconds


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=".perfbench_out",
                   help="directory for the span dump of a traced run")
    return p.parse_args(argv)


def load_package(root):
    """Import lorentzft from <root>/src; exit non-zero if the checkout lacks it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lorentzft", "__init__.py")):
        sys.exit(f"error: no lorentzft package under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import lorentzft
    if not os.path.abspath(lorentzft.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported lorentzft from {lorentzft.__file__}, not {src}")


def measure_setup(workload):
    """Median over fresh interpreters of import + workload setup, in s."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times), times


def run_pass(ops, call, clock=None):
    """Run ops closed loop once.

    Returns ([wall seconds], [calibrated seconds], [result], wall).  With a
    clock, the calibration kernel runs between ops (outside their times)."""
    spans, results = [], []
    t_start = time.perf_counter()
    for op in ops:
        if clock:
            clock.maybe_sample()
        t0 = time.perf_counter()
        try:
            res = call(op)
        except Exception as exc:       # a failed op is counted, not fatal
            res = exc
        spans.append((t0, time.perf_counter()))
        results.append(res)
    wall = time.perf_counter() - t_start
    times = [b - a for a, b in spans]
    if not clock:
        return times, times, results, wall
    clock.maybe_sample(force=True)
    scaled = [(b - a) * clock.scale(0.5 * (a + b)) for a, b in spans]
    return times, scaled, results, wall


def same_result(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def run_passes(ops, call, passes, budget_s, calibrate):
    """Run the op list `passes` times (fewer if over budget).

    Returns (calibrated seconds of every op execution, results of the first
    pass, uncalibrated op seconds summed per pass, indices of ops whose
    result changed between passes)."""
    clock = calibration.Clock(calibrate)
    scaled, results, raw_s, unstable = [], None, [], set()
    t_start = time.perf_counter()
    for _ in range(passes):
        raw, times, res, _ = run_pass(ops, call, clock)
        raw_s.append(sum(raw))
        scaled.append(times)
        if results is None:
            results = res
        else:
            unstable |= {i for i, (a, b) in enumerate(zip(results, res))
                         if not same_result(a, b)}
        if time.perf_counter() - t_start > budget_s:
            break
    return [t for times in scaled for t in times], results, raw_s, unstable


def check_all(ops, results, unstable, workloads, refs):
    """Checks of every op; returns (checks, failed labels, checks per op,
    failed op count)."""
    checks, failed, per_op, n_failed = [], [], [], 0
    for i, (op, res) in enumerate(zip(ops, results)):
        bad = len(failed)
        if i in unstable:
            failed.append(f"{op.label}: result changed between passes")
        if isinstance(res, Exception):
            failed.append(f"{op.label}: raised {type(res).__name__}: {res}")
            per_op.append([])
            n_failed += 1
            continue
        try:
            cs = workloads.check_op(op, res, refs)
        except (ValueError, IndexError) as exc:
            failed.append(f"{op.label}: bad output: {exc}")
            per_op.append([])
            n_failed += 1
            continue
        per_op.append(cs)
        checks.extend(cs)
        for c in cs:
            if not c.passed:
                failed.append(f"{c.label}: gap {c.gap:.3e} above tolerance "
                              f"max({c.atol:g}, {c.rtol:g}*|ref|), ref {c.ref:.6g}")
        n_failed += len(failed) > bad
    return checks, failed, per_op, n_failed


def tail(times_ms):
    """(value, percentile): the highest percentile with TAIL_BEYOND ops above."""
    xs = sorted(times_ms)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    i = len(xs) - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(op_s, passes, checks, per_op, setup_s):
    """op_s holds the calibrated time of every op execution in every pass."""
    times_ms = [dt * 1e3 for dt in op_s]
    tail_ms, tail_pct = tail(times_ms)
    with_estimate = [cs for cs in per_op if any(c.estimate is not None for c in cs)]
    under = sum(any(c.estimate is not None and c.estimate < c.gap for c in cs)
                for cs in with_estimate)
    flagged = [c for c in checks if c.converged is not None]
    honest = 1.0 - under / len(with_estimate) if with_estimate else 1.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "points_per_s": (len(checks) * passes / sum(op_s), "1/s"),
        "op_ms_p50": (statistics.median(times_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "max_rel_gap": (max(c.rel_gap for c in checks), "ratio"),
        "converged_frac": (sum(c.converged for c in flagged) / len(flagged)
                           if flagged else 1.0, "ratio"),
        "honest_estimate_frac": (honest, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {
        "setup_s": SETUP_PROBES, "points_per_s": len(checks) * passes,
        "op_ms_p50": len(times_ms), "op_ms_tail": len(times_ms),
        "max_rel_gap": len(checks), "converged_frac": len(flagged),
        "honest_estimate_frac": len(with_estimate), "peak_rss_mb": 1,
    }
    notes = {"op_ms_p50": f"{len(times_ms) // passes} ops x {passes} passes",
             "op_ms_tail": f"p{tail_pct:.1f}",
             "honest_estimate_frac": f"underestimated_frac={under}/{len(with_estimate)}"}
    return metrics, samples, notes


def per_layer(tracer, traced_wall, untraced_wall):
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {}

    def s(name):
        return selfs.get(name, 0.0)

    def c(name, key):
        return counts[name][key] if name in counts else 0

    for fam in ("bessel_j", "bessel_n", "bessel_k"):
        for par in ("int", "half"):
            name = f"specfun.{fam}.{par}"
            pts = c(name, "points")
            out[f"{name}.points"] = (pts, "count")
            out[f"{name}.points_per_s"] = (pts / s(name) if s(name) > 0 else 0.0, "1/s")
    for name, keys in (
            ("kernels.minkowski_kernel", ("calls", "points", "self_s")),
            ("kernels.chi", ("points", "self_s")),
            ("profiles.branch", ("points", "self_s")),
            ("quadrature.integrate_semiinfinite_damped", ("calls", "evals", "self_s")),
            ("quadrature.extrapolate_to_zero", ("calls", "self_s")),
            ("quadrature.integrate_finite", ("calls", "evals", "self_s")),
            ("transform.transform", ("calls", "self_s")),
            ("transform.recursion_step", ("self_s",)),
            ("oracle.cartesian_ft_1p1", ("calls", "evals", "self_s")),
            ("oracle.cartesian_ft_1p2", ("calls", "evals", "self_s")),
            ("oracle.window_config_for", ("self_s",)),
            ("oracle.check_angular_identity", ("self_s",)),
            ("cli.main", ("self_s",))):
        for key in keys:
            out[f"{name}.{key}"] = (s(name), "s") if key == "self_s" \
                else (c(name, key), "count")
    quad = "quadrature.integrate_semiinfinite_damped"
    calls = c(quad, "calls")
    out[f"{quad}.converged_ratio"] = (c(quad, "converged") / calls if calls else 0.0, "ratio")
    loop_gap = traced_wall - tracer.root_time()
    out["bench.self_s"] = (s("bench.op") + loop_gap, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def trace_consistency(tracer, traced_wall):
    """Problems found in the spans: nesting, self times, unaccounted time."""
    problems = []
    spans = tracer.spans
    for name, start, end, parent in spans:
        if parent >= 0 and not (spans[parent][1] <= start <= end <= spans[parent][2]):
            problems.append(f"span {name} lies outside its parent {spans[parent][0]}")
            break
    if min(tracer.self_times().values(), default=0.0) < -1e-9:
        problems.append("negative self time")
    gap = traced_wall - tracer.root_time()
    if not -1e-6 <= gap <= 0.02 * traced_wall:
        problems.append(f"{gap:.4f} s of {traced_wall:.4f} s traced wall time lies "
                        "outside the op spans")
    return problems


def dump_spans(tracer, path):
    names = sorted({sp[0] for sp in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names,
                   "spans": [[index[n], round(a, 9), round(b, 9), p]
                             for n, a, b, p in tracer.spans]}, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    load_package(root)
    import references as refs
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    if not args.trace:
        setup_s, setup_samples = measure_setup(args.workload)
    setup = workloads.setup(args.workload)
    rounds = workloads.seeded_rounds(args.workload, args.seconds)
    ops = workloads.make_pass(args.workload, args.seed, rounds)
    passes = workloads.PASSES
    # warm-up: lazy imports and quadrature-rule caches fill before timing
    workloads.run_op(workloads.Op("spectrum", (1, "compact_bump", "timelike", 1.0)),
                     setup)

    op_s, results, raw_s, unstable = run_passes(
        ops, lambda op: workloads.run_op(op, setup), passes,
        MAX_RUN_FACTOR * args.seconds, workloads.CALIBRATION[args.workload])
    report = [f"workload {args.workload} seed {args.seed}: {len(ops)} ops "
              f"(anchor + {rounds} seeded rounds), {len(raw_s)}/{passes} passes "
              f"of {', '.join(f'{w:.3f}' for w in raw_s)} s uncalibrated op time"]
    problems = []
    if len(raw_s) < passes:
        report.append("stopped early: over the time budget")
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        traced_setup = dataclasses.replace(setup, profiles={
            k: tracer.wrap_branches(p) for k, p in setup.profiles.items()})
        tracer.install()
        tracer.reset()
        try:
            _, _, traced, traced_wall = run_pass(
                ops, lambda op: tracer.span(tracing.BENCH_SPAN, workloads.run_op,
                                            op, traced_setup))
        finally:
            left = tracer.restore()
        if left:
            problems.append("names left wrapped: " + ", ".join(left))
        problems += trace_consistency(tracer, traced_wall)
        if not all(same_result(a, b) for a, b in zip(results, traced)):
            problems.append("traced outputs differ from untraced outputs")
        dump_spans(tracer, os.path.join(args.out,
                                        f"trace-{args.workload}-seed{args.seed}.json"))
        report.append(f"traced pass: {len(tracer.spans)} spans, {traced_wall:.3f} s")

    # checks and references stay out of the timed region
    checks, failed, per_op, n_failed = check_all(ops, results, unstable, workloads, refs)
    report.append(f"ops attempted {len(ops)}, failed {n_failed} "
                  f"(failed_frac={n_failed / len(ops):.4f}), checks {len(checks)}")
    report += ["FAILED " + f for f in failed]
    report += [f"UNDERESTIMATED {c.label}: error_estimate {c.estimate:.3e} < gap {c.gap:.3e}"
               for c in checks if c.estimate is not None and c.estimate < c.gap]
    report += ["TRACE PROBLEM " + p for p in problems]

    if args.trace:
        metrics = per_layer(tracer, traced_wall, min(raw_s))
        for name, (value, unit) in metrics.items():
            report.append(f"  {name:58s} {value:14.6g} {unit}")
    else:
        metrics, samples, notes = end_to_end(op_s, len(raw_s), checks, per_op, setup_s)
        for name, (value, unit) in metrics.items():
            note = notes.get(name, "")
            report.append(f"  {name:22s} {value:14.6g} {unit:5s} n={samples[name]}"
                          + (f"  {note}" if note else ""))
        report.append("  setup probes (s): "
                      + ", ".join(f"{t:.4f}" for t in setup_samples))
    print("\n".join(report))
    result = {
        "correct": n_failed == 0 and not problems,
        "attempted": len(ops),
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
