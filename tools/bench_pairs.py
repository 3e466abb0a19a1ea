"""Alternating parent/change benchmark pairs, recorded in a BENCH_<pr>.json.

    python tools/bench_pairs.py --parent PATH --change PATH \
        --workload chirped_spectrum --seeds 1301-1310 --out BENCH_13.json

For each seed it runs `python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0` once in each checkout, as a pair, and alternates
which side runs first from one pair to the next.  N is the `run_seconds`
of the change's BENCHMARK.json.  Both checkouts are used
as they are (run.py imports the package from their `src/`); nothing under
`perfbench/` is edited.  The final JSON line each run prints is stored with
its side, workload, seed and order.  `--trace` runs `--seconds 4 --trace 1`
instead, parent then change, and stores the pairs under `traced_runs`.
A seed the file already holds for the workload (untraced or traced) is
refused: the summary pairs runs by seed.  One run at a time may write a
file: a run holds an exclusive lock on `<out>.lock` beside it, removed at
exit, and a second run on the same `--out` exits with an error before
running anything.

The output file is created, or extended when it exists: new runs are
appended, the seeds listed per workload, and the summary recomputed from
every stored run.  The summary holds, for each workload and each
end-to-end metric of the change's BENCHMARK.json, the quartiles of both
sides (inclusive method), the change's relative distance from the parent
median in the worse direction, the bound, the parent's interquartile range
over its median, the pairs the change wins, and a verdict: "worse than
bound", "unresolved: parent IQR wider than bound" or "within bound".
`gain_over_parent_iqr` is the median difference in the better direction
over the parent's interquartile range.  `gain_resolved` is true when the
change wins at least 9 in 10 of the pairs (a tie is a win for neither
side) and `gain_over_parent_iqr` exceeds 1.  `every_change_run_better` is
true when every change run reads better than every parent run: a metric
whose spread is wider than its bound is no worse in that case.  Neither
alters the verdict, and the tool gates nothing.

    python tools/bench_pairs.py --parent PATH --change PATH \
        --suites --out BENCH_17.json

`--suites` times, in each checkout's root with its `src/` on PYTHONPATH,
`python -m lorentzft.cli validate --suite S` for each suite the change
defines and one tier-1 run (`python -m pytest -q -p no:cacheprovider
--continue-on-collection-errors`), as wall time of the whole process,
and records the process's peak resident set (`peak_rss_mb`, the
`ru_maxrss` os.wait4 reports when it reaps the child).
Each run of the tool adds three pairs, numbered on from those the file
holds, so running it again lengthens the series.  A pair runs every
command once on each side, alternating which side goes first from one
pair to the next.  `--suites` takes no `--trace`, `--workload` or
`--seeds`.  The runs go under the file's `suites` key with each suite's
wall-time and RSS quartiles per side and the change's median wall time
over the parent's.  These are uncalibrated: they gate nothing.
"""

import argparse
import contextlib
import fcntl
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

# the counts a traced pair must share: a change that keeps the numbers
# keeps every call, point and evaluation count
_COUNT_SUFFIXES = (".calls", ".points", ".evals", ".converged_ratio")

# pairs of suite timings one run of the tool adds
_SUITE_PAIRS = 3


def parse_seeds(text):
    """'A-B' or 'A' -> the list of seeds A..B."""
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text}")
    return list(range(lo, hi + 1))


def commit_of(checkout):
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def run_once(checkout, workload, seed, seconds, trace):
    """The final JSON line of one perfbench/run.py run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited "
                 f"{out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def suite_names(checkout):
    """The validation suites `checkout` defines, in its order."""
    cmd = [sys.executable, "-c",
           "from lorentzft.validation import SUITES; print(*SUITES)"]
    out = subprocess.run(cmd, cwd=checkout, env=_env(checkout), capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


def _env(checkout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(checkout).resolve() / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure(cmd, checkout):
    """(wall seconds, exit code, last output line, peak RSS in MB) of one
    command run in `checkout` with its `src/` on PYTHONPATH.  The output goes
    to a temporary file, not a pipe, and the child is reaped with os.wait4,
    whose ru_maxrss (KiB on Linux) is the child's peak resident set.  Linux
    counts the spawning process's resident set at exec in it too, so a
    value is at least this tool's own peak RSS, which stays small."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=checkout, env=_env(checkout), stdout=out,
                                 stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        # reaped above: Popen must not wait for it again
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode(errors="replace").strip().splitlines()
    return wall, child.returncode, lines[-1] if lines else "", usage.ru_maxrss / 1024.0


def time_once(checkout, name):
    """`measure` of one suite or tier-1 run in `checkout`."""
    if name == "tier1":
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    else:
        cmd = [sys.executable, "-m", "lorentzft.cli", "validate", "--suite", name]
    return measure(cmd, checkout)


def summarize_suites(runs):
    """Per suite: both sides' wall-time and peak-RSS quartiles, the change's
    median wall time over the parent's, the pairs and the exit codes seen."""
    summary = {}
    for name in dict.fromkeys(r["name"] for r in runs):
        sides = {side: [r for r in runs if r["name"] == name and r["side"] == side]
                 for side in ("parent", "change")}
        if not (sides["parent"] and sides["change"]):
            continue
        pq, cq = (quartiles([r["wall_s"] for r in sides[s]]) for s in ("parent", "change"))
        entry = {
            "parent_q1_median_q3": pq, "change_q1_median_q3": cq,
            "change_over_parent_median": round(cq[1] / pq[1], 4),
            "pairs": min(len(sides["parent"]), len(sides["change"])),
            "returncodes": sorted({r["returncode"] for r in runs if r["name"] == name})}
        for side in ("parent", "change"):
            # runs recorded before peak RSS was measured have none
            rss = [r["peak_rss_mb"] for r in sides[side] if "peak_rss_mb" in r]
            if rss:
                entry[f"{side}_rss_mb_q1_median_q3"] = quartiles(rss)
        summary[name] = entry
    return summary


def run_suites(doc, checkouts, out):
    """Alternating parent/change pairs of every suite and tier-1, appended
    under doc["suites"]; `out` is written after every pair."""
    suites = doc.setdefault("suites", {
        "description": ("Wall time and peak RSS of `python -m lorentzft.cli "
                        "validate --suite S` "
                        "per suite and of one tier-1 run (`name` tier1), each run "
                        "from its own checkout's root with its `src/` on "
                        "PYTHONPATH, in alternating parent/change pairs; "
                        "uncalibrated, gating nothing."),
        "runs": [], "summary": {}})
    names = suite_names(checkouts["change"]) + ["tier1"]
    done = max((r["pair"] + 1 for r in suites["runs"]), default=0)
    for pair in range(done, done + _SUITE_PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for name in names:
            for side in order:
                wall, code, last, rss = time_once(checkouts[side], name)
                suites["runs"].append({"order": len(suites["runs"]), "pair": pair,
                                       "side": side, "name": name,
                                       "wall_s": round(wall, 4),
                                       "peak_rss_mb": round(rss, 2),
                                       "returncode": code, "last_line": last})
                print(f"suite {name} pair {pair} {side}: {wall:.2f} s, "
                      f"{rss:.1f} MB, exit {code}", flush=True)
        suites["summary"] = summarize_suites(suites["runs"])
        out.write_text(json.dumps(doc, indent=1) + "\n")


def machine():
    # versions from the installed metadata: importing numpy here would raise
    # the floor under every child's peak RSS (see `measure`)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "platform": platform.platform()}


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def summarize(runs, metrics):
    """Per workload and end-to-end metric: both sides' quartiles and the
    change's standing against the parent (see the module docstring)."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        out = {}
        for m in metrics:
            name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
            par = [p["parent"][name]["value"] for p in pairs]
            chg = [p["change"][name]["value"] for p in pairs]
            pq, cq = quartiles(par), quartiles(chg)
            worse = sign * (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            iqr = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
            if worse > m["bound"]:
                verdict = "worse than bound"
            elif iqr > m["bound"]:
                verdict = "unresolved: parent IQR wider than bound"
            else:
                verdict = "within bound"
            gain = -sign * (cq[1] - pq[1]) / (pq[2] - pq[0]) if pq[2] > pq[0] else None
            out[name] = {"parent_q1_median_q3": pq, "change_q1_median_q3": cq,
                         "change_worse_by": round(worse, 4), "bound": m["bound"],
                         "parent_iqr_over_median": round(iqr, 4),
                         "change_wins": f"{wins}/{len(pairs)}",
                         "gain_over_parent_iqr": None if gain is None else round(gain, 2),
                         "gain_resolved": (10 * wins >= 9 * len(pairs)
                                           and gain is not None and gain > 1),
                         "every_change_run_better":
                             max(sign * c for c in chg) < min(sign * p for p in par),
                         "verdict": verdict}
        summary[workload] = out
    return summary


def traced_counts_differ(traced):
    """(workload, seed, metric) of every count a traced pair does not share."""
    sides = {}
    for r in traced:
        sides.setdefault((r["workload"], r["seed"]), {})[r["side"]] = r["result"]["metrics"]
    diffs = []
    for (workload, seed), p in sides.items():
        if len(p) != 2:
            continue
        for name, v in p["parent"].items():
            if name.endswith(_COUNT_SUFFIXES) and \
                    p["change"].get(name, {}).get("value") != v["value"]:
                diffs.append([workload, seed, name])
    return diffs


@contextlib.contextmanager
def exclusive(out):
    """Hold the lock file beside `out` for the block, and remove it after;
    exit with an error if another run holds it."""
    lock = out.with_name(out.name + ".lock")
    with open(lock, "a") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            sys.exit(f"error: another run is writing {out} (it holds {lock})")
        try:
            yield
        finally:
            lock.unlink(missing_ok=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path,
                    help="git checkout of the parent commit")
    ap.add_argument("--change", required=True, type=pathlib.Path,
                    help="git checkout of the change")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=parse_seeds, help="A-B")
    ap.add_argument("--trace", action="store_true",
                    help="traced pairs (--seconds 4 --trace 1), parent first")
    ap.add_argument("--suites", action="store_true",
                    help="time each validate suite and tier-1 instead of a workload")
    ap.add_argument("--out", required=True, type=pathlib.Path,
                    help="BENCH_<pr>.json to create or extend")
    args = ap.parse_args(argv)
    if args.suites and (args.trace or args.workload or args.seeds):
        ap.error("--suites takes no --trace, --workload or --seeds")
    if not args.suites and (args.workload is None or args.seeds is None):
        ap.error("--workload and --seeds are required without --suites")
    with exclusive(args.out):
        record(args)


def record(args):
    """Create or extend `args.out` with the runs `args` asks for."""
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    commits = {"parent_commit": commit_of(args.parent),
               "change_commit": commit_of(args.change)}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
        if not args.suites:
            runs = doc["traced_runs"] if args.trace else doc["runs"]
            again = sorted({r["seed"] for r in runs if r["workload"] == args.workload}
                           & set(args.seeds))
            if again:
                sys.exit(f"error: {args.out} already holds {args.workload} "
                         f"seeds {again}")
        for key, value in commits.items():
            if doc.get(key) != value:
                sys.exit(f"error: {args.out} records {key} {doc.get(key)}, not {value}")
    else:
        doc = {"description": (
                   "Alternating parent/change pairs of `python3 perfbench/run.py "
                   f"--workload W --seed S --seconds {bench['run_seconds']}` (trace 0), "
                   "each side run in a "
                   "git checkout of its commit by tools/bench_pairs.py; `result` is "
                   "the final JSON line the run printed."),
               **commits, "machine": machine(), "seeds": {}, "summary": {},
               "runs": [],
               "traced_runs_note": ("`--seconds 4 --trace 1`, parent then change; "
                                    "`traced_counts_differ` lists every .calls, "
                                    ".points, .evals and converged_ratio a pair "
                                    "does not share"),
               "traced_runs": []}
    checkouts = {"parent": args.parent, "change": args.change}
    if args.suites:
        run_suites(doc, checkouts, args.out)
    elif args.trace:
        for seed in args.seeds:
            for side in ("parent", "change"):
                result = run_once(checkouts[side], args.workload, seed, 4, 1)
                doc["traced_runs"].append({"side": side, "workload": args.workload,
                                           "seed": seed, "trace": 1, "result": result})
                print(f"traced {args.workload} seed {seed} {side}: "
                      f"correct={result['correct']}", flush=True)
        doc["traced_counts_differ"] = traced_counts_differ(doc["traced_runs"])
    else:
        done = sum(r["workload"] == args.workload for r in doc["runs"]) // 2
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if (done + i) % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(checkouts[side], args.workload, seed,
                                  bench["run_seconds"], 0)
                doc["runs"].append({"order": len(doc["runs"]), "side": side,
                                    "workload": args.workload, "seed": seed,
                                    "trace": 0, "result": result})
                pps = result["metrics"]["points_per_s"]["value"]
                print(f"{args.workload} seed {seed} {side}: points_per_s {pps:.4g}",
                      flush=True)
            doc["seeds"].setdefault(args.workload, []).append(seed)
            doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
            # written after every pair, so an interrupted series keeps its runs
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
