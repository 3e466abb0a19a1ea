"""Same-process A/B timings of one workload, parent against change, per op
kind.

    python tools/same_process.py --parent f8ce3d8 --change HEAD \
        --workload identities --seed 3401 --pairs 40

`git archive REV src perfbench` of each revision (from the repository at
`--repo`, by default the current directory) is unpacked into a temporary
directory, and each side's `perfbench/workloads.py` is imported against
its own `src/lorentzft`: every module loaded from a side's tree is dropped
from `sys.modules` once that side is loaded, so the next side imports its
own, and each loaded module keeps its own bindings.  A workload's ops
reach the package through those bindings alone (`perfbench/workloads.py`
imports the modules it calls at its top).  No bytecode is
written, and nothing in the repository is.  The numeric thread pools are
pinned to one thread before numpy loads, as `perfbench/run.py` pins them.

The op list is the workload's anchor round and ROUNDS seeded rounds of
`--seed`.  It runs once on each side, which warms both up; the tool exits
with an error unless the two sides' results have the same `repr`, op by
op.  Then come `--pairs` pairs: in each, each side runs the op list once,
and the side that runs first alternates from one pair to the next.  An
op's kind is its `Op.kind`, followed by its first string argument when it
has one (the profile or the identity), as in `angular:sinh_J0_exp`.  A
kind's time in a run is the sum of its ops' times, and its ratio in a pair
is the change's time over the parent's; `all` is the whole op list.

Both sides run in one process, in turns a few milliseconds apart, so a
swing in the machine's speed reaches both alike: that is what the ratio
cancels and what separate processes do not.  Lines before the last are a
table: per kind, the quartiles of its ratios (inclusive method), the pairs
the change wins (a lower time) and each side's median time.  The last line
is one JSON object for a BENCH file's `in_process_notes`; its `pool_cpus`
gives, per side, the CPU count `lorentzft.specfun` built its thread pool
for, so a record says whether an op could use a second CPU.
"""

import argparse
import importlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

from bench_pairs import quartiles

# pinned to one thread before numpy loads, as perfbench/run.py pins them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SIDES = ("parent", "change")
ROUNDS = 3          # seeded rounds in the op list, after the anchor round


def kind_of(op):
    """The op's kind, with its first string argument appended."""
    names = [a for a in op.args if isinstance(a, str)]
    return op.kind + (":" + names[0] if names else "")


def extract(repo, rev, dest):
    """`git archive rev src perfbench` of `repo`, unpacked into `dest`;
    returns the commit's full hash."""
    commit = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify",
                             f"{rev}^{{commit}}"], capture_output=True, text=True)
    if commit.returncode != 0:
        sys.exit(f"error: {rev!r} is not a commit of {repo}")
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "-C", str(repo), "archive", commit.stdout.strip(),
                        "src", "perfbench"], stdout=archive, check=True)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest, filter="data")
    return commit.stdout.strip()


def _provided(root):
    """Top-level names of the modules and packages in the tree's `src/` and
    `perfbench/`."""
    return {path.stem for folder in ("src", "perfbench")
            for path in (root / folder).iterdir()
            if path.suffix == ".py" or (path / "__init__.py").exists()}


def load(root):
    """`perfbench/workloads.py` of the tree at `root`, imported against the
    tree's own `src/lorentzft`, with no bytecode written, and the CPU count
    its `lorentzft.specfun` built the thread pool for (`_cpu_count()`; None
    when the tree has none).  Modules of the same names loaded before are
    set aside while it loads and put back after, and the tree's own are
    dropped from `sys.modules`."""
    root = pathlib.Path(root).resolve()
    names = _provided(root)
    saved = {name: module for name, module in sys.modules.items()
             if name.split(".")[0] in names}
    for name in saved:
        del sys.modules[name]
    paths = [str(root / "src"), str(root / "perfbench")]
    sys.path[:0] = paths
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    importlib.invalidate_caches()
    try:
        workloads = importlib.import_module("workloads")
        specfun = sys.modules.get("lorentzft.specfun")
        return workloads, getattr(specfun, "_cpu_count", lambda: None)()
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.path[:len(paths)]
        for name in [name for name in sys.modules if name.split(".")[0] in names]:
            del sys.modules[name]
        sys.modules.update(saved)


def time_pass(workloads, setup, ops):
    """Seconds per kind of one run of `ops` through `workloads`."""
    times = {}
    for op in ops:
        t0 = time.perf_counter()
        workloads.run_op(op, setup)
        elapsed = time.perf_counter() - t0
        times[kind_of(op)] = times.get(kind_of(op), 0.0) + elapsed
    return times


def summarize(runs):
    """Per kind, and `all`: the quartiles of the change/parent ratios over
    the pairs, the pairs the change wins and each side's median seconds.
    `runs` holds {"parent": {kind: s}, "change": {kind: s}} a pair."""
    kinds = list(dict.fromkeys(k for run in runs for k in run["parent"])) + ["all"]
    summary = {}
    for kind in kinds:
        sides = {side: [sum(run[side].values()) if kind == "all" else run[side][kind]
                        for run in runs] for side in SIDES}
        ratios = [c / p for p, c in zip(sides["parent"], sides["change"])]
        summary[kind] = {
            "ratio_q1_median_q3": [round(q, 4) for q in quartiles(ratios)],
            "change_wins": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}",
            "median_ms": {side: round(1e3 * statistics.median(sides[side]), 3)
                          for side in SIDES}}
    return summary


def compare(roots, workload, seed, pairs):
    """Load both trees, check that their results agree, and time `pairs`
    alternating pairs; returns the summary and each side's pool CPU count."""
    loaded = {side: load(roots[side]) for side in SIDES}
    modules = {side: loaded[side][0] for side in SIDES}
    setups = {side: modules[side].setup(workload) for side in SIDES}
    ops = {side: modules[side].make_pass(workload, seed, ROUNDS) for side in SIDES}
    if list(map(repr, ops["parent"])) != list(map(repr, ops["change"])):
        sys.exit(f"error: the two sides make different {workload} op lists")
    results = {side: [repr(modules[side].run_op(op, setups[side])) for op in ops[side]]
               for side in SIDES}
    for op, parent, change in zip(ops["parent"], results["parent"], results["change"]):
        if parent != change:
            sys.exit(f"error: {op} gives {parent} on the parent and {change} "
                     "on the change")
    runs = []
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        run = {side: time_pass(modules[side], setups[side], ops[side]) for side in order}
        runs.append(run)
        print(f"pair {pair} {' then '.join(order)}: change/parent "
              f"{sum(run['change'].values()) / sum(run['parent'].values()):.4f}",
              flush=True)
    return summarize(runs), {side: loaded[side][1] for side in SIDES}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision of the parent")
    ap.add_argument("--change", required=True, help="revision of the change")
    ap.add_argument("--repo", type=pathlib.Path, default=pathlib.Path("."))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=20)
    args = ap.parse_args(argv)
    # the tool imports no numpy itself: the first side's workloads loads it
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    revs = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: pathlib.Path(tmp, side) for side in SIDES}
        commits = {side: extract(args.repo, revs[side], roots[side]) for side in SIDES}
        summary, pool_cpus = compare(roots, args.workload, args.seed, args.pairs)
    for kind, entry in summary.items():
        q1, med, q3 = entry["ratio_q1_median_q3"]
        print(f"{kind:32s} change/parent {med:.4f} ({q1:.4f}-{q3:.4f})  "
              f"wins {entry['change_wins']:>6s}  parent {entry['median_ms']['parent']:.3f} ms"
              f"  change {entry['median_ms']['change']:.3f} ms")
    method = (f"{args.pairs} alternating pairs in one process, each side's "
              f"{args.workload} op list of seed {args.seed} ({ROUNDS} "
              "seeded rounds) run once a pair after one unrecorded run whose "
              "results' reprs agree; a kind's ratio is the change's summed op "
              "time over the parent's in the pair (tools/same_process.py)")
    print(json.dumps({"method": method, "workload": args.workload,
                      "parent_commit": commits["parent"],
                      "change_commit": commits["change"], "pool_cpus": pool_cpus,
                      "kinds": summary}))


if __name__ == "__main__":
    main()
