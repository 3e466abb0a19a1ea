"""Per-op-kind timings of one workload in fresh processes, parent against
change, each kind's time as a ratio to a control kind's.

    python tools/op_kinds.py --parent PATH --change PATH \
        --workload identities --seed 951

Each process runs in one checkout's root with its `src/` and `perfbench/`
on PYTHONPATH and the numeric thread pools pinned to one thread, as
`perfbench/run.py` pins them.  It imports `perfbench/workloads.py` (and
edits nothing there), builds the workload's setup and the seed's op list
(the anchor round and ROUNDS seeded rounds), runs the list once to warm
up, then REPS times timed.  An op's kind is its `Op.kind`, followed by
its first string argument when it has one (the profile or the identity),
as in `angular:sinh_J0_exp`.  Each process reports every kind's median op
time; divided by the CONTROL kind's median in the same process, that is
the process's ratio for the kind.  PROCESSES processes a side run in
pairs, one a side, alternating which side goes first.

Why ratios: on a shared VM one process can run 30% faster or slower than
the next, all its ops alike, which buries a 10% change in raw times; a
ratio to a kind the change does not touch cancels that swing.  The
control, `recursion`, is not independent of the package: each op runs
four compact `transform`s, through the damped engine, the Minkowski
kernels and Bessel K/N.  A change to any of those moves the control too,
and then the ratios hide it; read the absolute ratio below instead.  The
absolute ratio does not cancel the swing: over four processes a side it
follows the processes' speed, so it resolves only a change larger than
that swing.  A workload with no op of the control kind (every workload but
`identities`) gets the absolute ratio alone.

Lines before the last are a table: each kind's median ratio per side and
change over parent, and the change over parent of its absolute times (the
median over the change's processes of the kind's median op time, over the
same for the parent).  The last line is one JSON object, for a BENCH
file's `in_process_notes`: the method, and per kind and side the
per-process ratios and their quartiles (inclusive method), plus the
change's median over the parent's (`change_over_parent`) and the absolute
ratio (`absolute_change_over_parent`); `control_ms` holds the control's
per-process medians.  Without a control, each kind holds its absolute
ratio alone, and `control` and `control_ms` are null.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from bench_pairs import _env, quartiles

# pinned to one thread in each process, as perfbench/run.py pins them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SIDES = ("parent", "change")
PROCESSES = 4       # processes a side
ROUNDS = 3          # seeded rounds in the op list, after the anchor round
REPS = 10           # timed runs of the op list in each process
CONTROL = "recursion"


def kind_of(op):
    """The op's kind, with its first string argument appended."""
    names = [a for a in op.args if isinstance(a, str)]
    return op.kind + (":" + names[0] if names else "")


def child(workload, seed):
    """Run in a checkout: every kind's median op time in seconds, as JSON."""
    import workloads
    setup = workloads.setup(workload)
    ops = workloads.make_pass(workload, seed, ROUNDS)
    times = {}
    for rep in range(REPS + 1):
        for op in ops:
            t0 = time.perf_counter()
            workloads.run_op(op, setup)
            elapsed = time.perf_counter() - t0
            if rep:                     # the first run of the list warms up
                times.setdefault(kind_of(op), []).append(elapsed)
    print(json.dumps({kind: statistics.median(t) for kind, t in times.items()}))


def run_process(checkout, workload, seed):
    """The per-kind median op seconds of one process in `checkout`."""
    root = pathlib.Path(checkout).resolve()
    env = dict(_env(root), **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(root / "perfbench"), env["PYTHONPATH"]])
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--child",
           workload, str(seed)]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} in {root} exited {out.returncode}:\n"
                 f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(processes, control):
    """Per kind: each side's per-process ratios to `control` with their
    quartiles, the change's median ratio over the parent's, and the
    change's median op time over the parent's across processes; the last
    alone when `control` is None.  `processes` holds
    {"side": side, "medians": {kind: seconds}} a process."""
    kinds = dict.fromkeys(k for p in processes for k in p["medians"] if k != control)
    summary = {"control_ms": None if control is None else
               {side: [round(1e3 * p["medians"][control], 3)
                       for p in processes if p["side"] == side]
                for side in SIDES},
               "kinds": {}}
    for kind in kinds:
        entry = {}
        if control is not None:
            for side in SIDES:
                ratios = [round(p["medians"][kind] / p["medians"][control], 4)
                          for p in processes if p["side"] == side]
                entry[side] = {"per_process": ratios,
                               "q1_median_q3": [round(q, 4) for q in quartiles(ratios)]}
            entry["change_over_parent"] = round(
                entry["change"]["q1_median_q3"][1] / entry["parent"]["q1_median_q3"][1], 4)
        seconds = {side: statistics.median(p["medians"][kind] for p in processes
                                           if p["side"] == side) for side in SIDES}
        entry["absolute_change_over_parent"] = round(
            seconds["change"] / seconds["parent"], 4)
        summary["kinds"][kind] = entry
    return summary


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        workload, seed = argv[1:]
        return child(workload, int(seed))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path)
    ap.add_argument("--change", required=True, type=pathlib.Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    processes = []
    for pair in range(PROCESSES):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            medians = run_process(checkouts[side], args.workload, args.seed)
            processes.append({"side": side, "medians": medians})
            print(f"pair {pair} {side}: " + "  ".join(
                f"{kind} {1e3 * t:.3f} ms" for kind, t in medians.items()), flush=True)
    # the control ratio needs the control kind in every process
    control = CONTROL if all(CONTROL in p["medians"] for p in processes) else None
    summary = summarize(processes, control)
    for kind, entry in summary["kinds"].items():
        ratios = "" if control is None else (
            f"parent {entry['parent']['q1_median_q3'][1]:.4f}  "
            f"change {entry['change']['q1_median_q3'][1]:.4f}  "
            f"change/parent {entry['change_over_parent']:.4f}  ")
        print(f"{kind:32s} {ratios}absolute {entry['absolute_change_over_parent']:.4f}")
    value = (f"a kind's value is its median op time over its median {CONTROL} "
             "op time in the same process" if control else
             "no op is a control: a kind's absolute ratio is the change's "
             "median per-process op time over the parent's")
    method = (f"{PROCESSES} alternating processes a side; each runs the "
              f"{args.workload} op list of seed {args.seed} ({ROUNDS} seeded "
              f"round(s)) once to warm up, then {REPS} times; {value} "
              "(tools/op_kinds.py)")
    print(json.dumps({"method": method, "workload": args.workload,
                      "control": control, **summary}))


if __name__ == "__main__":
    main()
