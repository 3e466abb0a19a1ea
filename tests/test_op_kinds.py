"""tools/op_kinds.py: per-kind ratios to a control kind, per process."""

import importlib.util
import json
import pathlib
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _op_kinds(monkeypatch):
    # the tool imports its sibling tools/bench_pairs.py, as a script does
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location("op_kinds", ROOT / "tools" / "op_kinds.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_synthetic_timings(monkeypatch):
    ok = _op_kinds(monkeypatch)
    # each process runs at its own speed; the ratios do not see it
    speeds = {"parent": [1.0, 1.3, 0.8], "change": [1.2, 0.7, 1.0]}
    angular = {"parent": [0.70, 0.72, 0.74], "change": [0.63, 0.64, 0.68]}
    processes = [{"side": side, "medians": {"recursion": 0.010 * v,
                                            "angular:sinh_J0_exp": 0.010 * v * a,
                                            "closure": 0.012 * v}}
                 for side in ("parent", "change")
                 for v, a in zip(speeds[side], angular[side])]
    summary = ok.summarize(processes, "recursion")
    assert summary["control_ms"] == {"parent": [10.0, 13.0, 8.0],
                                     "change": [12.0, 7.0, 10.0]}
    assert list(summary["kinds"]) == ["angular:sinh_J0_exp", "closure"]
    j0 = summary["kinds"]["angular:sinh_J0_exp"]
    assert j0["parent"] == {"per_process": [0.7, 0.72, 0.74],
                            "q1_median_q3": [0.71, 0.72, 0.73]}
    assert j0["change"] == {"per_process": [0.63, 0.64, 0.68],
                            "q1_median_q3": [0.635, 0.64, 0.66]}
    assert j0["change_over_parent"] == round(0.64 / 0.72, 4)
    # absolute: the median per-process op times, 6.8 ms of 7.56, 4.48 and
    # 6.8 over 7.0 ms of 7.0, 9.36 and 5.92; the speeds do not cancel
    assert j0["absolute_change_over_parent"] == round(6.8 / 7.0, 4)
    closure = summary["kinds"]["closure"]
    assert closure["parent"]["per_process"] == [1.2] * 3
    assert closure["change_over_parent"] == 1.0
    # 12 ms on each side, at each side's median speed 1.0
    assert closure["absolute_change_over_parent"] == 1.0


def test_summary_without_a_control(monkeypatch):
    ok = _op_kinds(monkeypatch)
    # compact_spectrum's kinds: no recursion op, so no control ratio
    speeds = {"parent": [1.0, 1.3, 0.8, 1.1], "change": [1.2, 0.7, 1.0, 0.9]}
    processes = [{"side": side, "medians": {"spectrum:compact_bump": 0.020 * v,
                                            "spectrum:gauss_decay_timelike": 0.005 * v}}
                 for side in ("parent", "change") for v in speeds[side]]
    summary = ok.summarize(processes, None)
    assert summary["control_ms"] is None
    assert list(summary["kinds"]) == ["spectrum:compact_bump",
                                      "spectrum:gauss_decay_timelike"]
    # each kind holds its absolute ratio alone: the median speeds 0.95 of 1.05
    for entry in summary["kinds"].values():
        assert entry == {"absolute_change_over_parent": round(0.95 / 1.05, 4)}


def test_workload_without_a_control_runs_through(monkeypatch, capsys):
    ok = _op_kinds(monkeypatch)
    calls = []

    def run_process(checkout, workload, seed):
        calls.append(checkout.name)
        return {"spectrum:compact_bump": 0.020 if checkout.name == "parent" else 0.018}

    monkeypatch.setattr(ok, "run_process", run_process)
    ok.main(["--parent", "parent", "--change", "change",
             "--workload", "compact_spectrum", "--seed", "1"])
    assert calls == ["parent", "change", "change", "parent"] * (ok.PROCESSES // 2)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["control"] is None and last["control_ms"] is None
    assert last["kinds"] == {"spectrum:compact_bump": {"absolute_change_over_parent": 0.9}}


def test_kind_names_the_profile_or_identity(monkeypatch):
    ok = _op_kinds(monkeypatch)
    Op = namedtuple("Op", "kind args")
    assert ok.kind_of(Op("angular", ("sinh_J0_exp", 0.5))) == "angular:sinh_J0_exp"
    assert ok.kind_of(Op("spectrum", (3, "compact_bump", "timelike", 0.1))) == \
        "spectrum:compact_bump"
    assert ok.kind_of(Op("recursion", (1, 0.5))) == "recursion"
