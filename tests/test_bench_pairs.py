"""tools/bench_pairs.py: a BENCH_<pr>.json is extended only with new seeds."""

import fcntl
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSeedsAlreadyRecorded:
    def _doc(self, tmp_path, seed):
        run = {"order": 0, "side": "parent", "workload": "chirped_spectrum",
               "seed": seed, "trace": 0, "result": {}}
        doc = {"parent_commit": "p", "change_commit": "c",
               "seeds": {"chirped_spectrum": [seed]}, "runs": [run],
               "traced_runs": [dict(run, trace=1)]}
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps(doc))
        return out

    @pytest.mark.parametrize("trace", [[], ["--trace"]])
    def test_a_recorded_seed_is_refused_before_any_run(self, tmp_path, monkeypatch,
                                                       trace):
        bp = _bench_pairs()
        out = self._doc(tmp_path, 1302)
        before = out.read_text()
        monkeypatch.setattr(bp, "commit_of", lambda checkout: checkout.name)
        monkeypatch.setattr(bp, "run_once", lambda *a: pytest.fail("ran a pair"))
        with pytest.raises(SystemExit, match=r"already holds chirped_spectrum seeds \[1302\]"):
            bp.main(["--parent", str(tmp_path / "p"), "--change", str(ROOT),
                     "--workload", "chirped_spectrum", "--seeds", "1301-1303",
                     "--out", str(out)] + trace)
        assert out.read_text() == before


class TestOneRunPerFile:
    def test_a_second_run_is_refused_while_the_lock_is_held(self, tmp_path,
                                                            monkeypatch):
        bp = _bench_pairs()
        out = tmp_path / "BENCH.json"
        out.write_text('{"runs": ["kept"]}')
        monkeypatch.setattr(bp, "commit_of", lambda checkout: pytest.fail("read a commit"))
        monkeypatch.setattr(bp, "run_once", lambda *a: pytest.fail("ran a pair"))
        argv = ["--parent", str(tmp_path / "p"), "--change", str(ROOT),
                "--workload", "chirped_spectrum", "--seeds", "1301", "--out", str(out)]
        lock = tmp_path / "BENCH.json.lock"
        with open(lock, "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(SystemExit, match=f"another run is writing {out}"):
                bp.main(argv)
        assert out.read_text() == '{"runs": ["kept"]}'
        # the refused run leaves the lock file to the run that holds it
        assert lock.exists()

    def test_the_lock_file_is_removed_at_exit(self, tmp_path, monkeypatch):
        bp = _bench_pairs()
        out = tmp_path / "BENCH.json"
        monkeypatch.setattr(bp, "record", lambda args: out.write_text("{}"))
        bp.main(["--parent", str(tmp_path / "p"), "--change", str(ROOT),
                 "--suites", "--out", str(out)])
        assert out.read_text() == "{}"
        assert list(tmp_path.iterdir()) == [out]


class TestSuiteTimings:
    def test_pairs_alternate_and_extend_the_suites_key(self, tmp_path, monkeypatch):
        bp = _bench_pairs()
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps({"parent_commit": "p", "change_commit": "c",
                                   "runs": ["kept"], "summary": {"w": "kept"}}))
        monkeypatch.setattr(bp, "commit_of", lambda checkout: checkout.name)
        monkeypatch.setattr(bp, "suite_names", lambda checkout: ["angular", "chi"])
        walls = {"p": 2.0, "c": 1.0}
        rss = {"p": 80.0, "c": 60.0}
        monkeypatch.setattr(bp, "time_once", lambda checkout, name:
                            (walls[checkout.name], 0, f"{name} ok", rss[checkout.name]))
        argv = ["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                "--suites", "--out", str(out)]
        bp.main(argv)
        bp.main(argv)
        doc = json.loads(out.read_text())
        assert doc["runs"] == ["kept"] and doc["summary"] == {"w": "kept"}
        runs = doc["suites"]["runs"]
        assert [r["order"] for r in runs] == list(range(36))
        # the second call numbers its three pairs on from the first's
        assert [r["pair"] for r in runs[::6]] == list(range(6))
        # each pair runs every suite and tier-1 on both sides, the side that
        # goes first alternating from pair to pair
        firsts = [r["side"] for r in runs[::2]]
        assert firsts == (["parent"] * 3 + ["change"] * 3) * 3
        assert [r["name"] for r in runs[:6:2]] == ["angular", "chi", "tier1"]
        summary = doc["suites"]["summary"]
        assert list(summary) == ["angular", "chi", "tier1"]
        for entry in summary.values():
            assert entry["parent_q1_median_q3"] == [2.0, 2.0, 2.0]
            assert entry["change_q1_median_q3"] == [1.0, 1.0, 1.0]
            assert entry["change_over_parent_median"] == 0.5
            assert entry["pairs"] == 6 and entry["returncodes"] == [0]
            assert entry["parent_rss_mb_q1_median_q3"] == [80.0, 80.0, 80.0]
            assert entry["change_rss_mb_q1_median_q3"] == [60.0, 60.0, 60.0]
        assert {r["peak_rss_mb"] for r in runs} == {80.0, 60.0}

    def test_peak_rss_of_a_real_child(self, tmp_path):
        # Linux counts the spawning process's resident set in a child's
        # ru_maxrss, so the children are spawned from a fresh interpreter,
        # not from this test session.  A bare child reads that interpreter's
        # baseline; a child that writes 50 MB peaks well above it
        code = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bp = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bp)
bare = bp.measure([sys.executable, "-c", "pass"], sys.argv[2])
big = bp.measure(
    [sys.executable, "-c", "b = b'x' * (50 << 20); print('done', len(b))"], sys.argv[2])
assert bare[1] == big[1] == 0 and big[2] == f"done {50 << 20}", (bare, big)
assert big[3] > bare[3] + 30.0, (bare, big)
"""
        run = subprocess.run([sys.executable, "-c", code,
                              str(ROOT / "tools" / "bench_pairs.py"), str(tmp_path)],
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("extra", [["--trace"], ["--workload", "identities"],
                                       ["--seeds", "1701-1702"]])
    def test_suites_refuses_workload_flags_before_any_run(self, tmp_path,
                                                          monkeypatch, extra):
        bp = _bench_pairs()
        monkeypatch.setattr(bp, "time_once", lambda *a: pytest.fail("timed a suite"))
        out = tmp_path / "BENCH.json"
        with pytest.raises(SystemExit):
            bp.main(["--parent", str(tmp_path), "--change", str(ROOT), "--suites",
                     "--out", str(out)] + extra)
        assert not out.exists()

    def test_a_workload_run_needs_its_workload_and_seeds(self, tmp_path):
        with pytest.raises(SystemExit):
            _bench_pairs().main(["--parent", str(tmp_path), "--change", str(ROOT),
                                 "--out", str(tmp_path / "BENCH.json")])


class TestSummary:
    @staticmethod
    def _runs(pairs):
        """Runs of one workload from (parent, change) values of each metric
        per seed."""
        runs = []
        for seed, values in enumerate(pairs):
            for side, i in (("parent", 0), ("change", 1)):
                metrics = {name: {"value": v[i]} for name, v in values.items()}
                runs.append({"workload": "w", "seed": seed, "side": side,
                             "result": {"metrics": metrics}})
        return runs

    def test_gain_resolved_and_every_change_run_better(self):
        metrics = [{"name": "tail", "better": "lower", "bound": 0.25},
                   {"name": "tied", "better": "lower", "bound": 0.25},
                   {"name": "rate", "better": "higher", "bound": 0.25},
                   {"name": "apart", "better": "higher", "bound": 0.25}]
        parent = [100.0 + i for i in range(10)]
        pairs = [{"tail": (p, p - 8.0 if i else p),       # 9 wins, 1 tie
                  "tied": (p, p - 8.0 if i > 1 else p),   # 8 wins, 2 ties
                  "rate": (p, p + 4.0),                   # 10 wins, gain below 1 IQR
                  "apart": (p, p + 20.0)}                 # every change run above
                 for i, p in enumerate(parent)]
        summary = _bench_pairs().summarize(self._runs(pairs), metrics)["w"]
        # the parent's quartiles are 102.25 and 106.75: an IQR of 4.5
        assert summary["tail"]["change_wins"] == "9/10"
        assert summary["tail"]["gain_over_parent_iqr"] > 1
        assert summary["tail"]["gain_resolved"] is True
        assert summary["tail"]["every_change_run_better"] is False
        assert summary["tied"]["change_wins"] == "8/10"
        assert summary["tied"]["gain_over_parent_iqr"] > 1
        assert summary["tied"]["gain_resolved"] is False
        assert summary["rate"]["change_wins"] == "10/10"
        assert 0 < summary["rate"]["gain_over_parent_iqr"] <= 1
        assert summary["rate"]["gain_resolved"] is False
        assert summary["rate"]["every_change_run_better"] is False
        assert summary["apart"]["gain_resolved"] is True
        assert summary["apart"]["every_change_run_better"] is True
        # the verdict is unchanged by either
        assert {entry["verdict"] for entry in summary.values()} == {"within bound"}
