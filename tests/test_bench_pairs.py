"""tools/bench_pairs.py: a BENCH_<pr>.json is extended only with new seeds."""

import importlib.util
import json
import pathlib

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
