"""tools/same_process.py: parent against change in one process, per op kind."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

PACKAGE = '''TAG = {tag!r}


def double(x):
    return {double}
'''

WORKLOADS = '''from dataclasses import dataclass

import lorentzft


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


def setup(name):
    if name != "toy":
        raise KeyError(name)
    return None


def make_pass(name, seed, rounds):
    return [Op("double", ("a", seed))] + [Op("double", ("b", r)) for r in range(rounds)] \\
        + [Op("plain", (seed,))]


def run_op(op, s):
    return lorentzft.double(op.args[-1])
'''


def _tool(monkeypatch):
    # the tool imports its sibling tools/bench_pairs.py, as a script does
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location("same_process",
                                                  ROOT / "tools" / "same_process.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # main pins the thread pools in the environment; undone after the test
    for var in module.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    return module


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                           "-c", "user.email=t@example.com", *args],
                          capture_output=True, text=True, check=True).stdout


def _commit(repo, tag, double="2 * x", cpus=None):
    """Commit a toy tree: a `lorentzft` package and its `workloads`, and a
    `lorentzft.specfun` whose pool is built for `cpus` CPUs if given."""
    (repo / "src" / "lorentzft").mkdir(parents=True, exist_ok=True)
    (repo / "perfbench").mkdir(exist_ok=True)
    (repo / "src" / "lorentzft" / "__init__.py").write_text(
        PACKAGE.format(tag=tag, double=double)
        + ("" if cpus is None else "\nfrom . import specfun\n"))
    specfun = repo / "src" / "lorentzft" / "specfun.py"
    if cpus is None:
        specfun.unlink(missing_ok=True)
    else:
        specfun.write_text(f"def _cpu_count():\n    return {cpus}\n")
    (repo / "perfbench" / "workloads.py").write_text(WORKLOADS)
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", tag)
    return _git(repo, "rev-parse", "HEAD").strip()


@pytest.fixture
def repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    return repo


def _snapshot(*trees):
    return {path: path.read_bytes() for tree in trees
            for path in sorted(tree.rglob("*")) if path.is_file()}


def test_one_tree_against_itself(repo, monkeypatch, capsys):
    tool = _tool(monkeypatch)
    one = _commit(repo, "one")
    tool.main(["--parent", one, "--change", "HEAD", "--repo", str(repo),
               "--workload", "toy", "--seed", "5", "--pairs", "3"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["parent_commit"] == last["change_commit"] == one
    assert last["pool_cpus"] == {"parent": None, "change": None}
    assert list(last["kinds"]) == ["double:a", "double:b", "plain", "all"]
    for entry in last["kinds"].values():
        assert len(entry["ratio_q1_median_q3"]) == 3
        assert entry["change_wins"].endswith("/3")


def test_refuses_different_results(repo, monkeypatch):
    tool = _tool(monkeypatch)
    one = _commit(repo, "one")
    two = _commit(repo, "two", double="2 * x + 1")
    timed = []
    monkeypatch.setattr(tool, "time_pass", lambda *args: timed.append(args))
    with pytest.raises(SystemExit, match="error: Op.*on the parent and .* on the change"):
        tool.main(["--parent", one, "--change", two, "--repo", str(repo),
                   "--workload", "toy", "--seed", "5"])
    assert timed == []


def test_sides_alternate_and_keep_their_own_package(repo, monkeypatch, capsys):
    tool = _tool(monkeypatch)
    one, two = _commit(repo, "one"), _commit(repo, "two")
    order = []

    def time_pass(workloads, setup, ops):
        order.append(workloads.lorentzft.TAG)
        return {"double": 1.0}

    monkeypatch.setattr(tool, "time_pass", time_pass)
    tool.main(["--parent", one, "--change", two, "--repo", str(repo),
               "--workload", "toy", "--seed", "5", "--pairs", "4"])
    assert order == ["one", "two", "two", "one"] * 2
    # the session's own lorentzft is back in place
    import lorentzft
    assert pathlib.Path(lorentzft.__file__).is_relative_to(ROOT / "src")


def test_nothing_in_either_tree_is_written(repo, monkeypatch, tmp_path):
    tool = _tool(monkeypatch)
    one, two = _commit(repo, "one"), _commit(repo, "two")
    roots = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for side, rev in zip(tool.SIDES, (one, two)):
        assert tool.extract(repo, rev, roots[side]) == rev
    before = _snapshot(repo, *roots.values())
    summary, pool_cpus = tool.compare(roots, "toy", 5, 2)
    assert pool_cpus == {"parent": None, "change": None}
    assert set(summary) == {"double:a", "double:b", "plain", "all"}
    assert _snapshot(repo, *roots.values()) == before
    assert _git(repo, "status", "--porcelain", "--ignored") == ""


def test_each_side_reports_its_pool_cpus(repo, monkeypatch, capsys):
    # each side's own lorentzft.specfun._cpu_count(), read while that side
    # is loaded
    tool = _tool(monkeypatch)
    one, two = _commit(repo, "one", cpus=1), _commit(repo, "two", cpus=2)
    tool.main(["--parent", one, "--change", two, "--repo", str(repo),
               "--workload", "toy", "--seed", "5", "--pairs", "2"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["pool_cpus"] == {"parent": 1, "change": 2}
