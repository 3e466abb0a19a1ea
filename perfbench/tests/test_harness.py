"""Fast self-check of the benchmark harness, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import references as refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("profile,n,timelike,l", [
    ("compact_bump", 2, True, 1.0),       # half-integer order: J
    ("compact_bump", 2, False, 1.0),      # half-integer order: K and Y
    ("compact_bump", 1, False, 0.3),      # integer order: K and Y log series
    ("gauss_decay_timelike", 3, True, 0.4),
    ("gauss_decay_timelike", 4, False, 1.0),
])
def test_series_reference_matches_mpmath_quadrature(profile, n, timelike, l):
    series = refs.radial_series(profile, n, timelike, l)
    quad = refs.radial_quadrature(profile, n, timelike, l)
    assert abs(series - quad) <= 1e-12 * max(abs(quad), 1.0)


def test_chirped_closed_form_at_n1_is_the_gaussian_regression():
    from lorentzft import gaussian_reference
    for k in (0.25, 0.7, 1.25):
        assert abs(refs.chirped_closed_form(1, True, k) - gaussian_reference(k)) < 1e-13


def test_angular_and_closure_references():
    assert refs.angular_rhs("sinh_J0_exp", 1.0) == pytest.approx(2 * math.pi / math.e)
    assert refs.closure_rhs(0.5, 1.0) == pytest.approx(2 * math.pi)
    assert refs.closure_rhs(1.0, 0.5) == 0.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pass_is_seeded(name):
    a = workloads.make_pass(name, 7, 3)
    assert a == workloads.make_pass(name, 7, 3)
    b = workloads.make_pass(name, 8, 3)
    assert a != b and len(a) == len(b)
    assert len(workloads.make_pass(name, 7, 4)) > len(a)
    assert workloads.seeded_rounds(name, 20.0) >= 1


def test_clock_scales_by_the_nearest_kernel_times():
    clock = calibration.Clock("cpu")
    ref = clock.reference_s
    clock.samples = [(0.0, ref), (1.0, ref), (2.0, ref),
                     (10.0, 2 * ref), (11.0, 2 * ref), (12.0, 2 * ref)]
    assert clock.scale(0.5) == pytest.approx(1.0)
    assert clock.scale(11.5) == pytest.approx(0.5)


def test_tail_keeps_ten_ops_beyond():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _tiny_ops():
    return [workloads.Op("spectrum", (2, "compact_bump", "spacelike", 0.5, 2.0)),
            workloads.Op("angular", ("cosh_to_N0", 1.0)),
            workloads.Op("oracle_1p1", ("compact_bump", "timelike", 0.5))]


def test_tracer_restores_names_and_accounts_for_wall_time():
    setup = workloads.setup("identities")
    plain = [workloads.run_op(op, setup) for op in _tiny_ops()]
    before = {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    traced_setup = dataclasses.replace(setup, profiles={
        k: tracer.wrap_branches(p) for k, p in setup.profiles.items()})
    tracer.install()
    tracer.reset()
    try:
        _, _, traced, wall = run.run_pass(
            _tiny_ops(), lambda op: tracer.span(tracing.BENCH_SPAN, workloads.run_op,
                                                op, traced_setup))
    finally:
        assert tracer.restore() == []
    assert {(m.__name__, a): getattr(m, a) for m, a, _, _ in tracing.WRAPPED} == before
    assert traced == plain
    assert run.trace_consistency(tracer, wall) == []
    layers = run.per_layer(tracer, wall, wall)
    assert layers["cli.main.self_s"][0] > 0
    assert layers["oracle.cartesian_ft_1p1.calls"][0] == 1
    assert layers["specfun.bessel_k.half.points"][0] > 0
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.root_time())


def test_checks_flag_a_wrong_value():
    op = workloads.Op("recursion", (1, 0.5))
    ref = refs.radial_series("compact_bump", 3, False, 0.5)
    (good,) = workloads.check_op(op, (ref, 1e-9), refs)
    (bad,) = workloads.check_op(op, (ref * 1.01, 1e-9), refs)
    assert good.passed and not bad.passed


def _run(args, cwd):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_declared_metrics(trace, section):
    out = _run(["--workload", "identities", "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--out", str(ROOT / ".perfbench_out")], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(["--workload", "identities", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
