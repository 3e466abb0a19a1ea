"""Command-line interface: CSV output, determinism, exit codes."""

import importlib
import io
import math
import pathlib
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import lorentzft.kernels
import lorentzft.validation
from lorentzft.cli import build_parser, main
from lorentzft.specfun import _POOL_MIN
from lorentzft.transform import gaussian_reference
from lorentzft.validation import run_suite

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_transform.csv"
GOLDEN_VALIDATE = pathlib.Path(__file__).parent / "data" / "golden_validate.txt"
GOLDEN_CHI = pathlib.Path(__file__).parent / "data" / "golden_chi.txt"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden_runs(path):
    """(argv, stdout) pairs of a golden file: each "# <args>" line is
    followed by the stdout of that invocation."""
    blocks = path.read_text(encoding="utf-8").split("# ")[1:]
    return [(argv.split(), expected)
            for argv, expected in (block.split("\n", 1) for block in blocks)]


def parse_csv(text):
    lines = [l for l in text.strip().split("\n") if l]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestTransformCommand:
    def test_gaussian_rows(self, capsys):
        code, out, _ = run_cli(["transform", "--n", "1",
                                "--profile", "builtin:gauss_oscillatory",
                                "--char", "timelike", "--kmin", "0.25",
                                "--kmax", "1", "--kcount", "3"], capsys)
        header, rows = parse_csv(out)
        assert header == ["char", "l", "re", "im", "err", "converged"]
        assert code == 0
        assert len(rows) == 3
        for row in rows:
            k = float(row["l"])
            ref = gaussian_reference(k)
            val = float(row["re"]) + 1j * float(row["im"])
            assert abs(val - ref) <= 1e-3 * abs(ref)
            assert row["converged"] == "true"

    def test_zero_profile_rows(self, capsys):
        code, out, _ = run_cli(["transform", "--n", "2",
                                "--profile", "builtin:zero",
                                "--char", "spacelike", "--kmin", "0.5",
                                "--kmax", "2", "--kcount", "4"], capsys)
        _, rows = parse_csv(out)
        assert code == 0
        assert all(float(r["re"]) == 0.0 and float(r["im"]) == 0.0 for r in rows)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["transform", "--n", "1",
                                "--profile", "builtin:zero",
                                "--char", "timelike", "--kmin", "1"], capsys)
        lines = out.split("\n")
        assert code == 0
        assert lines[0] == "char,l,re,im,err,converged"
        assert lines[1].startswith("timelike,1,0,0,")
        assert lines[2:] == [""]

    def test_every_point_goes_through_the_transform_module(self, capsys,
                                                          monkeypatch):
        # a tracer that patches the module attribute must see every CLI point
        module = importlib.import_module("lorentzft.transform")
        calls = []
        transform = module.transform

        def counting(*args):
            calls.append(args)
            return transform(*args)

        monkeypatch.setattr(module, "transform", counting)
        code, out, _ = run_cli(["transform", "--n", "1",
                                "--profile", "builtin:compact_bump",
                                "--char", "spacelike", "--kmin", "0.5",
                                "--kmax", "1.5", "--kcount", "3"], capsys)
        assert code == 0
        assert len(calls) == 3
        assert len(out.strip().split("\n")) == 4

    def test_a_failing_point_leaves_stdout_empty(self, capsys, monkeypatch):
        module = importlib.import_module("lorentzft.transform")
        transform = module.transform

        def failing_last(n, profile, l, cfg):
            if l.value == 1.5:
                raise RuntimeError("point failed")
            return transform(n, profile, l, cfg)

        monkeypatch.setattr(module, "transform", failing_last)
        with pytest.raises(RuntimeError):
            main(["transform", "--n", "1", "--profile", "builtin:compact_bump",
                  "--char", "spacelike", "--kmin", "0.5", "--kmax", "1.5",
                  "--kcount", "3"])
        assert capsys.readouterr().out == ""

    def test_gauss_decay_against_direct_quadrature(self, capsys):
        # n=2, timelike: the transform reduces to -(2/k) int s e^{-s^2} sin(2 pi k s) ds
        code, out, _ = run_cli(["transform", "--n", "2",
                                "--profile", "builtin:gauss_decay_timelike",
                                "--char", "timelike", "--kmin", "0.5",
                                "--kmax", "1", "--kcount", "2"], capsys)
        _, rows = parse_csv(out)
        assert code == 0
        for row in rows:
            k = float(row["l"])
            oracle = -2.0 / k * quad(
                lambda s: s * math.exp(-s * s) * math.sin(2 * math.pi * k * s),
                0.0, 12.0, limit=400)[0]
            assert abs(float(row["re"]) - oracle) < 1e-6
            assert abs(float(row["im"])) < 1e-9

    def test_determinism(self, capsys):
        args = ["transform", "--n", "1", "--profile", "builtin:compact_bump",
                "--char", "spacelike", "--kmin", "0.3", "--kmax", "2.1",
                "--kcount", "5", "--grid", "log"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_csv_profile_source(self, tmp_path, capsys):
        from lorentzft.profiles import builtin_profile, profile_to_csv
        path = tmp_path / "bump.csv"
        path.write_text(profile_to_csv(builtin_profile("compact_bump"),
                                       np.linspace(0.0, 1.1, 111)),
                        encoding="utf-8")
        code, out, _ = run_cli(["transform", "--n", "1",
                                "--profile", f"csv:{path}",
                                "--char", "timelike", "--kmin", "1"], capsys)
        _, rows = parse_csv(out)
        assert code == 0
        # tabulated bump stays close to the exact bump transform
        assert abs(float(rows[0]["re"]) - (-0.1013933428)) < 1e-3

    def test_csv_byte_order_mark_accepted(self, tmp_path, capsys):
        from lorentzft.profiles import builtin_profile, profile_to_csv
        text = profile_to_csv(builtin_profile("compact_bump"), np.linspace(0.0, 1.1, 111))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        outs = []
        for path in (plain, marked):
            code, out, _ = run_cli(["transform", "--n", "1", "--profile", f"csv:{path}",
                                    "--char", "timelike", "--kmin", "1"], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_bad_profile_exits_2(self, capsys):
        code, _, err = run_cli(["transform", "--n", "1",
                                "--profile", "builtin:nope",
                                "--char", "timelike", "--kmin", "1"], capsys)
        assert code == 2
        assert "error" in err

    def test_profile_without_source_prefix_exits_2(self, capsys):
        code, out, err = run_cli(["transform", "--n", "1",
                                  "--profile", "gauss_oscillatory",
                                  "--char", "timelike", "--kmin", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == ("error: profile must be builtin:<name> or csv:<path>, "
                       "got 'gauss_oscillatory'\n")

    def test_bad_krange_exits_2(self, capsys):
        code, _, _ = run_cli(["transform", "--n", "1",
                              "--profile", "builtin:zero",
                              "--char", "timelike", "--kmin", "-1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "11"])
    def test_dimension_out_of_range_exits_2(self, n, capsys):
        code, out, err = run_cli(["transform", "--n", n,
                                  "--profile", "builtin:compact_bump",
                                  "--char", "timelike", "--kmin", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"n={n}" in err

    @pytest.mark.parametrize("char", ["timelike", "spacelike"])
    @pytest.mark.parametrize("kmin", ["1e-308", "2e-308", "1e-310"])
    def test_underflowing_momentum_exits_2(self, char, kmin, capsys):
        # 2 pi s l underflows to 0 on the quadrature's nodes: one error
        # line naming the momentum, and no CSV
        code, out, err = run_cli(["transform", "--n", "1",
                                  "--profile", "builtin:compact_bump",
                                  "--char", char, "--kmin", kmin], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"l={float(kmin)!r}" in err

    @pytest.mark.parametrize("n, profile, char, kmin", [
        ("5", "gauss_decay_timelike", "timelike", "1e-300"),
        ("10", "compact_bump", "spacelike", "1e-160"),
        ("3", "compact_bump", "spacelike", "1e-300")])
    def test_overflowing_weight_exits_2(self, n, profile, char, kmin, capsys):
        # the weight is not finite at s = 1: warnings and a NaN row before
        code, out, err = run_cli(["transform", "--n", n,
                                  "--profile", f"builtin:{profile}",
                                  "--char", char, "--kmin", kmin], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"l={float(kmin)!r} is too small" in err

    def test_missing_kmax_exits_2(self, capsys):
        code, _, _ = run_cli(["transform", "--n", "1",
                              "--profile", "builtin:zero",
                              "--char", "timelike", "--kmin", "0.5",
                              "--kcount", "3"], capsys)
        assert code == 2

    def test_golden_bytes(self, capsys, monkeypatch):
        sizes = []
        bessel_n = lorentzft.kernels.bessel_n

        def recording(nu, x):
            sizes.append(np.size(x))
            return bessel_n(nu, x)

        monkeypatch.setattr(lorentzft.kernels, "bessel_n", recording)
        for argv, expected in golden_runs(GOLDEN):
            code, out, _ = run_cli(argv, capsys)
            assert out == expected, argv
            assert code == (1 if ",false" in expected else 0), argv
        # the file covers Neumann arguments long enough to be split into blocks
        assert max(sizes) >= _POOL_MIN

    def test_usage_errors_leave_the_shared_parser_intact(self, capsys):
        assert build_parser() is build_parser()
        args = ["transform", "--n", "1", "--profile", "builtin:compact_bump",
                "--char", "timelike", "--kmin", "0.5"]
        _, before, _ = run_cli(args, capsys)
        for bad in (args[:-2], args + ["--grid", "cubic"]):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            assert "usage: lorentzft" in capsys.readouterr().err
        assert run_cli(args, capsys)[1] == before


@pytest.mark.parametrize("argv, text", [
    # chi tabulates chi_n(k, r), the inverse weight, as cmd_chi does
    (["--help"], "chi sample the radial Hankel weight chi_n(k, r)"),
    (["transform", "--help"], "builtin:<name> or csv:<path>; builtins: "
     "gauss_oscillatory, gauss_decay_timelike, compact_bump, zero"),
], ids=["chi", "transform-profile"])
def test_help_text(argv, text, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert text in " ".join(capsys.readouterr().out.split())


_ZERO = "transform --n 1 --profile builtin:zero --char timelike"


@pytest.mark.parametrize("argv", [
    "chi --n 1 --k nan --rmin 0 --rmax 1 --rcount 3",
    "chi --n 1 --k 1 --rmin nan --rcount 1",
    "chi --n 1 --k 1 --rmin 0 --rmax inf --rcount 3",
    f"{_ZERO} --kmin 0.5 --tol nan",
    f"{_ZERO} --kmin 0.5 --epsilon0 nan",
    f"{_ZERO} --kmin inf",
    f"{_ZERO} --kmin nan",
    f"{_ZERO} --kmin 0.5 --kmax nan --kcount 3",
    f"{_ZERO} --kmin 0.5 --kmax inf --kcount 3 --grid log",
    f"{_ZERO} --kmin 0.5 --kmax nan",
    f"{_ZERO} --kmin 0.5 --kmax inf",
])
def test_non_finite_number_exits_2(argv, capsys):
    code, out, err = run_cli(argv.split(), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "lightlike" not in err


@pytest.mark.parametrize("body", ["nan,1,0,1,0\n", "inf,1,0,1,0\n", "0.5,inf,0,1,0\n",
                                  "0,1,0,1,0\n0.5,inf,0,1,0\n1,0,0,0,0\n"],
                         ids=["one-row-nan-s", "one-row-inf-s", "one-row-inf-value",
                              "multi-row-inf-value"])
def test_non_finite_csv_entry_exits_2(body, tmp_path, capsys):
    path = tmp_path / "profile.csv"
    path.write_text("s,re_timelike,im_timelike,re_spacelike,im_spacelike\n" + body)
    code, out, err = run_cli(["transform", "--n", "1", "--profile", f"csv:{path}",
                              "--char", "timelike", "--kmin", "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "profile CSV entries must be finite" in err


@pytest.mark.parametrize("body", ["0,1,0,1\n1,0,0,0\n", "0,1,0,1,0,7\n1,0,0,0,0,7\n",
                                  "0,1,0,1,0\n0.5,1,0,1\n1,0,0,0,0\n"],
                         ids=["every-row-four", "every-row-six", "one-short-row"])
def test_csv_row_width_exits_2(body, tmp_path, capsys):
    path = tmp_path / "profile.csv"
    path.write_text("s,re_timelike,im_timelike,re_spacelike,im_spacelike\n" + body)
    code, out, err = run_cli(["transform", "--n", "1", "--profile", f"csv:{path}",
                              "--char", "timelike", "--kmin", "0.5"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "entries; each row needs 5" in err


@pytest.mark.parametrize("grid", ["linear", "log"])
def test_repeated_momenta_exit_2(grid, capsys, monkeypatch):
    # 1 and the next float up: three grid points must repeat one of them
    def no_transform(*args):
        raise AssertionError("a transform ran")

    monkeypatch.setattr(importlib.import_module("lorentzft.transform"), "transform",
                        no_transform)
    code, out, err = run_cli(f"{_ZERO} --kmin 1 --kmax 1.0000000000000002 "
                             f"--kcount 3 --grid {grid}".split(), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "repeat" in err


class TestValidateCommand:
    def test_golden_bytes(self, capsys):
        # angular (its theta gaps are rounding-level) and oracle (5 s) are left out
        runs = golden_runs(GOLDEN_VALIDATE)
        assert len(runs) == 5
        for argv, expected in runs:
            code, out, _ = run_cli(argv, capsys)
            assert out == expected, argv
            assert code == 0, argv

    def test_gaussian_suite_passes(self, capsys):
        code, out, _ = run_cli(["validate", "--suite", "gaussian"], capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(["validate", "--suite", "bogus"], capsys)
        assert code == 2

    def test_run_suite_all_concatenates_in_suite_order(self, monkeypatch):
        rows = {"second": ["b1"], "first": ["a1", "a2"]}
        monkeypatch.setattr(lorentzft.validation, "SUITES",
                            {name: lambda name=name: list(rows[name])
                             for name in ("second", "first")})
        assert run_suite("all") == ["b1", "a1", "a2"]
        assert run_suite("first") == ["a1", "a2"]
        with pytest.raises(KeyError, match=r"'bogus'.*\['first', 'second'\]"):
            run_suite("bogus")


class TestChiCommand:
    def test_n1_cosine_column(self, capsys):
        code, out, _ = run_cli(["chi", "--n", "1", "--k", "0.75",
                                "--rmin", "0", "--rmax", "2", "--rcount", "9"], capsys)
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["r", "chi"]
        for row in rows:
            r = float(row["r"])
            assert abs(float(row["chi"]) - 2.0 * math.cos(2 * math.pi * r * 0.75)) < 1e-12

    def test_n2_zero_radius_row(self, capsys):
        code, out, _ = run_cli(["chi", "--n", "2", "--k", "1.5",
                                "--rmin", "0", "--rmax", "1", "--rcount", "2"], capsys)
        _, rows = parse_csv(out)
        assert code == 0
        assert abs(float(rows[0]["chi"]) - 2.0 * math.pi * 1.5) < 1e-12

    def test_zero_count_header_only(self, capsys):
        code, out, _ = run_cli(["chi", "--n", "1", "--k", "1.0",
                                "--rmin", "0", "--rmax", "1", "--rcount", "0"], capsys)
        assert code == 0
        assert out.strip() == "r,chi"

    def test_missing_rmax_exits_2(self, capsys):
        code, out, err = run_cli(["chi", "--n", "1", "--k", "1.0",
                                  "--rmin", "0", "--rcount", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --rmax required when --rcount > 1\n"

    def test_bad_flags_exit_2(self, capsys):
        code, _, _ = run_cli(["chi", "--n", "1", "--k", "-1.0",
                              "--rmin", "0", "--rmax", "1", "--rcount", "3"], capsys)
        assert code == 2

    def test_rmax_below_rmin_exits_2(self, capsys):
        code, out, err = run_cli(["chi", "--n", "1", "--k", "1.0", "--rmin", "2",
                                  "--rmax", "1", "--rcount", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: need rmax >= rmin\n"

    def test_one_radius_is_rmin(self, capsys):
        # one radius is --rmin, whatever --rmax says
        outs = [run_cli(["chi", "--n", "3", "--k", "1.0", "--rmin", "0.5",
                         "--rcount", "1", *extra], capsys)
                for extra in ([], ["--rmax", "7"], ["--rmax", "0.2"])]
        chi_row = lorentzft.kernels.chi(3, 1.0, np.array([0.5]))[0]
        assert outs[0] == (0, f"r,chi\n0.5,{chi_row:.17g}\n", "")
        assert outs[1] == outs[0] and outs[2] == outs[0]

    @pytest.mark.parametrize("n", ["0", "11"])
    def test_dimension_out_of_range_exits_2(self, n, capsys):
        for rmin in ("0", "0.5"):     # the limit row alone, and a chi row
            code, out, err = run_cli(["chi", "--n", n, "--k", "1.0",
                                      "--rmin", rmin, "--rcount", "1"], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and f"n={n}" in err

    def test_underflowing_argument_exits_2(self, capsys):
        # at n = 1, 2 pi k r underflows to 0 at r > 0: one error line naming
        # both arguments, and no CSV
        code, out, err = run_cli(["chi", "--n", "1", "--k", "1e-320", "--rmin", "0",
                                  "--rmax", "1e-5", "--rcount", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1e-320" in err and "5e-06" in err

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_underflowing_argument_exits_2_above_n2(self, n, capsys):
        # chi_n(k, r) read 0 at n >= 3 where 2 pi k r underflows to 0
        code, out, err = run_cli(["chi", "--n", str(n), "--k", "1e-320", "--rmin", "0",
                                  "--rmax", "1e-5", "--rcount", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "r=1e-320, k=5e-06: 2 pi r k underflows to 0" in err

    def test_golden_bytes(self, capsys):
        runs = golden_runs(GOLDEN_CHI)
        assert len(runs) == 21
        for argv, expected in runs:
            code, out, _ = run_cli(argv, capsys)
            assert out == expected, argv
            assert code == 0, argv

    def test_determinism(self, capsys):
        args = ["chi", "--n", "4", "--k", "0.9", "--rmin", "0.1",
                "--rmax", "3.3", "--rcount", "17"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2
