"""Profile construction, CSV round trips, interpolation behaviour."""

import io
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import lorentzft
from lorentzft import oracle, profiles, specfun
from lorentzft.kernels import MomentumChar, MomentumMagnitude
from lorentzft.profiles import (
    BUILTIN_PROFILES,
    RadialProfile,
    builtin_profile,
    profile_from_csv,
    profile_to_csv,
)
from lorentzft.quadrature import QuadConfig
from lorentzft.transform import transform
from test_specfun import CountingPool


CSV_HEADER_LINE = "s,re_timelike,im_timelike,re_spacelike,im_spacelike\n"

# a nan or inf in each column, alone in the file and among other rows
NON_FINITE_BODIES = [
    pytest.param("nan,1,0,1,0\n", id="one-row-nan-s"),
    pytest.param("inf,1,0,1,0\n", id="one-row-inf-s"),
    pytest.param("0.5,inf,0,1,0\n", id="one-row-inf-re-timelike"),
    pytest.param("0.5,1,0,1,-inf\n", id="one-row-inf-im-spacelike"),
    pytest.param("0,1,0,1,0\nnan,1,0,1,0\n", id="multi-row-nan-s"),
    pytest.param("0,1,0,1,0\n0.5,inf,0,1,0\n1,0,0,0,0\n", id="multi-row-inf-re-timelike"),
    pytest.param("0,1,nan,1,0\n1,0,0,0,0\n", id="multi-row-nan-im-timelike"),
    pytest.param("0,1,0,1,0\n1,0,0,nan,0\n", id="multi-row-nan-re-spacelike"),
]

# s grids the reader refuses, with its message
_INCREASING = "profile CSV requires strictly increasing s >= 0"
_FINITE = "profile CSV entries must be finite"
BAD_GRIDS = [
    pytest.param([0.0, 0.5, 0.25], _INCREASING, id="decreasing"),
    pytest.param([0.0, 0.5, 0.5], _INCREASING, id="repeated"),
    pytest.param([-0.5, 0.0, 0.5], _INCREASING, id="negative"),
    pytest.param([0.0, float("nan")], _FINITE, id="nan"),
    pytest.param([0.0, float("inf")], _FINITE, id="inf"),
    pytest.param([], "profile CSV has no samples", id="empty"),
]

# rows that are not five entries wide: the line each error names
BAD_WIDTH_BODIES = [
    pytest.param("0,1,0,1\n1,0,0,0\n", 2, 4, id="every-row-four"),
    pytest.param("0,1,0,1,0,7\n1,0,0,0,0,7\n", 2, 6, id="every-row-six"),
    pytest.param("0,1,0,1,0\n0.5,1,0,1\n1,0,0,0,0\n", 3, 4, id="one-short-row"),
]


class TestBuiltins:
    def test_names(self):
        assert set(BUILTIN_PROFILES) == {"gauss_oscillatory", "gauss_decay_timelike",
                                         "compact_bump", "zero"}

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            builtin_profile("nope")

    def test_gauss_oscillatory_values(self):
        p = builtin_profile("gauss_oscillatory")
        s = np.array([0.0, 1.0, 2.0])
        assert np.allclose(p.f_timelike(s), np.exp(1j * s ** 2))
        assert np.allclose(p.f_spacelike(s), np.exp(-1j * s ** 2))

    def test_bump_support(self):
        p = builtin_profile("compact_bump")
        assert p.support_radius == 1.0
        s = np.array([0.0, 0.5, 0.999, 1.0, 2.0])
        vals = p.f_timelike(s)
        assert vals[0] == 1.0
        assert vals[3] == 0.0 and vals[4] == 0.0

    @pytest.mark.parametrize("name", sorted(BUILTIN_PROFILES))
    def test_one_shared_instance(self, name):
        assert builtin_profile(name) is builtin_profile(name)
        assert builtin_profile(name) is BUILTIN_PROFILES[name]


class TestCsvRoundTrip:
    def test_values_at_nodes(self):
        profile = builtin_profile("compact_bump")
        grid = np.linspace(0.0, 1.2, 61)
        text = profile_to_csv(profile, grid)
        loaded = profile_from_csv(io.StringIO(text))
        for branch in ("f_timelike", "f_spacelike"):
            orig = getattr(profile, branch)(grid)
            back = getattr(loaded, branch)(grid)
            assert np.all(np.abs(orig - back) <= 1e-12)

    def test_transform_of_reimported_tabulation(self):
        # tabulate, reload, tabulate again: the two tabulated profiles give
        # identical transforms at shared interpolation nodes
        grid = np.linspace(0.0, 1.2, 121)
        p1 = profile_from_csv(io.StringIO(profile_to_csv(builtin_profile("compact_bump"), grid)))
        p2 = profile_from_csv(io.StringIO(profile_to_csv(p1, grid)))
        cfg = QuadConfig()
        mom = MomentumMagnitude(0.8, MomentumChar.TIMELIKE)
        v1 = transform(1, p1, mom, cfg).value
        v2 = transform(1, p2, mom, cfg).value
        assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))

    def test_scalar_branch_round_trip(self):
        # a constant branch may return a scalar; the writer broadcasts it
        bump = builtin_profile("compact_bump")
        grid = np.linspace(0.0, 1.2, 13)
        scalar = RadialProfile(f_timelike=bump.f_timelike,
                               f_spacelike=lambda s: 0.5 - 0.25j)
        loaded = profile_from_csv(io.StringIO(profile_to_csv(scalar, grid)))
        assert np.array_equal(loaded.f_timelike(grid), bump.f_timelike(grid))
        assert np.array_equal(loaded.f_spacelike(grid), np.full(grid.shape, 0.5 - 0.25j))

    @pytest.mark.parametrize("grid", [[[0.1, 0.2]], [[0.1], [0.2]], 0.1],
                             ids=["row", "column", "scalar"])
    def test_grid_of_any_shape_round_trips(self, grid):
        bump = builtin_profile("compact_bump")
        text = profile_to_csv(bump, grid)
        flat = np.ravel(grid)
        assert text == profile_to_csv(bump, flat)
        loaded = profile_from_csv(io.StringIO(text))
        for branch in ("f_timelike", "f_spacelike"):
            assert np.array_equal(getattr(loaded, branch)(flat), getattr(bump, branch)(flat))

    def test_byte_order_mark_accepted(self):
        text = CSV_HEADER_LINE + "0,1,0,1,0\n1,0.5,-0.25,0.5,0.25\n"
        plain = profile_from_csv(io.StringIO(text))
        marked = profile_from_csv(io.StringIO("\ufeff" + text))
        s = np.linspace(0.0, 1.5, 16)
        for branch in ("f_timelike", "f_spacelike"):
            assert np.array_equal(getattr(marked, branch)(s), getattr(plain, branch)(s))
        assert marked.support_radius == plain.support_radius

    def test_zero_extension(self):
        text = "s,re_timelike,im_timelike,re_spacelike,im_spacelike\n" \
               "0,1,0,1,0\n1,0.5,-0.25,0.5,0.25\n"
        p = profile_from_csv(io.StringIO(text))
        assert p.f_timelike(np.array([2.0]))[0] == 0.0
        assert p.f_spacelike(np.array([5.0]))[0] == 0.0
        assert abs(p.f_timelike(np.array([1.0]))[0] - (0.5 - 0.25j)) < 1e-15
        assert p.support_radius == 1.0

    def test_bad_header(self):
        with pytest.raises(ValueError):
            profile_from_csv(io.StringIO("s,re,im\n0,1,0\n"))

    def test_nonincreasing_s(self):
        text = "s,re_timelike,im_timelike,re_spacelike,im_spacelike\n" \
               "0,1,0,1,0\n0,1,0,1,0\n"
        with pytest.raises(ValueError):
            profile_from_csv(io.StringIO(text))

    def test_empty_body(self):
        with pytest.raises(ValueError):
            profile_from_csv(io.StringIO("s,re_timelike,im_timelike,re_spacelike,im_spacelike\n"))

    @pytest.mark.parametrize("body, line, width", BAD_WIDTH_BODIES)
    def test_row_width_rejected(self, body, line, width):
        with pytest.raises(ValueError, match=f"^profile CSV line {line} has {width} "
                                             "entries; each row needs 5$"):
            profile_from_csv(io.StringIO(CSV_HEADER_LINE + body))

    @pytest.mark.parametrize("body", NON_FINITE_BODIES)
    def test_non_finite_entry_rejected(self, body):
        with pytest.raises(ValueError, match="profile CSV entries must be finite"):
            profile_from_csv(io.StringIO(CSV_HEADER_LINE + body))

    @pytest.mark.parametrize("grid, message", BAD_GRIDS)
    def test_writer_refuses_what_the_reader_refuses(self, grid, message):
        # the reader's error for the rows the writer would write, raised by
        # the writer, with nothing written
        out = io.StringIO()
        with pytest.raises(ValueError, match=message):
            profile_to_csv(builtin_profile("compact_bump"), grid, out)
        assert out.getvalue() == ""
        body = "".join(f"{s:.17g},1,0,1,0\n" for s in grid)
        with pytest.raises(ValueError, match=message):
            profile_from_csv(io.StringIO(CSV_HEADER_LINE + body))

    def test_writer_refuses_non_finite_values(self):
        inf = lambda s: np.full(np.shape(s), complex(np.inf, 0.0))
        profile = RadialProfile(f_timelike=inf, f_spacelike=inf)
        with pytest.raises(ValueError, match="profile CSV entries must be finite"):
            profile_to_csv(profile, [0.0, 1.0])


class TestImportGraph:
    def test_tables_load_no_interpolator(self):
        # a fresh interpreter: this session has long since loaded scipy.interpolate.
        # A CSV profile and the 1+2 oracle's transverse table use the
        # package's own PCHIP, so neither loads scipy.interpolate or the
        # scipy.optimize it pulls in.
        code = """
import io, sys
import lorentzft, lorentzft.cli, lorentzft.validation
from lorentzft.kernels import MomentumChar, MomentumMagnitude
from lorentzft.oracle import cartesian_ft_1p2, window_config_for
from lorentzft.profiles import builtin_profile, profile_from_csv
heavy = ("scipy.interpolate", "scipy.optimize")
assert not [m for m in heavy if m in sys.modules], "loaded at import"
p = profile_from_csv(io.StringIO(sys.argv[1]))
assert abs(p.f_timelike([0.25])[0] - 0.75) < 1e-12
bump, k = builtin_profile("compact_bump"), MomentumMagnitude(0.5, MomentumChar.SPACELIKE)
assert cartesian_ft_1p2(bump, k, window_config_for(bump, k, dims=2)).converged
loaded = [m for m in heavy if m in sys.modules]
assert not loaded, f"loaded {loaded}"
"""
        body = "0,1,0,1,0\n0.5,0.5,0,0.5,0\n1,0,0,0,0\n"
        src = str(pathlib.Path(lorentzft.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code, CSV_HEADER_LINE + body],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


# ---------------------------------------------------------------------------
# gauss_oscillatory's branches: the bits of np.exp(+-1j s**2), with a long
# radii array split into blocks on the specfun pool

CHIRP_MIN = profiles._CHIRP_POOL_MIN
BLOCK = specfun._BLOCK
CHIRP = builtin_profile("gauss_oscillatory")
CHIRP_BRANCHES = [pytest.param(CHIRP.f_timelike, 1j, id="timelike"),
                  pytest.param(CHIRP.f_spacelike, -1j, id="spacelike")]


def _radii(size, low=0.0, high=40.0):
    return np.random.default_rng(size).uniform(low, high, size)


CHIRP_RADII = {
    "0": _radii(0),
    "1": _radii(1),
    "min-1": _radii(CHIRP_MIN - 1),
    "min": _radii(CHIRP_MIN),
    "min+1": _radii(CHIRP_MIN + 1),
    "300001": _radii(300_001),
    "negative": _radii(CHIRP_MIN + 5, -40.0, 40.0),
    "2d": _radii(3 * 30_000).reshape(3, 30_000),
    "float32": _radii(CHIRP_MIN + 1).astype(np.float32),
    "int": np.arange(CHIRP_MIN) % 41,
    "0d": np.array(1.75),
    "float": 1.75,
    "list": [0.0, 0.5, -1.25, 3.0],
}


@pytest.fixture
def pool(monkeypatch):
    """A counting two-worker pool in place of the shared one, even on one CPU."""
    with CountingPool() as counting:
        monkeypatch.setattr(specfun, "_pool", counting)
        yield counting


def _same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return (got.dtype == ref.dtype and got.shape == ref.shape
            and np.array_equal(got, ref, equal_nan=True)
            and np.array_equal(np.signbit(got.real), np.signbit(ref.real))
            and np.array_equal(np.signbit(got.imag), np.signbit(ref.imag)))


def _with_non_finite(size, where):
    """Radii of `size` points with nan, inf and -inf at `where`."""
    s = _radii(size)
    s[where] = [np.nan, np.inf, -np.inf]
    return s


# nan and +-inf in the first block and in the last block of a pooled array
NON_FINITE_RADII = [
    pytest.param(_with_non_finite(CHIRP_MIN + 100, [3, 4, 5]), id="first-block"),
    pytest.param(_with_non_finite(CHIRP_MIN + 100, [-3, -2, -1]), id="last-block"),
]


def _child_chirp(s):
    assert _same_bits(CHIRP.f_timelike(s), np.exp(1j * s ** 2))
    assert _same_bits(CHIRP.f_spacelike(s), np.exp(-1j * s ** 2))


class TestChirp:
    @pytest.mark.parametrize("name", sorted(CHIRP_RADII))
    @pytest.mark.parametrize("branch, rate", CHIRP_BRANCHES)
    def test_bits_of_the_inline_expression(self, pool, branch, rate, name):
        s = CHIRP_RADII[name]
        got, ref = branch(s), np.exp(rate * np.asarray(s) ** 2)
        assert type(got) is type(ref)
        assert _same_bits(got, ref)
        # a pooled call sends one share, the worker's, to the pool
        assert pool.tasks == (np.size(s) >= CHIRP_MIN)

    def test_oracle_pieces_stay_inline(self):
        # the 1+n oracle sends f(u v) one piece of cell pairs at a time;
        # below the chirp's minimum the hand-off costs what the split saves
        assert oracle._PIECE * oracle._GLN ** 2 < CHIRP_MIN

    @pytest.mark.parametrize("s", NON_FINITE_RADII)
    @pytest.mark.parametrize("branch, rate", CHIRP_BRANCHES)
    def test_warnings_as_errors_raise_as_inline(self, pool, branch, rate, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning) as inline:
                np.exp(rate * s ** 2)
            with pytest.raises(RuntimeWarning) as pooled:
                branch(s)
        assert str(pooled.value) == str(inline.value)
        assert pool.tasks == 1

    @pytest.mark.parametrize("s", NON_FINITE_RADII)
    @pytest.mark.parametrize("branch, rate", CHIRP_BRANCHES)
    def test_errstate_holds_in_the_workers(self, pool, branch, rate, s):
        # the blocks run in a copy of the caller's context, which holds
        # np.errstate; a worker's own context would warn, an error here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                ref = np.exp(rate * s ** 2)
                got = branch(s)
        assert _same_bits(got, ref)
        assert pool.tasks == 1

    def test_a_failing_block_raises_after_every_share_ends(self, pool, monkeypatch):
        block = profiles._chirp_block
        s = CHIRP_RADII["300001"]
        # of the 37 blocks the caller's share takes the even ones, the
        # worker's the odd ones; block 0 raises at once, the worker's last,
        # block 35, after the others of its share have run
        last = 35
        ran = []

        def failing(rate, x, out=None):
            index = int(np.flatnonzero(s == x[0])[0]) // BLOCK
            if index in (0, last):
                raise ZeroDivisionError(f"block {index}")
            time.sleep(0.01)
            ran.append(index)
            return block(rate, x, out=out)

        futures = []
        submit = pool.submit

        def recording_submit(*args, **kwargs):
            futures.append(submit(*args, **kwargs))
            return futures[-1]

        monkeypatch.setattr(profiles, "_chirp_block", failing)
        monkeypatch.setattr(pool, "submit", recording_submit)
        with pytest.raises(ZeroDivisionError, match="block 0"):
            CHIRP.f_timelike(s)
        # no share is still running: the worker's share ran to its own error
        assert len(futures) == 1
        assert all(f.done() for f in futures)
        assert ran == list(range(1, last, 2))

    def test_forked_child_after_the_pool_ran(self, monkeypatch):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        # a pool built as at import, with two workers, whose threads run
        # before the fork; the child must build its own
        monkeypatch.setattr(specfun, "_cpu_count", lambda: 2)
        monkeypatch.setattr(specfun, "_pool", specfun._new_pool())
        s = CHIRP_RADII["300001"]
        CHIRP.f_timelike(s)
        try:
            child = multiprocessing.get_context("fork").Process(
                target=_child_chirp, args=(s,))
            child.start()
            child.join(timeout=20)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join()
            assert not hung
            assert child.exitcode == 0
        finally:
            specfun._pool.shutdown()


# ---------------------------------------------------------------------------
# compact_bump's branch: the bits of the where-expression it replaced, with
# no cube taken on the zeros beyond s = 1


def _bump_expression(s):
    sa = np.asarray(s, dtype=float)
    return np.where(sa < 1.0, (1.0 - np.minimum(sa, 1.0) ** 2) ** 3, 0.0) + 0j


_EDGES = np.array([0.0, -0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                   -0.5, -1.0, np.nextafter(-1.0, 0.0), -3.0, -1e200, 1e-300, 5e-324,
                   np.nan, np.inf, -np.inf])

BUMP_RADII = {
    "edges": _EDGES,
    "random": np.random.default_rng(105).uniform(-0.5, 2.0, 10 ** 5),
    "2d": _EDGES[:12].reshape(3, 4),
    "empty": np.zeros((0, 3)),
    "float32": np.array([0.25, 1.0, 0.999, 3.0], dtype=np.float32),
    "int": np.arange(-2, 3),
    "0d": np.array(0.5),
    "0d-outside": np.array(2.0),
    "float": 0.5,
    "float-nan": float("nan"),
    "int-scalar": 0,
    "numpy-scalar": np.float64(0.75),
    "list": [0.0, 0.5, 1.0, 1.5],
}


class TestBump:
    @pytest.mark.parametrize("name", sorted(BUMP_RADII))
    def test_bits_of_the_where_expression(self, name):
        s = BUMP_RADII[name]
        with np.errstate(over="ignore"):
            got, ref = profiles._bump(s), _bump_expression(s)
        assert type(got) is type(ref)
        assert _same_bits(got, ref)

    def test_no_cube_beyond_the_support(self, monkeypatch):
        # the cube is the one pow call; its `where` leaves out every zero
        wheres = []
        power = np.power

        def recording(*args, **kwargs):
            wheres.append(kwargs["where"].copy())
            return power(*args, **kwargs)

        monkeypatch.setattr(profiles.np, "power", recording)
        s = BUMP_RADII["edges"]
        with np.errstate(over="ignore"):
            profiles._bump(s)
        (where,) = wheres
        inside = (s < 1.0) & (s != -1.0)
        assert np.array_equal(where, inside)
