import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subzurek import export
from subzurek.export import (
    LOG_FLOOR,
    _csv_chunks,
    _joined,
    atomic_write_bytes,
    atomic_write_chunks,
    atomic_write_text,
    cut_to_csv,
    grid_pgm_chunks,
    grid_to_csv,
    grid_to_pgm,
    log_profile,
    write_grid_csv,
)
from subzurek.states import PhysicalConstants, StateSpec
from subzurek.wigner import _BLOCK_VALUES, GridRows, GridWindow, PhaseSpaceGrid, _row_blocks, eval_grid


def small_grid():
    st = StateSpec(
        centers=[0.0],
        coeffs=[1.0 + 0j],
        xi=1.0,
        constants=PhysicalConstants(),
    )
    return eval_grid(st, GridWindow(-2.0, 2.0, -2.0, 2.0, 9, 7))


def preset_grid(preset: str) -> PhaseSpaceGrid:
    """The auto-window grid of a CLI preset."""
    from subzurek import cli

    args = cli.build_parser().parse_args(["wigner", "--preset", preset])
    scenario = cli.resolve_scenario(args)
    source = scenario.build_source(args.source)
    return eval_grid(source, cli.auto_window(scenario, source)[0])


class TestCsv:
    def test_header_and_shape(self):
        grid = small_grid()
        text = grid_to_csv(grid, ["cfg echo"]).decode()
        lines = text.strip().split("\n")
        assert lines[0] == "# cfg echo"
        assert lines[1] == "x_min,x_max,p_min,p_max,nx,np"
        assert lines[2].split(",")[4:] == ["9", "7"]
        data_rows = lines[3:]
        assert len(data_rows) == 9
        assert all(len(r.split(",")) == 7 for r in data_rows)

    def test_round_trip_17_digits(self):
        grid = small_grid()
        rows = grid_to_csv(grid).decode().strip().split("\n")[2:]
        parsed = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert np.array_equal(parsed, grid.values)

    def test_deterministic(self):
        assert grid_to_csv(small_grid()) == grid_to_csv(small_grid())

    def test_cut_csv_labels(self):
        text = cut_to_csv(np.array([0.0, 1.0]), np.array([2.0, 3.0]), "p", value_label="overlap").decode()
        lines = text.strip().split("\n")
        assert lines[0] == "p,overlap"
        assert lines[1] == "0,2"


def per_value_join(rows) -> bytes:
    """The per-value formatting the block formatter must reproduce."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows).encode()


def formatted(rows: np.ndarray) -> bytearray:
    return _joined(_csv_chunks(b"", lambda start, stop: rows[start:stop], _row_blocks(*rows.shape), rows.shape[1]))


# +-0, the smallest subnormal, the %g switch to exponent form at 1e-4 and
# 1e17, and the non-finite values
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 9.9999e-5, 1e-4, 1e16, 1e17,
           math.nan, math.inf, -math.inf, 0.1, -1.0 / 3.0, 123456789.0]


class TestBlockFormatter:
    def test_special_values(self):
        rows = np.array([SPECIAL])
        assert formatted(rows) == per_value_join(rows)
        assert formatted(rows.T) == per_value_join(rows.T)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1)])
    def test_thin_shapes(self, shape):
        rows = np.resize(np.array(SPECIAL), shape)
        assert formatted(rows) == per_value_join(rows)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_rows_around_a_block(self, extra):
        ncols = 3
        nrows = _BLOCK_VALUES // ncols + extra
        rows = np.random.default_rng(nrows).standard_normal((nrows, ncols))
        assert formatted(rows) == per_value_join(rows)

    def test_grid_and_cut_match_per_value_join(self):
        grid = small_grid()
        w = grid.window
        bounds = ",".join(f"{v:.17g}" for v in (w.x_min, w.x_max, w.p_min, w.p_max))
        head = f"# note\nx_min,x_max,p_min,p_max,nx,np\n{bounds},9,7\n".encode()
        assert grid_to_csv(grid, ["note"]) == head + per_value_join(grid.values)
        coords, values = np.array(SPECIAL[:7]), np.array(SPECIAL[7:14])
        expected = b"x,W\n" + per_value_join(zip(coords, values))
        assert cut_to_csv(coords, values, "x") == expected

    @pytest.mark.parametrize("powers", [
        [float(f"1e{k}") for k in range(-323, 309)],
        [10.0**k for k in range(-323, 309)],
    ], ids=["literals", "computed"])
    def test_powers_of_ten_and_their_neighbours(self, powers):
        # the decimal exponent is estimated from log10, which can be one off
        # right next to a power of ten
        p = np.array(powers)
        rows = np.stack([np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)], axis=1)
        assert formatted(rows) == per_value_join(rows)

    def test_exponent_just_below_a_power_of_ten(self):
        # 1e-302 is stored below 10^-302, so its digits start a decade lower
        rows = np.array([[np.nextafter(1e-302, 0.0), 1e-302, 1e-4, 1e16]])
        expected = b"9.9999999999999983e-303,9.9999999999999996e-303,0.0001,10000000000000000\n"
        assert formatted(rows) == expected == per_value_join(rows)

    def test_powers_of_two(self):
        rows = np.ldexp(1.0, np.arange(-1074, 1024)).reshape(-1, 2)
        assert formatted(rows) == per_value_join(rows)

    def test_exact_ties_round_half_to_even(self):
        # 1 + 2^-17 = 1.00000762939453125 and 1 + 3 2^-17 = 1.00002288818359375
        # sit exactly halfway between two 17-digit decimals
        ties = [1 + 2**-17, 1 + 3 * 2**-17]
        rows = np.array([ties + [-t for t in ties]])
        expected = b"1.0000076293945312,1.0000228881835938,-1.0000076293945312,-1.0000228881835938\n"
        assert formatted(rows) == expected == per_value_join(rows)

    def test_all_zero_grid(self):
        rows = np.zeros((5, 4))
        rows[::2, 1::2] = -0.0
        assert formatted(rows).startswith(b"0,-0,0,-0\n0,0,0,0\n")
        assert formatted(rows) == per_value_join(rows)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2**64, (2000, 50), dtype=np.uint64)
        rows = bits.view(np.float64)
        assert formatted(rows) == per_value_join(rows)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(
        np.uint64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
        elements=st.integers(0, 2**64 - 1),
    ))
    def test_property_bit_patterns_match_per_value_join(self, bits):
        # every float64, not only the round values st.floats() favours
        rows = bits.view(np.float64)
        assert formatted(rows) == per_value_join(rows)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    ))
    def test_property_matches_per_value_join(self, rows):
        assert formatted(rows) == per_value_join(rows)

    def test_grid_write_peak_memory(self, tmp_path):
        # a 1536^2 grid writes about 54 MB of text; the returned buffer must
        # be the only whole copy of it, not a list of rows, a joined str and
        # its encoding (156 MB). The buffer grows by about an eighth at a
        # time and peaked at 57.8-58.1 MB
        n = 1536
        values = np.random.default_rng(7).standard_normal((n, n)) * 1e-3
        grid = PhaseSpaceGrid(GridWindow(-1.0, 1.0, -1.0, 1.0, n, n), values)
        tracemalloc.start()
        try:
            atomic_write_bytes(str(tmp_path / "grid.csv"), grid_to_csv(grid, ["peak"]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "grid.csv").stat().st_size > 50e6
        assert peak <= 62e6


# exact rounding ties (1 + 2^-17 and 1 + 3 2^-17 sit halfway between two
# 17-digit decimals) and the doubles next to them, all sent to the per-value
# %.17g
NEAR_TIES = [t for tie in (1 + 2**-17, -(1 + 3 * 2**-17))
             for t in (np.nextafter(tie, -np.inf), tie, np.nextafter(tie, np.inf))]
LONGEST = -1.2345678901234567e-308
# 3 2^-24 = 1.78813934326171875e-07 is an exact tie with X = -7, where 10^23
# is no double, so it goes to the per-value %.17g
ONE_BY_ONE_TIES = [3 * 2.0**-24, -3 * 2.0**-24]


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpu"])
def cpus(request, monkeypatch):
    """Run the export as on a machine that lets the process use 1 or 2 CPUs."""
    monkeypatch.setattr(export, "cpu_count", lambda: request.param)
    return request.param


def forks(monkeypatch) -> list:
    """Record the pid of each child that the export forks, as the parent sees it."""
    seen, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            seen.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return seen


def in_child(parent: int) -> bool:
    return os.getpid() != parent


def no_child_left() -> bool:
    """Whether every child this process forked has been reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def rows_of_blocks(nblocks: int, ncols: int, extra_rows: int = 0, seed: int = 0) -> np.ndarray:
    step = _BLOCK_VALUES // ncols
    return np.random.default_rng(seed).standard_normal((nblocks * step + extra_rows, ncols))


def written_grid_csv(tmp_path, rows: np.ndarray) -> bytes:
    """The bytes write_grid_csv writes for a grid of these values, checked
    against the per-value join; no temp file may remain."""
    grid = PhaseSpaceGrid(GridWindow(-1.0, 1.0, -1.0, 1.0, *rows.shape), rows)
    path = tmp_path / "grid.csv"
    write_grid_csv(str(path), grid, ["note"])
    assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]
    text = path.read_bytes()
    assert text == grid_to_csv(grid, ["note"])
    assert text.endswith(per_value_join(rows))
    return text


@pytest.fixture
def fork_from_8_blocks(monkeypatch):
    """Let write_grid_csv fork for grids of 8 blocks or more, so that small
    grids take the forked path; test_fork_threshold checks the real one."""
    monkeypatch.setattr(export, "_FORK_BLOCKS", 8)


@pytest.mark.parametrize("nblocks", [1, 2, export._FORK_BLOCKS - 1, export._FORK_BLOCKS])
def test_fork_threshold(nblocks, tmp_path, monkeypatch):
    monkeypatch.setattr(export, "cpu_count", lambda: 2)
    seen = forks(monkeypatch)
    written_grid_csv(tmp_path, rows_of_blocks(nblocks, 256, seed=nblocks))
    assert len(seen) == (nblocks >= export._FORK_BLOCKS)


@pytest.mark.usefixtures("fork_from_8_blocks")
class TestTwoThreads:
    """The CSV text is formatted on the caller's thread alone, and
    write_grid_csv formats the second half of a grid in a forked child when
    the process may use two CPUs and runs no second Python thread."""

    @pytest.mark.parametrize("extra_rows", [0, 1, 37], ids=["even", "one-row-tail", "uneven"])
    def test_specials_in_every_block(self, cpus, extra_rows, tmp_path, monkeypatch):
        # 8 blocks split 4 and 4; 9 blocks split 4 and 5, the last one row or 37
        ncols = 64
        step = _BLOCK_VALUES // ncols
        rows = rows_of_blocks(8, ncols, extra_rows, seed=extra_rows)
        specials = np.array(SPECIAL + NEAR_TIES)
        for start in range(0, len(rows), step):  # blocks of both halves
            rows[start, : specials.size] = specials
            rows[min(start + step, len(rows)) - 1, -specials.size :] = specials[::-1]
        seen = forks(monkeypatch)
        written_grid_csv(tmp_path, rows)
        assert len(seen) == cpus - 1
        assert no_child_left()

    def test_workspace_reuse_special_regular_ragged(self, cpus, tmp_path):
        # blocks 0-1 and 4-5 hold every special value, 2-3 and 6-7 none, and
        # block 8 is ragged: the caller's workspace takes 0-3 (0-8 on one
        # CPU) in turn and the child's 4-8, so a value left in a workspace by
        # the block before would show in the text
        ncols = 64
        step = _BLOCK_VALUES // ncols
        rows = rows_of_blocks(8, ncols, 7, seed=4)
        specials = np.array(SPECIAL + NEAR_TIES + ONE_BY_ONE_TIES)
        for start in (0, step, 4 * step, 5 * step):
            rows[start, : specials.size] = specials
            rows[start + 1, -specials.size :] = specials  # the last at a row's end
        assert formatted(rows) == per_value_join(rows)
        written_grid_csv(tmp_path, rows)

    def test_longest_text_fills_the_buffer(self, cpus, tmp_path):
        rows = np.full((8 * _BLOCK_VALUES // 8 + 5, 8), LONGEST)
        text = formatted(rows)
        # the longest %.17g text and its separator are 25 bytes
        assert b"%.17g," % LONGEST == b"-1.2345678901234567e-308,"
        assert len(text) == 25 * rows.size
        assert text == per_value_join(rows)
        written_grid_csv(tmp_path, rows)

    def test_one_block_starts_no_thread(self, cpus, tmp_path, monkeypatch):
        seen = forks(monkeypatch)
        rows = rows_of_blocks(1, 4, seed=3)
        before = threading.active_count()
        assert formatted(rows) == per_value_join(rows)
        written_grid_csv(tmp_path, rows)
        assert threading.active_count() == before
        assert not seen

    def test_threads_end_with_the_call(self, cpus, tmp_path):
        before = threading.active_count()
        rows = rows_of_blocks(9, 16, seed=5)
        assert formatted(rows) == per_value_join(rows)
        written_grid_csv(tmp_path, rows)
        assert threading.active_count() == before
        assert no_child_left()

    def test_order_holds_under_frequent_thread_switches(self, tmp_path, monkeypatch):
        # while a second Python thread runs, a fork could copy a lock it
        # holds: the whole grid is formatted on the caller
        monkeypatch.setattr(export, "cpu_count", lambda: 2)
        seen = forks(monkeypatch)
        rows = rows_of_blocks(9, 32, 3, seed=9)
        done = threading.Event()
        other = threading.Thread(target=done.wait, args=(60,))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        other.start()
        try:
            written_grid_csv(tmp_path, rows)
        finally:
            done.set()
            other.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not other.is_alive()
        assert not seen

    def test_helper_error_reaches_the_caller(self, tmp_path, monkeypatch):
        # the child formats blocks 4-8 and fails at its first; the parent
        # finishes its own half, reaps the child and raises
        monkeypatch.setattr(export, "cpu_count", lambda: 2)
        parent, fmt = os.getpid(), export._format_values

        def failing(*args):
            if in_child(parent):
                raise ArithmeticError("child block")
            return fmt(*args)

        monkeypatch.setattr(export, "_format_values", failing)
        seen = forks(monkeypatch)
        target = tmp_path / "grid.csv"
        target.write_bytes(b"previous contents\n")
        grid = block_grid(9)
        with pytest.raises(ChildProcessError, match="exited with status 1"):
            write_grid_csv(str(target), grid)
        assert target.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]
        assert len(seen) == 1 and no_child_left()

    def test_helper_loads_no_thread_pool(self, tmp_path):
        # the child is a bare fork: no executor, no multiprocessing, and no
        # thread in either process
        code = (
            "import os, sys, threading, numpy as np; from subzurek import export, wigner; "
            "export.cpu_count = lambda: 2; rows = np.ones((2 * export._FORK_BLOCKS, wigner._BLOCK_VALUES)); "
            "grid = wigner.PhaseSpaceGrid(wigner.GridWindow(-1, 1, -1, 1, *rows.shape), rows); "
            "forked, fork = [], os.fork; os.fork = lambda: forked.append(1) or fork(); "
            "export.write_grid_csv(sys.argv[1], grid); "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)), threading.active_count(), "
            "len(forked))"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(export.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        path = str(tmp_path / "grid.csv")
        out = subprocess.run([sys.executable, "-c", code, path], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[] 1 1"
        assert os.path.getsize(path) > 2 * export._FORK_BLOCKS * _BLOCK_VALUES


def key_value(neg: int, layout: int, s: int) -> float:
    """A value whose %.17g text has the given sign, %g layout (fixed for
    X = -4..16 at X + 4, then e+XX, then e+XXX) and s significant digits."""
    x = layout - 4 if layout <= 20 else (1 if s % 2 else -1) * (17 + s if layout == 21 else 100 + 10 * s)
    rng = np.random.default_rng([neg, layout, s])
    while True:
        d = int(rng.integers(10 ** (s - 1), 10**s))
        if s > 1:
            d += int(rng.integers(1, 10)) - d % 10  # the last digit is significant
        v = (-1) ** neg * float(f"{d}e{x - s + 1}")
        mantissa, exponent = (b"%.16e" % abs(v)).split(b"e")
        if int(exponent) == x and len(mantissa.replace(b".", b"").rstrip(b"0")) == s:
            return v


# every (sign, layout, significant digits) key of the keep table, in order
KEYS = [(neg, layout, s) for neg in (0, 1) for layout in range(23) for s in range(1, 18)]


class TestRecordLayout:
    def test_fig2b_block_is_one_run_per_value(self):
        # the pack copies each run of kept bytes on its own; a value with 17
        # significant digits is one run (this block took 2.82 runs a value
        # when the sign, the prefix, the point and the exponent sat apart)
        values = preset_grid("fig2b").values
        ncols = values.shape[1]
        step = _BLOCK_VALUES // ncols
        v = values[len(values) // 2 : len(values) // 2 + step].ravel()
        ws = export._Workspace(v.size)
        assert export._format_values(v, ws, ncols).tobytes() == per_value_join(v.reshape(-1, ncols))
        kept = ws.rec.view(np.uint8).ravel() != 0
        runs = np.count_nonzero(kept[1:] & ~kept[:-1]) + kept[0]
        assert runs <= 1.2 * v.size


class TestKeepTable:
    @pytest.fixture(scope="class")
    def values(self):
        return np.array([key_value(*key) for key in KEYS])

    def test_every_key_is_built(self, values):
        assert len(KEYS) == 2 * 23 * 17 == 782
        for (neg, layout, s), v in zip(KEYS, values):
            text = b"%.17g" % v
            assert text.startswith(b"-") == bool(neg)
            if layout <= 20:
                assert b"e" not in text and int((b"%.16e" % v).split(b"e")[1]) == layout - 4
            else:
                assert len(text.split(b"e")[1]) == (3 if layout == 21 else 4)

    def test_within_one_row(self, values):
        rows = values[None, :]
        assert formatted(rows) == per_value_join(rows)

    def test_split_across_a_block_boundary(self, cpus, values):
        # one row per (sign, layout); the boundary falls after 23 of the 46
        keyed = values.reshape(46, 17)
        step = _BLOCK_VALUES // 17
        rows = np.concatenate([np.full((step - 23, 17), 0.5), keyed])
        assert formatted(rows) == per_value_join(rows)


def near_tie(v: float) -> bool:
    """Whether v's exact decimal value lies within 1e-9 of a unit of its 17th
    significant digit from halfway between two 17-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 800  # every double's exact expansion
        d = abs(Decimal(v))
        scaled = d.scaleb(16 - d.adjusted())
        return abs(scaled - int(scaled) - Decimal("0.5")) < Decimal("1e-9")


def one_by_one_calls(monkeypatch) -> list:
    """Record every value that the per-value %.17g path formats."""
    seen, one_by_one = [], export._one_by_one

    def recording(values):
        seen.extend(values.tolist())
        return one_by_one(values)

    monkeypatch.setattr(export, "_one_by_one", recording)
    return seen


class TestNoPerValuePath:
    """Finite values that are not near a rounding tie never take the
    per-value path, the point among the digits included; near-ties do."""

    def test_fractional_values_from_ten_to_1e17(self, cpus, monkeypatch):
        rng = np.random.default_rng(16)
        # below 2^52 a double has a fractional bit to spare, so X runs 1..15
        rows = 10.0 ** rng.uniform(1.0, math.log10(2.0**52), (4 * _BLOCK_VALUES // 64, 64))
        rows[rows == np.round(rows)] += 0.5
        rows[:, ::2] *= -1.0
        assert np.all(rows != np.round(rows))
        seen = one_by_one_calls(monkeypatch)
        assert formatted(rows) == per_value_join(rows)
        # a value whose binary fraction ends just past its 17th digit can be
        # an exact tie: only such near-ties go one by one
        assert all(near_tie(v) for v in seen)

    def test_exact_ties_from_1e_6_to_1e17(self, monkeypatch):
        # q / 2^(k+1) with q odd scales by 10^k, k = 16 - X, to 5^k q / 2: a
        # tie at every decimal exponent X = -6..15 (above 2^53 no double is
        # one), with the doubles next to each tie
        rng = np.random.default_rng(19)
        ties = []
        for x in range(-6, 16):
            scale = 2 ** (17 - x)  # 2^(k+1)
            lo = math.ceil(Fraction(10) ** x * scale)
            hi = min(math.ceil(Fraction(10) ** (x + 1) * scale), 2**53)
            q = 2 * rng.integers(lo // 2, (hi - 1) // 2, 64) + 1
            ties.extend(np.ldexp(q.astype(float), -(17 - x)).tolist())
        ties = np.array(ties)
        assert all(near_tie(v) for v in ties)
        rows = np.stack([np.nextafter(ties, 0.0), ties, -ties, np.nextafter(ties, np.inf)], axis=1)
        seen = one_by_one_calls(monkeypatch)
        assert formatted(rows) == per_value_join(rows)
        # the ties go one by one, their neighbours stay in the block
        assert sorted(seen) == sorted(ties.tolist() + (-ties).tolist())

    def test_tie_outside_the_exact_range_goes_one_by_one(self, monkeypatch):
        rows = np.array([ONE_BY_ONE_TIES])
        seen = one_by_one_calls(monkeypatch)
        assert formatted(rows) == b"1.7881393432617188e-07,-1.7881393432617188e-07\n" == per_value_join(rows)
        assert seen == ONE_BY_ONE_TIES

    def test_fig2c_logabs_cut(self, tmp_path, monkeypatch):
        from subzurek.cli import main

        monkeypatch.chdir(tmp_path)
        seen = one_by_one_calls(monkeypatch)
        assert main(["wigner", "--preset", "fig2c", "--cut", "p", "--map", "logabs", "--out", "c"]) == 0
        assert seen == []
        lines = (tmp_path / "c_cut.csv").read_bytes().split(b"\n")
        rows = [[float(v) for v in line.split(b",")] for line in lines[3:-1]]
        logs = np.array(rows)[:, 1]
        assert len(rows) > 100 and np.all((logs > -40.0) & (logs < -10.0))
        assert b"\n".join(lines[3:]) == per_value_join(rows)

    def test_fig2b_grid_and_fig2c_signed_cut(self, tmp_path, monkeypatch):
        # the fig2c cut's values with |p| >= 10 move the point among the
        # digits; one CPU keeps the whole grid in this process
        from subzurek.cli import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(export, "cpu_count", lambda: 1)
        seen = one_by_one_calls(monkeypatch)
        assert main(["wigner", "--preset", "fig2b", "--out", "g"]) == 0
        assert main(["wigner", "--preset", "fig2c", "--cut", "p", "--out", "c"]) == 0
        assert seen == []
        for name in ("g.csv", "c_cut.csv"):
            body = (tmp_path / name).read_bytes().split(b"\n", 3)[3]
            rows = [[float(v) for v in line.split(b",")] for line in body.splitlines()]
            assert len(rows) > 100 and body == per_value_join(rows)


def mapped(values, mapping):
    """(unit, lo, hi): the range, then the block map, as grid_pgm_chunks
    takes them for a grid of one block."""
    lo, hi = export._mapped_range(values, mapping)
    return export._map_block(values, mapping, lo, hi), lo, hi


class TestValueMaps:
    def test_linear(self):
        v = np.array([[1.0, 3.0], [2.0, 5.0]])
        unit, lo, hi = mapped(v, "linear")
        assert (lo, hi) == (1.0, 5.0)
        assert unit.min() == 0.0 and unit.max() == 1.0

    def test_signed_symmetric_about_zero(self):
        v = np.array([[-2.0, 0.0], [1.0, 2.0]])
        unit, lo, hi = mapped(v, "signed")
        assert (lo, hi) == (-2.0, 2.0)
        assert unit[0, 1] == 0.5
        assert unit[0, 0] == 0.0 and unit[1, 1] == 1.0

    def test_logabs_floor(self):
        v = np.array([[0.0, 1.0], [-1e-310, 10.0]])
        unit, lo, hi = mapped(v, "logabs")
        assert lo == math.log(LOG_FLOOR)
        assert hi == math.log(10.0)
        assert np.all(np.isfinite(unit))

    def test_log_profile_floor(self):
        vals = log_profile(np.array([0.0, 1.0]))
        assert vals[0] == math.log(LOG_FLOOR)
        assert vals[1] == 0.0

    def test_logabs_range_is_the_log_of_the_abs_extremes(self):
        # log(max(|v|, floor)) is monotonic, so the logs of the floored |v|
        # extremes are the extremes of the per-sample logs
        rng = np.random.default_rng(20)
        for _ in range(200):
            shape = tuple(rng.integers(1, 90, 2))
            v = 10.0 ** rng.uniform(-300.0, 300.0, shape) * rng.choice([-1.0, 1.0], shape)
            logs = np.log(np.maximum(np.abs(v), LOG_FLOOR))
            assert export._mapped_range(v, "logabs") == (logs.min(), logs.max())

    def test_unknown_map_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            mapped(np.zeros((2, 2)), "rainbow")


class TestPgm:
    def test_p5_header_and_size_8bit(self):
        grid = small_grid()
        blob = grid_to_pgm(grid, "signed", bits=8)
        head, body = blob.split(b"255\n", 1)
        assert head.startswith(b"P5\n")
        assert b"map=signed" in head
        assert b"7 9" in head  # width = np, height = nx
        assert len(body) == 9 * 7

    def test_16bit_big_endian(self):
        grid = small_grid()
        blob = grid_to_pgm(grid, "linear", bits=16)
        head, body = blob.split(b"65535\n", 1)
        assert len(body) == 9 * 7 * 2
        pixels = np.frombuffer(body, dtype=">u2").reshape(9, 7)
        # peak of the Gaussian is at the grid center; linear map sends it to maxval
        assert pixels[4, 3] == 65535

    def test_deterministic(self):
        a = grid_to_pgm(small_grid(), "logabs", bits=16)
        b = grid_to_pgm(small_grid(), "logabs", bits=16)
        assert a == b

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError, match="bits"):
            grid_to_pgm(small_grid(), "linear", bits=12)


def unit_before_in_place(values, mapping):
    """The value map as it was written before it mapped in place."""
    if mapping == "linear":
        lo, hi = values.min(), values.max()
        return (values - lo) / (hi - lo)
    if mapping == "signed":
        m = np.abs(values).max()
        return (values + m) / (2.0 * m)
    logs = np.log(np.maximum(np.abs(values), LOG_FLOOR))
    lo, hi = logs.min(), logs.max()
    return (logs - lo) / (hi - lo)


@pytest.mark.parametrize("preset", ["fig1", "fig2a", "fig2b", "fig2c", "cat"])
def test_preset_logabs_pgm_matches_the_per_sample_logs(preset):
    grid = preset_grid(preset)
    logs = np.log(np.maximum(np.abs(grid.values), LOG_FLOOR))
    assert export._mapped_range(grid.values, "logabs") == (logs.min(), logs.max())
    body = grid_to_pgm(grid, "logabs", 16).split(b"\n65535\n", 1)[1]
    assert body == pgm_reference(grid.values, "logabs", 16)


class TestPgmInPlace:
    @pytest.mark.parametrize("mapping", ["linear", "signed", "logabs"])
    @pytest.mark.parametrize("bits", [8, 16])
    def test_bytes_match_rint_of_scaled_unit(self, mapping, bits):
        rng = np.random.default_rng(bits)
        values = rng.standard_normal((33, 21)) * np.exp(-rng.uniform(0.0, 700.0, (33, 21)))
        values[::5, ::4] = 0.0
        values[1, 1] = -0.0
        grid = PhaseSpaceGrid(GridWindow(-1.0, 1.0, -2.0, 2.0, 33, 21), values)
        before = values.copy()
        maxval = (1 << bits) - 1
        pixels = np.rint(unit_before_in_place(values, mapping) * maxval)
        body = pixels.astype(np.uint16 if bits == 16 else np.uint8)
        body = body.astype(">u2").tobytes() if bits == 16 else body.tobytes()
        assert grid_to_pgm(grid, mapping, bits=bits).split(b"\n%d\n" % maxval, 1)[1] == body
        assert grid.values.tobytes() == before.tobytes()


def skip_without_exchange(directory):
    """Skip unless renameat2(RENAME_EXCHANGE) swaps two files in directory."""
    a, b = directory / "probe-a", directory / "probe-b"
    a.write_text("a")
    b.write_text("b")
    swapped = export._exchanged(str(a), str(b))
    a.unlink()
    b.unlink()
    if not swapped:
        pytest.skip("no renameat2(RENAME_EXCHANGE) on this platform or filesystem")


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        with open(path) as fh:
            assert fh.read() == "two\n"
        assert [p for p in os.listdir(tmp_path)] == ["out.txt"]

    def test_same_bytes_without_the_swap(self, tmp_path, monkeypatch):
        # a libc without renameat2: a new path and a rewrite both take
        # os.replace and write what the swap writes
        payloads = (b"one\n", b"\0two\n" * 1000)
        swapped = tmp_path / "swap"
        renamed = tmp_path / "rename"
        swapped.mkdir()
        renamed.mkdir()
        for payload in payloads:
            atomic_write_bytes(str(swapped / "out.bin"), payload)
        monkeypatch.setattr(export, "_renameat2", lambda: None)
        for payload in payloads:
            atomic_write_bytes(str(renamed / "out.bin"), payload)
            assert (renamed / "out.bin").read_bytes() == payload
        assert (renamed / "out.bin").read_bytes() == (swapped / "out.bin").read_bytes()
        assert [p.name for p in renamed.iterdir()] == ["out.bin"]
        assert (renamed / "out.bin").stat().st_mode == (swapped / "out.bin").stat().st_mode

    def test_rewrite_takes_the_swap(self, tmp_path, monkeypatch):
        # an existing regular file is swapped, never renamed over
        skip_without_exchange(tmp_path)
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "one\n")

        def refused(src, dst):
            raise AssertionError("os.replace called")

        monkeypatch.setattr(os, "replace", refused)
        atomic_write_text(str(path), "two\n")
        assert path.read_text() == "two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_directory_target_is_left_alone(self, tmp_path):
        # an exchange would move the directory to the temp name and put the
        # file in its place
        target = tmp_path / "d.csv"
        target.mkdir()
        (target / "kept.txt").write_text("kept\n")
        with pytest.raises(IsADirectoryError):
            atomic_write_text(str(target), "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
        assert [p.name for p in target.iterdir()] == ["kept.txt"]
        assert (target / "kept.txt").read_text() == "kept\n"

    def test_symlink_target_is_replaced_as_a_link(self, tmp_path):
        pointee, link = tmp_path / "pointee.txt", tmp_path / "out.txt"
        pointee.write_text("old\n")
        link.symlink_to(pointee)
        atomic_write_text(str(link), "new\n")
        assert not link.is_symlink()
        assert link.read_text() == "new\n"
        assert pointee.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "pointee.txt"]

    def test_hard_link_keeps_the_old_bytes(self, tmp_path):
        path, other = tmp_path / "out.txt", tmp_path / "other.txt"
        atomic_write_text(str(path), "old\n")
        os.link(path, other)
        atomic_write_text(str(path), "new\n")
        assert path.read_text() == "new\n"
        assert other.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other.txt", "out.txt"]

    def test_interrupt_after_the_swap(self, tmp_path, monkeypatch):
        # the temp name holds the previous version after the swap, and the
        # interrupt's cleanup removes it
        skip_without_exchange(tmp_path)
        swap = export._exchanged

        def interrupted(tmp, path):
            assert swap(tmp, path)
            raise KeyboardInterrupt

        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "old\n")
        monkeypatch.setattr(export, "_exchanged", interrupted)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(str(path), "new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_no_partial_file_on_error(self, tmp_path):
        target_dir = tmp_path / "missing"
        with pytest.raises(OSError):
            atomic_write_bytes(str(target_dir / "x.bin"), b"payload")
        assert not target_dir.exists()
        assert list(tmp_path.iterdir()) == []

    def test_mode_follows_umask(self, tmp_path):
        path = tmp_path / "out.txt"
        old = os.umask(0o022)
        try:
            atomic_write_text(str(path), "data\n")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o644

    def test_umask_is_not_read(self, tmp_path, monkeypatch):
        # setting the umask to read it would give a file another thread
        # creates meanwhile mode 0666
        def refused(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refused)
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "data\n")
        assert path.read_text() == "data\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pgm_reference(values, mapping, bits) -> bytes:
    """The samples of a whole-array map, rounded and cast."""
    maxval = (1 << bits) - 1
    pixels = np.rint(unit_before_in_place(values, mapping) * maxval)
    return pixels.astype(np.uint16).astype(">u2" if bits == 16 else np.uint8).tobytes()


class TestStreamedWrite:
    def test_peak_memory(self, cpus, tmp_path):
        # the CLI's 1536^2 grid: the streamed writes hold a few blocks, not
        # the 54 MB of CSV text or the 19 MB float copy of a whole-grid map
        n = 1536
        values = np.random.default_rng(7).standard_normal((n, n)) * 1e-3
        grid = PhaseSpaceGrid(GridWindow(-1.0, 1.0, -1.0, 1.0, n, n), values)
        csv, pgm = str(tmp_path / "grid.csv"), str(tmp_path / "grid.pgm")
        csv_peak = traced_peak(lambda: write_grid_csv(csv, grid, ["peak"]))
        pgm_peak = traced_peak(lambda: atomic_write_chunks(pgm, grid_pgm_chunks(grid, "signed", 16)))
        assert os.path.getsize(csv) > 50e6 and os.path.getsize(pgm) > 2 * n * n
        assert csv_peak <= 16e6
        assert pgm_peak <= 4e6

    def test_forked_write_peak_memory_fig2b(self, cpus, tmp_path, monkeypatch):
        # the parent holds its half's blocks only; the child's memory is its own
        grid = preset_grid("fig2b")
        seen = forks(monkeypatch)
        path = str(tmp_path / "grid.csv")
        peak = traced_peak(lambda: write_grid_csv(path, grid, ["peak"]))
        assert len(seen) == cpus - 1
        assert os.path.getsize(path) > 50e6
        assert peak <= 16e6

    # the CSV and the PGM read one partition of 16384 // np rows a block, at
    # least two, and no block of a grid is one row: 163 rows of 200 are
    # blocks of 81 and 82, the last row joined to the block before it.
    # (129, 50) was the one-row tail of the PGM's old 64-row blocks; it and
    # (64, 5) are one block now, and (2, 300) is the two-row grid
    @pytest.mark.parametrize("shape", [(133, 200), (129, 50), (2, 300), (64, 5), (163, 200)],
                             ids=["ragged-blocks", "one-row-tail", "two-rows", "one-pgm-block",
                                  "tail-joined"])
    @pytest.mark.parametrize("zero", [False, True], ids=["values", "all-zero"])
    def test_stream_matches_collectors(self, cpus, tmp_path, shape, zero):
        rng = np.random.default_rng(shape[0])
        values = rng.standard_normal(shape) * np.exp(-rng.uniform(0.0, 700.0, shape))
        values[::5, ::4] = 0.0
        if zero:
            values[:] = 0.0
        values[0, 0] = -0.0
        grid = PhaseSpaceGrid(GridWindow(-1.0, 1.0, -2.0, 2.0, *shape), values)
        path = str(tmp_path / "out")
        write_grid_csv(path, grid, ["note"])
        with open(path, "rb") as fh:
            text = fh.read()
        assert text == grid_to_csv(grid, ["note"])
        assert text.endswith(per_value_join(values))
        for mapping in ("signed", "linear", "logabs"):
            for bits in (8, 16):
                atomic_write_chunks(path, grid_pgm_chunks(grid, mapping, bits, ["note"]))
                with open(path, "rb") as fh:
                    blob = fh.read()
                assert blob == grid_to_pgm(grid, mapping, bits, ["note"])
                body = blob.split(b"\n%d\n" % ((1 << bits) - 1), 1)[1]
                if zero:
                    # signed: M = 0 maps to mid-gray; linear and logabs: no span
                    mid = np.rint(0.5 * ((1 << bits) - 1)) if mapping == "signed" else 0
                    assert np.all(np.frombuffer(body, ">u2" if bits == 16 else np.uint8) == mid)
                else:
                    assert body == pgm_reference(values, mapping, bits)

    @pytest.mark.parametrize("mapping", ["signed", "linear", "logabs"])
    @pytest.mark.parametrize("fill", ["nan", "all-zero"])
    def test_range_of_blocks_is_the_whole_array_range(self, fill, mapping):
        # the range is combined from the extremes of four blocks; a nan in one
        # block, or zeros throughout, give what whole-array reductions give
        shape = (3 * (_BLOCK_VALUES // 50) + 7, 50)
        values = np.random.default_rng(5).standard_normal(shape)
        if fill == "nan":
            values[shape[0] // 2, 7] = np.nan
        else:
            values[:] = 0.0
        grid = PhaseSpaceGrid(GridWindow(-1.0, 1.0, -1.0, 1.0, *shape), values)
        assert len(_row_blocks(*shape)) == 4
        lo, hi = whole_array_range(values, mapping)
        head = next(grid_pgm_chunks(grid, mapping, 16))
        assert b" mapped_min=%.17g mapped_max=%.17g " % (lo, hi) in head

    def test_cli_grid_holds_no_whole_grid(self, tmp_path, monkeypatch):
        # a 2049 x 8192 grid is 134 MB as one float64 array; the CLI maps the
        # blocks of a GridRows, each evaluated when it is written
        from subzurek.cli import main

        monkeypatch.chdir(tmp_path)
        argv = ["wigner", "--preset", "fig2b", "--source", "pure", "--grid=-16:16:2049,-4:4:8192",
                "--format", "pgm", "--out", "big"]
        codes = []
        peak = traced_peak(lambda: codes.append(main(argv)))
        assert codes == [0]
        assert os.path.getsize(tmp_path / "big.pgm") > 2 * 2049 * 8192
        assert peak <= 16e6

    def test_bad_map_raises_before_any_file(self, tmp_path):
        with pytest.raises(ValueError, match="mapping"):
            atomic_write_chunks(str(tmp_path / "x.pgm"), grid_pgm_chunks(small_grid(), "rainbow"))
        with pytest.raises(ValueError, match="bits"):
            grid_pgm_chunks(small_grid(), "linear", bits=12)
        assert list(tmp_path.iterdir()) == []


def whole_array_range(values, mapping):
    """The mapped range by whole-array reductions of the values."""
    if mapping == "signed":
        m = max(values.max(), -values.min())
        return (-0.0, 0.0) if m == 0.0 else (-m, m)
    if mapping == "linear":
        return values.min(), values.max()
    a = np.abs(values)
    return tuple(np.log(np.maximum([a.min(), a.max()], LOG_FLOOR)))


def csv_values(path) -> np.ndarray:
    """The values of a grid CSV, each read back by float()."""
    lines = path.read_bytes().split(b"\n")[:-1]
    first = next(i for i, line in enumerate(lines) if not line.startswith(b"#")) + 2
    return np.array([[float(v) for v in line.split(b",")] for line in lines[first:]])


# np = 2, 399, 3001 and 20001 take blocks of 37 (the whole grid), 41, 5 and
# 2 rows; the bench's 17 x 8000 window takes 2-row blocks and a one-row tail
PARTITION_WINDOWS = [(37, 2), (37, 399), (37, 3001), (37, 20001), (17, 8000)]


@pytest.mark.usefixtures("fork_from_8_blocks")
@pytest.mark.parametrize("shape", PARTITION_WINDOWS, ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("preset", ["fig1", "fig2b"])
def test_streams_read_the_bits_of_eval_grid(preset, shape, cpus, tmp_path, monkeypatch):
    # fig1 folds C into X_b, the fig2b cross into P_b; GEMM's bits can follow
    # the rows of a product, so eval_grid, the streamed CSV (half of it from
    # the forked child on two CPUs) and the PGM range must read one partition
    from subzurek import cli

    scenario = cli.resolve_scenario(cli.build_parser().parse_args(["wigner", "--preset", preset]))
    source = scenario.build_source("auto")
    window = GridWindow(-16.0, 16.0, -4.0, 4.0, *shape)
    values = eval_grid(source, window).values
    grid = GridRows(source, window)
    seen = forks(monkeypatch)
    path = tmp_path / "grid.csv"
    write_grid_csv(str(path), grid)
    assert len(seen) == (cpus == 2 and len(_row_blocks(*shape)) >= 8)
    assert csv_values(path).tobytes() == values.tobytes()
    for mapping in ("signed", "linear", "logabs"):
        head = next(grid_pgm_chunks(grid, mapping, 16))
        assert b" mapped_min=%.17g mapped_max=%.17g " % whole_array_range(values, mapping) in head


def block_grid(nblocks: int = 9, ncols: int = 16) -> PhaseSpaceGrid:
    """A grid whose k-th CSV block holds the value k throughout; on two CPUs
    write_grid_csv forks for 9 blocks and leaves blocks 4-8 to the child."""
    step = _BLOCK_VALUES // ncols
    values = np.repeat(np.arange(float(nblocks)), step)[:, None] * np.ones(ncols)
    return PhaseSpaceGrid(GridWindow(-1.0, 1.0, -1.0, 1.0, *values.shape), values)


@pytest.mark.usefixtures("fork_from_8_blocks")
class TestStreamedWriteAtomicity:
    """A failure part way through a stream leaves the target as it was, no
    temp file, no thread and no child process."""

    def check(self, tmp_path, write, error):
        target = tmp_path / "grid.csv"
        target.write_bytes(b"previous contents\n")
        before = threading.active_count()
        with pytest.raises(error):
            write(str(target))
        assert target.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]
        assert threading.active_count() == before
        assert no_child_left()

    def failing_block(self, monkeypatch, k, error, child_sleeps=0.0):
        """Make block k raise error; with child_sleeps, each block the
        forked child takes first sleeps that long."""
        parent, fmt = os.getpid(), export._format_values

        def failing(v, *args):
            if v[0] == k:
                raise error(f"block {k}")
            if child_sleeps and in_child(parent):
                time.sleep(child_sleeps)
            return fmt(v, *args)

        monkeypatch.setattr(export, "_format_values", failing)

    def test_formatter_error_in_a_helper_block(self, cpus, tmp_path, monkeypatch):
        # block 6 is the child's on two CPUs, the caller's on one
        self.failing_block(monkeypatch, 6, ArithmeticError)
        seen = forks(monkeypatch)
        error = ChildProcessError if cpus == 2 else ArithmeticError
        self.check(tmp_path, lambda path: write_grid_csv(path, block_grid()), error)
        assert len(seen) == cpus - 1

    def test_interrupt_from_the_chunk_iterator(self, cpus, tmp_path, monkeypatch):
        # block 2 is the caller's, interrupted while the child sleeps in its
        # first block: the child is killed and reaped, both temp files removed
        self.failing_block(monkeypatch, 2, KeyboardInterrupt, child_sleeps=30.0)
        seen = forks(monkeypatch)
        start = time.monotonic()
        self.check(tmp_path, lambda path: write_grid_csv(path, block_grid()), KeyboardInterrupt)
        assert len(seen) == cpus - 1
        assert time.monotonic() - start < 20.0  # the parent did not wait out the child

    @pytest.mark.parametrize("k", range(9))
    def test_failure_at_every_block(self, k, tmp_path, monkeypatch):
        monkeypatch.setattr(export, "cpu_count", lambda: 2)
        self.failing_block(monkeypatch, k, ArithmeticError)
        error = ChildProcessError if k >= 4 else ArithmeticError
        self.check(tmp_path, lambda path: write_grid_csv(path, block_grid()), error)
        monkeypatch.setattr(export, "cpu_count", lambda: 1)
        self.check(tmp_path, lambda path: write_grid_csv(path, block_grid()), ArithmeticError)

    @pytest.mark.parametrize("fmt", ["csv", "pgm"])
    def test_write_error_after_some_chunks(self, cpus, tmp_path, monkeypatch, fmt):
        real_fdopen, writes = os.fdopen, []

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                writes.append(len(chunk))
                if len(writes) > 2:
                    raise OSError(28, "No space left on device")
                return self.fh.write(chunk)

        monkeypatch.setattr(os, "fdopen", lambda fd, mode: FullDisk(real_fdopen(fd, mode)))
        grid = block_grid()
        if fmt == "csv":
            self.check(tmp_path, lambda path: write_grid_csv(path, grid), OSError)
        else:
            self.check(tmp_path, lambda path: atomic_write_chunks(path, grid_pgm_chunks(grid, "signed", 16)), OSError)
        assert len(writes) == 3

    def test_killed_writer_leaves_one_temp_file(self, tmp_path):
        # the parent is killed while it writes its half, after the fork; the
        # child's temp file has no name, so the parent's is the one left
        code = (
            "import os, signal, sys, numpy as np; from subzurek import export, wigner; "
            "export.cpu_count = lambda: 2; export._write_and_exit = lambda *args: os._exit(0); "
            "export._csv_chunks = lambda *args: os.kill(os.getpid(), signal.SIGKILL); "
            "rows = np.ones((2 * export._FORK_BLOCKS, wigner._BLOCK_VALUES)); "
            "grid = wigner.PhaseSpaceGrid(wigner.GridWindow(-1, 1, -1, 1, *rows.shape), rows); "
            "export.write_grid_csv(sys.argv[1], grid)"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(export.__file__)))
        target = tmp_path / "grid.csv"
        target.write_bytes(b"previous contents\n")
        out = subprocess.run([sys.executable, "-c", code, str(target)], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, timeout=60)
        assert out.returncode == -signal.SIGKILL
        assert target.read_bytes() == b"previous contents\n"
        assert len([p for p in tmp_path.iterdir() if p.name.startswith(".tmp-export-")]) == 1
