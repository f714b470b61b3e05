import math
import os

import numpy as np
import pytest

from subzurek.export import (
    LOG_FLOOR,
    atomic_write_bytes,
    atomic_write_text,
    cut_to_csv,
    grid_to_csv,
    grid_to_pgm,
    log_profile,
    map_values,
)
from subzurek.states import GaussianComponent, PhysicalConstants, StateSpec
from subzurek.wigner import GridWindow, eval_grid


def small_grid():
    st = StateSpec(
        components=(GaussianComponent(0.0, 1.0, 1.0 + 0j),),
        constants=PhysicalConstants(),
        normalized=True,
    )
    return eval_grid(st, GridWindow(-2.0, 2.0, -2.0, 2.0, 9, 7))


class TestCsv:
    def test_header_and_shape(self):
        grid = small_grid()
        text = grid_to_csv(grid, ["cfg echo"])
        lines = text.strip().split("\n")
        assert lines[0] == "# cfg echo"
        assert lines[1] == "x_min,x_max,p_min,p_max,nx,np"
        assert lines[2].split(",")[4:] == ["9", "7"]
        data_rows = lines[3:]
        assert len(data_rows) == 9
        assert all(len(r.split(",")) == 7 for r in data_rows)

    def test_round_trip_17_digits(self):
        grid = small_grid()
        rows = grid_to_csv(grid).strip().split("\n")[2:]
        parsed = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert np.array_equal(parsed, grid.values)

    def test_deterministic(self):
        assert grid_to_csv(small_grid()) == grid_to_csv(small_grid())

    def test_cut_csv_labels(self):
        text = cut_to_csv(np.array([0.0, 1.0]), np.array([2.0, 3.0]), "p", value_label="overlap")
        lines = text.strip().split("\n")
        assert lines[0] == "p,overlap"
        assert lines[1] == "0,2"


class TestValueMaps:
    def test_linear(self):
        v = np.array([[1.0, 3.0], [2.0, 5.0]])
        unit, lo, hi = map_values(v, "linear")
        assert (lo, hi) == (1.0, 5.0)
        assert unit.min() == 0.0 and unit.max() == 1.0

    def test_signed_symmetric_about_zero(self):
        v = np.array([[-2.0, 0.0], [1.0, 2.0]])
        unit, lo, hi = map_values(v, "signed")
        assert (lo, hi) == (-2.0, 2.0)
        assert unit[0, 1] == 0.5
        assert unit[0, 0] == 0.0 and unit[1, 1] == 1.0

    def test_logabs_floor(self):
        v = np.array([[0.0, 1.0], [-1e-310, 10.0]])
        unit, lo, hi = map_values(v, "logabs")
        assert lo == math.log(LOG_FLOOR)
        assert hi == math.log(10.0)
        assert np.all(np.isfinite(unit))

    def test_log_profile_floor(self):
        vals = log_profile(np.array([0.0, 1.0]))
        assert vals[0] == math.log(LOG_FLOOR)
        assert vals[1] == 0.0

    def test_unknown_map_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            map_values(np.zeros((2, 2)), "rainbow")


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


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        with open(path) as fh:
            assert fh.read() == "two\n"
        assert [p for p in os.listdir(tmp_path)] == ["out.txt"]

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
