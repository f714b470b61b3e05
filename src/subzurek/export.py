"""Deterministic file export: CSV grids/cuts and binary PGM graymaps.

All floats are written with %.17g (round-trip exact), all newlines are '\n',
and every writer goes through a temp-file-then-rename so no partial output
survives an error.  Identical inputs produce byte-identical files.

The CSV serializers return a bytearray holding the whole file.  Rows of
values are formatted in blocks of about _BLOCK_VALUES values, each block by
one % operation on a template of repeated "%.17g" fields, and appended to
that one buffer; the bytes are those of a per-value "%.17g" join.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .wigner import PhaseSpaceGrid

LOG_FLOOR = 1e-300

MAP_LINEAR = "linear"
MAP_SIGNED = "signed"
MAP_LOGABS = "logabs"
VALUE_MAPS = (MAP_LINEAR, MAP_SIGNED, MAP_LOGABS)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-export-")
    # mkstemp creates the file 0600 and the rename keeps it: give the output
    # the mode a plain open() would, 0666 less the umask
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# values per % operation: enough to amortize the per-block work, few enough
# that a block's Python floats and text stay a few MB
_BLOCK_VALUES = 1 << 16


def _append_rows(buf: bytearray, rows: np.ndarray) -> None:
    """Append each row of a 2-D array as a line of %.17g values."""
    nrows, ncols = rows.shape
    row = ",".join(["%.17g"] * ncols)
    step = max(1, _BLOCK_VALUES // ncols)
    full = "\n".join([row] * step) + "\n"
    for start in range(0, nrows, step):
        block = rows[start : start + step]
        template = full if len(block) == step else "\n".join([row] * len(block)) + "\n"
        buf += (template % tuple(block.ravel().tolist())).encode("ascii")


def _header(header_comments: list[str] | None, *lines: str) -> bytearray:
    """A buffer holding the '# ' comment lines, then the given lines."""
    text = "".join(f"# {c}\n" for c in header_comments or [])
    text += "".join(f"{line}\n" for line in lines)
    return bytearray(text.encode("utf-8"))


def grid_to_csv(grid: PhaseSpaceGrid, header_comments: list[str] | None = None) -> bytearray:
    """Serialize a grid: comment lines, the six-field lattice header row, then
    nx rows of np comma-separated values (row-major)."""
    w = grid.window
    bounds = ",".join([_fmt(w.x_min), _fmt(w.x_max), _fmt(w.p_min), _fmt(w.p_max), str(w.nx), str(w.np)])
    buf = _header(header_comments, "x_min,x_max,p_min,p_max,nx,np", bounds)
    _append_rows(buf, grid.values)
    return buf


def cut_to_csv(
    coords: np.ndarray,
    values: np.ndarray,
    axis: str,
    header_comments: list[str] | None = None,
    value_label: str = "W",
) -> bytearray:
    """Serialize a 1-D profile as '<axis>,<value_label>' rows."""
    buf = _header(header_comments, f"{axis},{value_label}")
    _append_rows(buf, np.column_stack((coords, values)))
    return buf


def map_values(values: np.ndarray, mapping: str) -> tuple[np.ndarray, float, float]:
    """Map raw values to [0,1] per the chosen scheme; returns (unit, lo, hi).

    linear: [min, max] -> [0, 1].
    signed: symmetric about zero, [-M, M] -> [0, 1] with M = max|v|.
    logabs: ln(max(|v|, 1e-300)) then linear; the floor keeps zeros finite.
    """
    if mapping == MAP_LINEAR:
        lo, hi = float(values.min()), float(values.max())
        span = hi - lo
        unit = (values - lo) / span if span > 0.0 else np.zeros_like(values)
        return unit, lo, hi
    if mapping == MAP_SIGNED:
        m = float(np.abs(values).max())
        if m == 0.0:
            return np.full_like(values, 0.5), -0.0, 0.0
        unit = (values + m) / (2.0 * m)
        return unit, -m, m
    if mapping == MAP_LOGABS:
        logs = np.log(np.maximum(np.abs(values), LOG_FLOOR))
        lo, hi = float(logs.min()), float(logs.max())
        span = hi - lo
        unit = (logs - lo) / span if span > 0.0 else np.zeros_like(logs)
        return unit, lo, hi
    raise ValueError(f"mapping must be one of {VALUE_MAPS}, got {mapping!r}")


def grid_to_pgm(
    grid: PhaseSpaceGrid,
    mapping: str = MAP_SIGNED,
    bits: int = 8,
    header_comments: list[str] | None = None,
) -> bytes:
    """Binary P5 graymap of the grid; mapping and mapped range go in the header.

    Rows run along p (width = np, height = nx); 16-bit samples are big-endian
    per the PGM format.  logabs values are floored at 1e-300 before the log.
    """
    if bits not in (8, 16):
        raise ValueError(f"bits must be 8 or 16, got {bits}")
    unit, lo, hi = map_values(grid.values, mapping)
    maxval = (1 << bits) - 1
    pixels = np.rint(unit * maxval).astype(np.uint16 if bits == 16 else np.uint8)
    w = grid.window
    header = [
        "P5",
        f"# map={mapping} mapped_min={_fmt(lo)} mapped_max={_fmt(hi)} floor={_fmt(LOG_FLOOR)}",
        f"# x_min={_fmt(w.x_min)} x_max={_fmt(w.x_max)} p_min={_fmt(w.p_min)} p_max={_fmt(w.p_max)}",
    ]
    header += [f"# {c}" for c in (header_comments or [])]
    header.append(f"{w.np} {w.nx}")
    header.append(str(maxval))
    head = ("\n".join(header) + "\n").encode("ascii")
    if bits == 16:
        body = pixels.astype(">u2").tobytes()
    else:
        body = pixels.tobytes()
    return head + body


def log_profile(values: np.ndarray) -> np.ndarray:
    """ln|W| with the 1e-300 floor, for superoscillation-panel profiles."""
    return np.log(np.maximum(np.abs(values), LOG_FLOOR))
