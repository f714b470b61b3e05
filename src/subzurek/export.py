"""Deterministic file export: CSV grids/cuts and binary PGM graymaps.

All floats are written with %.17g (round-trip exact), all newlines are '\n',
and every writer goes through a temp-file-then-rename so no partial output
survives an error or an interrupt.  Identical inputs produce byte-identical
files.

A grid export is a stream of chunks that atomic_write_chunks writes into the
temp file one at a time (grid_csv_chunks, grid_pgm_chunks; the CLI writes
these), so no whole-file copy is held: a 1536^2 grid peaks at about 4.5 MB of
Python allocations as CSV (8 MB with the helper thread) and 2 MB as 16-bit
PGM.  grid_to_csv, cut_to_csv and grid_to_pgm collect the same chunks into
one object for library callers; the CSV collectors allocate one buffer at
_MAX_TEXT bytes per value (the longest %.17g text and its separator) and cut
it to length at the end.

CSV rows are formatted by numpy arithmetic in blocks of about _BLOCK_VALUES
values: each value's 17 significant digits come from an exact double-double
product with a table of powers of ten.  Its text is built in a 32-byte
record of four uint64 words (sign, "0.000" prefix, lead digit and point;
digits 2-9; digits 10-17; exponent and separator), each word made for the
whole block from small tables.  One AND with a keep mask per (sign, %g
layout, digits shown) zeroes the bytes "%.17g" does not write, and a
boolean mask of the nonzero bytes packs the rest.  Only nan, +-inf and
values within 1e-9 of a rounding tie are formatted one by one with
"%.17g".  Every whole-block step is a numpy call that releases the GIL, so
a helper thread's blocks overlap the caller's.  Measured on the four
Fig. 1-2 grids on a 2-core x86 VM: bytes.translate packs with less CPU
(1.50 against 1.76 s on one thread) but holds the GIL, so on two threads
it took 1.13 s of wall time against 0.95 s.  np.compress builds an int64
index per kept byte, 2.8 MB a block; its two threads took 1.98 s against
1.05 s under glibc's default malloc settings, and 1.08 against 0.98 s with
the mmap and trim thresholds fixed at 32 and 64 MiB.

When the process may use two CPUs and the array spans two blocks, one
helper thread formats every other block into its own record and hands each
block's text over through a one-slot handoff, so at most two blocks of text
are alive; the chunks come out in order, and their bytes are those of a
per-value "%.17g" join, with or without the helper.

A PGM's mapped range is found first without a copy of the grid (logabs
takes the extremes block by block), then blocks of _PGM_ROWS rows are
mapped, rounded and cast to samples.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
import threading
from collections.abc import Iterable, Iterator

import numpy as np

from .cpus import cpu_count
from .wigner import PhaseSpaceGrid

LOG_FLOOR = 1e-300

MAP_LINEAR = "linear"
MAP_SIGNED = "signed"
MAP_LOGABS = "logabs"
VALUE_MAPS = (MAP_LINEAR, MAP_SIGNED, MAP_LOGABS)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def atomic_write_chunks(path: str, chunks: Iterable) -> None:
    """Write the bytes-like chunks, in order, to a temp file beside path and
    rename it onto path.  On any error or interrupt the temp file is removed
    and path is left as it was; a generator of chunks is closed either way."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-export-")
    # mkstemp creates the file 0600 and the rename keeps it: give the output
    # the mode a plain open() would, 0666 less the umask
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    finally:
        close = getattr(chunks, "close", None)
        if close is not None:
            close()  # stops a stream's helper thread


def atomic_write_bytes(path: str, payload: bytes) -> None:
    atomic_write_chunks(path, (payload,))


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# %.17g by array arithmetic
#
# A finite nonzero |v| with decimal exponent X (10^X <= |v| < 10^(X+1)) has
# the 17 significant digits N = round(|v| 10^(16-X)), 10^16 <= N <= 10^17,
# where N = 10^17 is a carry into the next decade.  With |v| = m 2^e (frexp)
# and 10^k tabulated as (H + L) 2^E, H in [0.5, 1) and L the next 53 bits,
# |v| 10^k = (m H + m L) 2^(e+E); Dekker's split gives m H exactly as a
# double-double, so the scaled value is good to about 2^-104 of itself, far
# inside the 1e-9 guard that sends a near-tie (exact ties round half to even)
# to the per-value "%.17g", as it does nan and +-inf.

_K_MIN, _K_MAX = -300, 350  # 10^k for the 16 - X of every float64, with room
_Q_BITS = 120  # bits of 10^k kept when tabulating H and L


@functools.cache
def _pow10() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, L, E), indexed by k - _K_MIN, with 10^k = (H + L) 2^E to ~2^-106."""
    h, lo, ex = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        e = num.bit_length() - den.bit_length()
        if num << max(0, -e) >= den << max(0, e):
            e += 1  # now 2^(e-1) <= 10^k < 2^e
        shift = _Q_BITS - e
        q = (num << shift) // den if shift >= 0 else (num >> -shift) // den
        h.append(math.ldexp(q >> (_Q_BITS - 53), -53))
        lo.append(math.ldexp(float(q & ((1 << (_Q_BITS - 53)) - 1)), -_Q_BITS))
        ex.append(e)
    return np.array(h), np.array(lo), np.array(ex, np.int32)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a double into two 26-bit halves, a = hi + lo."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(m: np.ndarray, e: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor (int64) and fraction of m 2^e 10^(16-x)."""
    h, lo, ex = _pow10()
    k = 16 - _K_MIN - x
    hk = h.take(k)
    top = m * hk
    mh, ml = _split(m)
    hh, hl = _split(hk)
    err = ((mh * hh - top) + mh * hl + ml * hh) + ml * hl
    shift = e + ex.take(k)  # int32: ldexp is much slower on int64
    hi = np.ldexp(top, shift)
    rest = np.ldexp(err + m * lo.take(k), shift)
    whole = np.floor(hi)
    rest += hi - whole
    below = np.floor(rest)
    return whole.astype(np.int64) + below.astype(np.int64), rest - below


# A value's record is 32 bytes, four little-endian uint64 words:
#   word 0: the sign, the "0.000" of 1e-4 <= |v| < 1, the lead digit, a point
#   word 1: digits 2-9        word 2: digits 10-17
#   word 3: "e", the exponent's sign and three digits, the separator, 2 zeros
# Each word is built for the whole block from small tables, then ANDed with
# the keep mask of the value's (sign, layout, significant digits), which
# zeroes every byte %g does not write; packing the nonzero bytes gives the
# text.  In the fixed form with the point among the digits (1 <= X <= 15 and
# more than X + 1 digits) the X digits after the lead move down one byte
# over the point's slot and the point goes after them.
_LEAD, _EXP, _SEP, _WIDTH = 6, 24, 29, 32
# layouts: fixed for X = -4..16 (X + 4), then e+XX and e+XXX
_LAYOUTS = 23
_X_MIN, _X_MAX = -324, 308  # decimal exponents of the nonzero float64s


def _word_masks(bytemask: np.ndarray) -> np.ndarray:
    """Boolean byte masks (..., 8k) as uint64 words (..., k) of 0xff bytes."""
    return np.where(bytemask, np.uint8(0xFF), np.uint8(0)).view(np.uint64)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as one uint64 each (in its low four
    bytes), and their trailing-zero counts (4 for 0)."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    chars = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), axis=-1).reshape(-1, 4)
    zeros = np.cumprod(chars[:, ::-1] == ord("0"), axis=1, dtype=np.int8)
    zeros = zeros.sum(axis=1, dtype=np.int8)
    return chars.view(np.uint32).ravel().astype(np.uint64), zeros


@functools.cache
def _exponent_tables() -> tuple[np.ndarray, np.ndarray]:
    """Indexed by X - _X_MIN: word 3 ("e-324," ... "e+308,") and the layout's
    part of the keep-table key, 17 times the layout."""
    x = np.arange(_X_MIN, _X_MAX + 1)
    words = b"".join(b"e%c%03d,\0\0" % (ord("-") if k < 0 else ord("+"), abs(k)) for k in x.tolist())
    layout = np.where((x < -4) | (x > 16), 21 + (np.abs(x) >= 100), x + 4)
    return np.frombuffer(words, np.uint64), 17 * layout


@functools.cache
def _keep_table() -> tuple[np.ndarray, np.ndarray]:
    """The keep masks (uint64, 4 words) of each (negative, layout, s) key, s
    the significant digits, and whether the key's point sits among the digits."""
    neg, layout, s = (a.reshape(-1, 1) for a in np.indices((2, _LAYOUTS, 17)))
    s = s + 1
    x = layout - 4
    fixed = layout <= 20
    pos = np.arange(_WIDTH)
    # the digit each byte holds: the lead at _LEAD, digit k >= 2 at _LEAD + k
    digit = np.where(pos == _LEAD, 1, np.where((pos > _LEAD + 1) & (pos < _EXP), pos - _LEAD, 0))
    # fixed form shows every integer digit
    shown = np.where(fixed & (x >= 0), np.maximum(s, x + 1), s)
    inside = fixed & (x >= 1) & (s > x + 1)
    point = (s > 1) & (~fixed | (x == 0) | inside)
    exp = (pos == _EXP) | (pos == _EXP + 1) | (pos >= _EXP + 3 - (layout == 22)) & (pos < _SEP)
    keep = (
        (pos == 0) & (neg == 1)
        | (pos >= 1) & (pos < _LEAD) & fixed & (pos < 2 - x) & (x < 0)
        | (digit > 0) & (digit <= shown)
        | (pos == _LEAD + 1) & point
        | exp & ~fixed
        | (pos == _SEP)
    )
    return _word_masks(keep), inside.ravel()


@functools.cache
def _point_moves() -> np.ndarray:
    """Indexed [mask, word, X] for words 0-2 and X = 0..16: the bytes that
    take the next byte's digit, the bytes that stay, and the point."""
    x = np.arange(17).reshape(-1, 1)
    pos = np.arange(3 * 8)
    moved = (pos > _LEAD) & (pos <= _LEAD + x)
    point = pos == _LEAD + 1 + x
    dot = np.where(point, np.uint8(ord(".")), np.uint8(0)).view(np.uint64)
    return np.stack([_word_masks(moved), _word_masks(~moved & ~point), dot]).transpose(0, 2, 1)


_WORD0 = int.from_bytes(b"-0.0000.", "little")  # lead digit 0
_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 8 * (_SEP - _EXP))


def _one_by_one(values: np.ndarray) -> list[bytes]:
    """The "%.17g" text of each value, one Python float at a time: only nan,
    +-inf and near-ties take this path."""
    return [b"%.17g" % v for v in values.tolist()]


def _format_values(v: np.ndarray, rec: np.ndarray, ncols: int) -> np.ndarray:
    """The %.17g text (uint8) of each value of v, rows of ncols values, each
    value followed by ',' or, at a row's end, '\\n'.  rec is an (n, 4) uint64
    workspace."""
    n = v.size
    rec = rec[:n]
    a = np.abs(v)
    finite = np.isfinite(v)
    regular = finite & (a > 0.0)
    a = np.where(regular, a, 1.0)
    m, e = np.frexp(a)
    x = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = _scaled(m, e, x)
    # the log10 estimate of X can be one off next to a power of ten
    low, high = np.flatnonzero(whole < 10**16), np.flatnonzero(whole >= 10**17)
    for idx, step in ((low, -1), (high, 1)):
        if idx.size:
            x[idx] += step
            whole[idx], frac[idx] = _scaled(m[idx], e[idx], x[idx])
    tie = np.abs(frac - 0.5) < 1e-9
    digits = whole + (frac > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    x += carry
    digits = np.where(regular, digits, 0)  # +-0 prints as one digit, X = 0
    at = np.where(regular, x, 0) - _X_MIN  # the exponent tables' index

    # words 0-2 as rows of w; words 1 and 2 from four-digit groups
    four, zeros = _digit_tables()
    head = digits // 10**8  # digits 1-9
    groups = np.empty((2, n), np.int64)
    groups[1] = digits - head * 10**8
    lead = head // 10**8
    groups[0] = head - lead * 10**8
    left = groups // 10**4  # the first four digits of each group
    right = groups - left * 10**4
    w = np.empty((3, n), np.uint64)
    np.left_shift(lead.view(np.uint64), np.uint64(8 * _LEAD), out=w[0])
    w[0] += np.uint64(_WORD0)
    np.left_shift(four.take(right), np.uint64(32), out=w[1:])
    w[1:] |= four.take(left)
    # trailing zeros of digits 2-17: a zero group passes the count on
    z = zeros.take(right) + (right == 0) * zeros.take(left)
    trailing = z[1] + (z[1] == 8) * z[0]

    words, layouts = _exponent_tables()
    keep, inside = _keep_table()
    key = layouts.take(at) + np.signbit(v) * (_LAYOUTS * 17) + (16 - trailing)
    moved = np.flatnonzero(inside.take(key))
    if moved.size:
        near = w[:, moved]
        shifted = near >> np.uint64(8)
        shifted[:2] |= near[1:] << np.uint64(56)
        take, stay, point = _point_moves()[:, :, at.take(moved) + _X_MIN]
        w[:, moved] = shifted & take | near & stay | point
    keep.take(key, axis=0, out=rec, mode="clip")
    exponent = words.take(at)
    exponent[ncols - 1 :: ncols] ^= _NEWLINE
    for k, word in enumerate((*w, exponent)):
        rec[:, k] &= word

    chars = rec.view(np.uint8)
    fallback = np.flatnonzero(~finite | tie)
    for i, text in zip(fallback, _one_by_one(v.take(fallback))):
        chars[i, :_SEP] = 0
        chars[i, : len(text)] = np.frombuffer(text, np.uint8)
    chars = chars.ravel()
    return chars[chars != 0]


# values per block: enough to amortize the per-block numpy calls, few enough
# that a block's records and temporaries stay a few MB
_BLOCK_VALUES = 1 << 14
# the longest %.17g text, "-1.2345678901234567e-308", and its separator
_MAX_TEXT = 25


def _csv_chunks(head: bytes, rows: np.ndarray) -> Iterator:
    """head, then the text of each block of rows, each row a line of %.17g
    values; odd blocks go to a helper thread when there are two CPUs and two
    blocks (see the module docstring)."""
    rows = np.asarray(rows, dtype=np.float64)
    nrows, ncols = rows.shape
    step = max(1, _BLOCK_VALUES // ncols)
    starts = range(0, nrows, step)
    rec = np.empty((min(step, nrows) * ncols, _WIDTH // 8), np.uint64)

    def block(start: int, record: np.ndarray) -> np.ndarray:
        return _format_values(rows[start : start + step].ravel(), record, ncols)

    yield head
    if len(starts) < 2 or cpu_count() < 2:
        for start in starts:
            yield block(start, rec)
        return

    # one-slot handoff: the helper starts its next block only once the caller
    # has taken the last one, so at most two blocks of text are alive
    helper_rec, slot = np.empty_like(rec), []
    free, full, stop = threading.Semaphore(1), threading.Semaphore(0), threading.Event()

    def work() -> None:
        for start in starts[1::2]:
            free.acquire()
            if stop.is_set():
                return
            try:
                slot.append(block(start, helper_rec))
            except BaseException as exc:
                slot.append(exc)
                full.release()
                return
            full.release()

    helper = threading.Thread(target=work, name="subzurek-csv")
    helper.start()
    try:
        for i, start in enumerate(starts):
            if i % 2 == 0:
                text = block(start, rec)
            else:
                full.acquire()
                text = slot.pop()
                free.release()
                if isinstance(text, BaseException):
                    raise text
            yield text
    finally:
        stop.set()
        free.release()
        helper.join()


def _csv_bytes(head: bytes, rows: np.ndarray) -> bytearray:
    """The chunks of _csv_chunks in one buffer, presized at _MAX_TEXT bytes
    per value and cut to length."""
    buf = bytearray(len(head) + _MAX_TEXT * np.size(rows))
    end = 0
    for chunk in _csv_chunks(head, rows):
        buf[end : end + len(chunk)] = memoryview(chunk)
        end += len(chunk)
    del buf[end:]
    return buf


def _header(header_comments: list[str] | None, *lines: str) -> bytes:
    """The '# ' comment lines, then the given lines."""
    text = "".join(f"# {c}\n" for c in header_comments or [])
    text += "".join(f"{line}\n" for line in lines)
    return text.encode("utf-8")


def _grid_head(grid: PhaseSpaceGrid, header_comments: list[str] | None) -> bytes:
    w = grid.window
    bounds = ",".join([_fmt(w.x_min), _fmt(w.x_max), _fmt(w.p_min), _fmt(w.p_max), str(w.nx), str(w.np)])
    return _header(header_comments, "x_min,x_max,p_min,p_max,nx,np", bounds)


def grid_csv_chunks(grid: PhaseSpaceGrid, header_comments: list[str] | None = None) -> Iterator:
    """The chunks of grid_to_csv's text, in order, for atomic_write_chunks."""
    return _csv_chunks(_grid_head(grid, header_comments), grid.values)


def grid_to_csv(grid: PhaseSpaceGrid, header_comments: list[str] | None = None) -> bytearray:
    """Serialize a grid: comment lines, the six-field lattice header row, then
    nx rows of np comma-separated values (row-major)."""
    return _csv_bytes(_grid_head(grid, header_comments), grid.values)


def cut_to_csv(
    coords: np.ndarray,
    values: np.ndarray,
    axis: str,
    header_comments: list[str] | None = None,
    value_label: str = "W",
) -> bytearray:
    """Serialize a 1-D profile as '<axis>,<value_label>' rows."""
    head = _header(header_comments, f"{axis},{value_label}")
    return _csv_bytes(head, np.column_stack((coords, values)))


# rows per PGM block: a block's float copy stays under 1 MB for 1536 columns
_PGM_ROWS = 64


def _premapped(values: np.ndarray, mapping: str) -> np.ndarray:
    """A new float array that the linear or logabs map sends affinely to [0,1]."""
    if mapping == MAP_LINEAR:
        return np.array(values, dtype=np.float64)
    unit = np.abs(values, dtype=np.float64)
    np.maximum(unit, LOG_FLOOR, out=unit)
    np.log(unit, out=unit)
    return unit


def _mapped_range(values: np.ndarray, mapping: str) -> tuple[float, float]:
    """The (lo, hi) that map_values sends to (0, 1), with no copy of values:
    logabs takes the extremes of each block of rows."""
    if mapping == MAP_SIGNED:
        m = float(np.maximum(values.max(), -values.min()))  # max|v|, no |v| array
        return (-0.0, 0.0) if m == 0.0 else (-m, m)
    if mapping == MAP_LINEAR:
        return float(values.min()), float(values.max())
    if mapping != MAP_LOGABS:
        raise ValueError(f"mapping must be one of {VALUE_MAPS}, got {mapping!r}")
    lows, highs = [], []
    for start in range(0, len(values), _PGM_ROWS):
        logs = _premapped(values[start : start + _PGM_ROWS], mapping)
        lows.append(logs.min())
        highs.append(logs.max())
    return float(np.min(lows)), float(np.max(highs))  # a nan propagates


def _map_block(values: np.ndarray, mapping: str, lo: float, hi: float) -> np.ndarray:
    """values sent to [0,1] by the map whose range is (lo, hi), as one new array."""
    if mapping == MAP_SIGNED:
        if hi == 0.0:
            return np.full_like(values, 0.5)
        unit = values + hi
        unit /= 2.0 * hi
        return unit
    unit = _premapped(values, mapping)
    span = hi - lo
    if span > 0.0:
        unit -= lo
        unit /= span
    else:
        unit.fill(0.0)
    return unit


def map_values(values: np.ndarray, mapping: str) -> tuple[np.ndarray, float, float]:
    """Map raw values to [0,1] per the chosen scheme; returns (unit, lo, hi).

    linear: [min, max] -> [0, 1].
    signed: symmetric about zero, [-M, M] -> [0, 1] with M = max|v|.
    logabs: ln(max(|v|, 1e-300)) then linear; the floor keeps zeros finite.

    unit is one new array, mapped in place; values is left unchanged.
    """
    lo, hi = _mapped_range(values, mapping)
    return _map_block(values, mapping, lo, hi), lo, hi


def grid_pgm_chunks(
    grid: PhaseSpaceGrid,
    mapping: str = MAP_SIGNED,
    bits: int = 8,
    header_comments: list[str] | None = None,
) -> Iterator:
    """The chunks of grid_to_pgm's bytes, in order, for atomic_write_chunks.
    The bits, the mapping and the mapped range are checked and found here,
    before the first chunk is asked for."""
    if bits not in (8, 16):
        raise ValueError(f"bits must be 8 or 16, got {bits}")
    lo, hi = _mapped_range(grid.values, mapping)
    maxval = (1 << bits) - 1
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

    def chunks() -> Iterator:
        yield head
        for start in range(0, len(grid.values), _PGM_ROWS):
            unit = _map_block(grid.values[start : start + _PGM_ROWS], mapping, lo, hi)
            unit *= maxval
            np.rint(unit, out=unit)
            yield unit.astype(">u2" if bits == 16 else np.uint8)

    return chunks()


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
    return b"".join(grid_pgm_chunks(grid, mapping, bits, header_comments))


def log_profile(values: np.ndarray) -> np.ndarray:
    """ln|W| with the 1e-300 floor, for superoscillation-panel profiles."""
    return np.log(np.maximum(np.abs(values), LOG_FLOOR))
