"""Deterministic file export: CSV grids/cuts and binary PGM graymaps.

All floats are written with %.17g (round-trip exact), all newlines are '\n',
and every writer streams into a temp file beside the output and puts it in
place only when it is complete, so an error, an interrupt or a kill leaves
the whole old output or the whole new one, never a part.  Nothing is
fsynced, so nothing is promised across a power loss or an OS crash.
Identical inputs produce byte-identical files.

A grid is a PhaseSpaceGrid, whose values are held, or a GridRows, which
evaluates each block of rows when it is asked for it; both give
rows(start, stop).  Every grid writer reads a grid in the one partition of
wigner._row_blocks, max(2, _BLOCK_VALUES // np) rows a block with a one-row
tail joined to the block before it, so the CSV, the PGM and eval_grid read
the bits of the same products (see the wigner module).  A grid export is a
stream of chunks written into the temp file one at a time, so no whole-file
copy is held, and from a GridRows no whole grid either: a 1536^2 grid peaks
at about 3.5 MB of Python allocations as CSV and 2 MB as 16-bit PGM, and
the CLI's 2049 x 8192 PGM at about 2.5 MB.  One writer,
atomic_write_chunks, creates every output file and puts it in place: the
CLI gives it grid_pgm_chunks and, through write_grid_csv, a grid's CSV
chunks, which two processes may share (below).
grid_to_csv, cut_to_csv and grid_to_pgm collect the same chunks into one
object; the CSV collectors append each chunk to one bytearray as it comes.
A temp file is created with O_EXCL under a random .tmp-export- name and mode
0666, so it gets the mode a plain open() would, 0666 less the umask, without
the umask being read.

A finished temp file takes the output's name in one of two ways.  On Linux,
when the output is an existing regular file, renameat2(RENAME_EXCHANGE)
(through ctypes) swaps the two names, and the temp name, which then holds
the previous version, is unlinked; an interrupt between the two leaves the
new output and removes the old one.  Anything else is renamed onto with
os.replace: no output yet, a directory (which raises, as open() would) or
a symlink (the link is replaced, not its target), another OS, a libc
without renameat2, or a filesystem that refuses the exchange.  Both keep
the output whole at every instant.  The swap is faster on ext4: a rename
over an existing file makes ext4 write the new file back at once (its
auto_da_alloc heuristic), and unlinking the old one then waits for its
blocks to be freed, on a disk mounted with discard for the discard itself:
0.4-0.5 s for a 54 MB grid CSV on a 2-vCPU KVM guest.  The swap triggers
no writeback, so a version replaced within the kernel's writeback
interval is never written out and has no blocks to discard.  It also
skips the heuristic's partial guard against a power loss, which the code
never promised (no fsync), before or now.

CSV rows are formatted by numpy arithmetic a block at a time: each value's
17 significant digits come from an exact double-double product with a
table of powers of ten.  Its text is built in a 32-byte
record of four uint64 words, laid out so that the bytes "%.17g" writes for a
value touch each other: the sign, the "0." or "0.000" prefix and the lead
digit right-aligned in word 0 (the point after the lead), digits 2-17 in
words 1 and 2, and the exponent and separator left-aligned in word 3.  Words
0 and 3 come from tables indexed by the decimal exponent, words 1 and 2 from
a table of four-digit groups.  One AND with a keep mask per (%g layout,
digits shown) zeroes the point and the trailing zeros "%.17g" drops, and a
boolean mask of the nonzero bytes packs the rest.  The pack copies each run
of nonzero bytes on its own, so its time follows the runs as well as the
bytes: a value with 17 significant digits is one run, and the Fig. 1-2 grids
average 1.10 runs a value.  A value whose digits the block cannot settle
is formatted one by one with "%.17g": nan, +-inf, a value within 1e-9 of a
rounding tie, one whose log10 estimate of its decimal exponent misses next
to a power of ten, and one whose rounding carries into the next decade.
None of the Fig. 1-2 grid and cut values is one of these.  The formatter
owns a _Workspace of block-sized arrays that every step writes into in
place, so a block allocates only its text and a few index arrays.

The pack holds the GIL, so the text is formatted on the caller's thread
alone.  write_grid_csv instead forks one child on Linux when the process may
use two CPUs, runs no other Python thread and the grid spans at least
_FORK_BLOCKS blocks, when atomic_write_chunks asks its chunk generator
for the first chunk.  The parent yields the header and the first half of
the blocks while the child streams the second half, with its own
workspace, into an unnamed temp file (tempfile.TemporaryFile, made with
O_TMPFILE) and leaves through os._exit whatever happens.  From a GridRows
the child evaluates its own blocks from the small factors, so the two
processes share no page of the grid.  The parent then reaps the child and
yields its file as trailing chunks of at most shutil.COPY_BUFSIZE bytes.
On an error or an interrupt atomic_write_chunks removes its temp file and
closes the generator, whose finally kills and reaps a child still
running; a child that fails makes the parent raise ChildProcessError.  The
bytes are those of the one-process stream.  On a 2-core x86 VM, a fork, exit and wait takes 2-5 ms
in a 96 MB process and a block about 1 ms to format, so the fork pays from
about 12 blocks on and _FORK_BLOCKS is 16.  Copying the 27 MB half of
a fig2b grid from the page cache takes about 4 ms.

A PGM reads its grid twice: the mapped range is combined from each block's
extremes by numpy's min and max, so a nan or a zero gives what whole-array
reductions give (logabs takes the |v| extremes and the log of the two
floored extremes, as the log is monotonic); then each block is mapped,
rounded and cast to samples.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import shutil
import signal
import stat
import sys
import tempfile
import threading
import traceback
from collections.abc import Iterable, Iterator
from typing import NoReturn

import numpy as np

from .wigner import GridRows, GridWindow, PhaseSpaceGrid, _row_blocks

# what the grid writers read: a window and rows(start, stop)
Grid = PhaseSpaceGrid | GridRows

LOG_FLOOR = 1e-300

MAP_LINEAR = "linear"
MAP_SIGNED = "signed"
MAP_LOGABS = "logabs"
VALUE_MAPS = (MAP_LINEAR, MAP_SIGNED, MAP_LOGABS)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


@functools.cache
def _renameat2():
    """libc's renameat2 through ctypes on Linux, or None."""
    if sys.platform != "linux":
        return None
    renameat2 = getattr(ctypes.CDLL(None, use_errno=True), "renameat2", None)
    if renameat2 is not None:
        renameat2.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
        renameat2.restype = ctypes.c_int
    return renameat2


def _exchanged(tmp: str, path: str) -> bool:
    """Whether renameat2(RENAME_EXCHANGE) swapped the names tmp and path; it
    is tried only where path is an existing regular file."""
    renameat2 = _renameat2()
    try:
        if renameat2 is None or not stat.S_ISREG(os.lstat(path).st_mode):
            return False
    except OSError:  # os.replace reports it
        return False
    # AT_FDCWD is -100 and RENAME_EXCHANGE is 2 in Linux's ABI
    return renameat2(-100, os.fsencode(tmp), -100, os.fsencode(path), 2) == 0


def atomic_write_chunks(path: str, chunks: Iterable) -> None:
    """Write the bytes-like chunks, in order, to a new file under a random
    .tmp-export- name beside path, with a plain open()'s mode, and swap it
    with, or rename it onto, path (see the module docstring).  On any error
    or interrupt the temp file is removed and path is left as it was; a
    generator of chunks is closed either way, so its own cleanup runs."""
    directory = os.path.dirname(os.path.abspath(path))
    flags = os.O_RDWR | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = os.path.join(directory, ".tmp-export-" + os.urandom(6).hex())
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        if _exchanged(tmp, path):
            os.unlink(tmp)
        else:
            os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    finally:
        close = getattr(chunks, "close", None)
        if close is not None:
            close()


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
# inside the 1e-9 guard that sends a near-tie to the per-value "%.17g".

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


# A value's record is 32 bytes, four little-endian uint64 words, laid out so
# that the bytes "%.17g" writes for a value touch each other:
#   word 0: the sign and the "0." or "0.000" prefix, right-aligned against
#           the lead digit; the lead sits at byte 7 in the fixed forms of
#           1e-4 <= |v| < 1, which write no point after it, and otherwise at
#           byte 6 with the point in byte 7
#   word 1: digits 2-9        word 2: digits 10-17
#   word 3: the exponent text and separator, left-aligned ("e-05,",
#           "e+100,"), or the separator alone in the fixed forms; zeros after
# Words 0 and 3 come from tables indexed by X (and the sign and lead digit);
# words 1 and 2 from four-digit groups.  One AND with a keep mask per (%g
# layout, digits shown) zeroes the point and the trailing zeros %g drops, and
# word 3 needs none, so a value with 17 significant digits is one run of
# nonzero bytes, and packing the nonzero bytes gives the text.  In the fixed
# form with the point among the digits (1 <= X <= 15 and more than X + 1
# digits) the X digits after the lead move down one byte over the point's
# slot and the point goes after them.
_LEAD, _WIDTH = 6, 32
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
    zeros = np.cumprod(chars[:, ::-1] == ord("0"), axis=1).sum(axis=1)
    return chars.view(np.uint32).ravel().astype(np.uint64), zeros


@functools.cache
def _lead_words() -> np.ndarray:
    """Word 0, indexed by 20 (X - _X_MIN) + 10 negative + lead digit."""
    # one row per class of X: the fixed forms of X = -1..-4, then the rest
    rows = [[(sign + b"0." + b"0" * zeros + b"%d" % d).rjust(8, b"\0")
             for sign in (b"", b"-") for d in range(10)] for zeros in range(4)]
    rows.append([(sign + b"%d." % d).rjust(8, b"\0") for sign in (b"", b"-") for d in range(10)])
    table = np.frombuffer(b"".join(b"".join(r) for r in rows), np.uint64).reshape(5, 20)
    x = np.arange(_X_MIN, _X_MAX + 1)
    return table.take(np.where((x >= -4) & (x <= -1), -1 - x, 4), axis=0).ravel()


@functools.cache
def _exponent_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indexed by X - _X_MIN: word 3 with the separator "," and with "\\n"
    ("e-324," ... ",", "e+308,"), and 17 times the layout plus 16, the
    layout's part of the keep-table key."""
    words = [b"".join((b"%c" % sep if -4 <= k <= 16 else b"e%+03d%c" % (k, sep)).ljust(8, b"\0")
                      for k in range(_X_MIN, _X_MAX + 1)) for sep in b",\n"]
    x = np.arange(_X_MIN, _X_MAX + 1)
    layout = np.where((x < -4) | (x > 16), 21 + (np.abs(x) >= 100), x + 4)
    return np.frombuffer(words[0], np.uint64), np.frombuffer(words[1], np.uint64), 17 * layout + 16


@functools.cache
def _keep_table() -> tuple[np.ndarray, np.ndarray]:
    """The keep masks (uint64, 4 words, word 3 all ones) of each (layout, s)
    key, s the significant digits, and whether the key's point sits among the
    digits."""
    layout, s = (a.reshape(-1, 1) for a in np.indices((_LAYOUTS, 17)))
    s = s + 1
    x = layout - 4
    fixed = layout <= 20
    pos = np.arange(_WIDTH)
    # digit k >= 2 sits at _LEAD + k
    digit = np.where((pos > _LEAD + 1) & (pos < 3 * 8), pos - _LEAD, 0)
    # fixed form shows every integer digit
    shown = np.where(fixed & (x >= 0), np.maximum(s, x + 1), s)
    inside = fixed & (x >= 1) & (s > x + 1)
    point = (s > 1) & (~fixed | (x == 0) | inside)
    keep = (
        (pos <= _LEAD)  # word 0 holds no byte %g does not write
        | (pos == _LEAD + 1) & (point | fixed & (x < 0))  # the point, or a fixed lead
        | (digit > 0) & (digit <= shown)
        | (pos >= 3 * 8)  # nor does word 3
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


class _Workspace:
    """The block-sized scratch arrays of one formatting stream (each process
    of a forked grid CSV has its own): every temporary of _format_values and
    _scaled is written into these in place, block after block."""

    def __init__(self, n: int):
        self.rec = np.empty((n, _WIDTH // 8), np.uint64)  # the value records
        self.floats = np.empty((7, n))
        self.ints = np.empty((4, n), np.int64)
        self.int32 = np.empty((2, n), np.int32)
        self.words = np.empty((4, n), np.uint64)
        self.flags = np.empty((2, n), bool)
        # the digit split, then the pack's mask of kept bytes, reuse the
        # float temporaries' memory: no float is alive after the rounding
        self.groups = self.floats[:6].view(np.int64).reshape(3, 2, n)
        self.mask = self.floats.reshape(-1).view(bool)[: n * _WIDTH]

    def cut(self, n: int) -> _Workspace:
        """The workspace of the first n values, views of this one's arrays."""
        if n == len(self.rec):
            return self
        ws = object.__new__(_Workspace)
        ws.rec, ws.mask = self.rec[:n], self.mask[: n * _WIDTH]
        for name in ("floats", "ints", "groups", "int32", "words", "flags"):
            setattr(ws, name, getattr(self, name)[..., :n])
        return ws


def _split(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Dekker's split of a double into two 26-bit halves, a = hi + lo."""
    np.multiply(a, 134217729.0, out=hi)  # c = (2^27 + 1) a
    np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)  # c - (c - a)
    np.subtract(a, hi, out=lo)


def _scaled(m: np.ndarray, e: np.ndarray, k: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Floor (int64) and fraction of m 2^e 10^(k + _K_MIN), in ws.ints[1] and
    ws.floats[6]; m, e and k lie outside what it writes: ws.floats[1:],
    ws.ints[1:3] and ws.int32[1]."""
    h, lo, ex = _pow10()
    top, mh, ml, hh, hl, rest = ws.floats[1:]
    whole, below = ws.ints[1:3]
    shift = ws.int32[1]
    hk = h.take(k, out=rest, mode="clip")
    np.multiply(m, hk, out=top)
    _split(m, mh, ml)
    _split(hk, hh, hl)
    # err = ((mh hh - top) + mh hl + ml hh) + ml hl, into rest
    np.multiply(mh, hh, out=rest)
    rest -= top
    rest += np.multiply(mh, hl, out=mh)
    rest += np.multiply(ml, hh, out=hh)
    rest += np.multiply(ml, hl, out=hl)
    np.add(e, ex.take(k, out=shift, mode="clip"), out=shift)  # int32: ldexp is much slower on int64
    np.ldexp(top, shift, out=top)  # hi
    rest += np.multiply(m, lo.take(k, out=mh, mode="clip"), out=mh)
    np.ldexp(rest, shift, out=rest)
    np.floor(top, out=hh)  # whole
    rest += np.subtract(top, hh, out=top)
    np.floor(rest, out=top)  # below
    np.copyto(whole, hh, casting="unsafe")
    np.copyto(below, top, casting="unsafe")
    whole += below
    np.subtract(rest, top, out=rest)
    return whole, rest


def _trailing(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Trailing zeros of digits 2-17 from their four-digit groups, (2, n)
    each for digits 2-9 and 10-17: a zero group passes the count on."""
    zeros = _digit_tables()[1]
    z = zeros.take(right) + (right == 0) * zeros.take(left)
    return z[1] + (z[1] == 8) * z[0]


def _one_by_one(values: np.ndarray) -> list[bytes]:
    """The "%.17g" text of each value, one Python float at a time: only nan,
    +-inf, near-ties, log10 misses next to a power of ten and carries into
    the next decade take this path."""
    return [b"%.17g" % v for v in values.tolist()]


def _format_values(v: np.ndarray, ws: _Workspace, ncols: int) -> np.ndarray:
    """The %.17g text (uint8) of each value of v, rows of ncols values, each
    value followed by ',' or, at a row's end, '\\n'.  ws is a _Workspace of
    at least v.size values."""
    n = v.size
    ws = ws.cut(n)
    a, est = ws.floats[:2]
    k, _, head, z = ws.ints
    e = ws.int32[0]
    flag, neg = ws.flags
    np.abs(v, out=a)
    irregular = nonfinite = None
    if not (a.min() > 0.0 and a.max() < np.inf):  # a nan fails both
        finite = np.isfinite(v)
        nonfinite = np.flatnonzero(~finite)
        irregular = np.flatnonzero(~(finite & (a > 0.0)))
        a[irregular] = 1.0
    np.log10(a, out=est)
    np.floor(est, out=est)  # X
    np.subtract(16 - _K_MIN, est, out=est)
    np.copyto(k, est, casting="unsafe")  # 16 - X - _K_MIN, the pow10 index
    m = a
    np.frexp(a, out=(m, e))
    whole, frac = _scaled(m, e, k, ws)
    np.subtract(frac, 0.5, out=est)
    np.abs(est, out=est)
    up = np.greater(frac, 0.5, out=flag)
    fallback = np.empty(0, np.intp)
    # a near-tie, a log10 estimate of X one off next to a power of ten, or a
    # carry into the next decade is formatted one by one; a zero, laid out
    # as 1, has whole = 10^16 and stays
    if est.min() < 1e-9 or whole.min() < 10**16 or whole.max() >= 10**17 - 1:
        fallback = np.flatnonzero((est < 1e-9) | (whole < 10**16) | (whole + up >= 10**17))
    digits = whole
    digits += up
    if irregular is not None:
        digits[irregular] = 0  # +-0 prints as one digit, X = 0
        k[irregular] = 16 - _K_MIN
        fallback = np.concatenate((nonfinite, fallback))
    at = np.subtract(16 - _K_MIN - _X_MIN, k, out=k)  # the X tables' index

    # words 1 and 2 from four-digit groups, word 0 from the lead digit
    four = _digit_tables()[0]
    groups, left, right = ws.groups
    np.floor_divide(digits, 10**8, out=head)  # digits 1-9
    np.subtract(digits, np.multiply(head, 10**8, out=groups[1]), out=groups[1])
    np.floor_divide(head, 10**8, out=digits)  # the lead digit
    np.subtract(head, np.multiply(digits, 10**8, out=groups[0]), out=groups[0])
    np.floor_divide(groups, 10**4, out=left)  # the first four digits of each group
    np.subtract(groups, np.multiply(left, 10**4, out=right), out=right)
    w = ws.words
    four.take(right, out=w[1:3], mode="clip")
    np.left_shift(w[1:3], np.uint64(32), out=w[1:3])
    w[1:3] |= four.take(left, out=groups.view(np.uint64), mode="clip")
    index = np.multiply(at, 20, out=head)
    index += digits
    index += np.multiply(np.signbit(v, out=neg), 10, out=digits)
    _lead_words().take(index, out=w[0], mode="clip")

    # word 3, and the keep-table key 17 layout + 16 - trailing zeros
    separated, ended, key_base = _exponent_tables()
    separated.take(at, out=w[3], mode="clip")
    w[3, ncols - 1 :: ncols] = ended.take(at[ncols - 1 :: ncols])
    trailing = _digit_tables()[1].take(right[1], out=z, mode="clip")
    key = np.subtract(key_base.take(at, out=digits, mode="clip"), trailing, out=digits)
    if trailing.max() == 4:  # digits 14-17 are zero: count on
        deep = np.flatnonzero(trailing == 4)
        key[deep] = key_base.take(at[deep]) - _trailing(left[:, deep], right[:, deep])
    keep, inside = _keep_table()
    if at.max() > -_X_MIN:  # X >= 1: the point may sit among the digits
        moved = np.flatnonzero(inside.take(key))
        if moved.size:
            held = w[:3, moved]
            shifted = held >> np.uint64(8)
            shifted[:2] |= held[1:] << np.uint64(56)
            take, stay, point = _point_moves()[:, :, at.take(moved) + _X_MIN]
            w[:3, moved] = shifted & take | held & stay | point
    rec = keep.take(key, axis=0, out=ws.rec, mode="clip")
    for j in range(4):
        rec[:, j] &= w[j]

    chars = rec.view(np.uint8)
    if fallback.size:
        for i, text in zip(fallback, _one_by_one(v.take(fallback))):
            chars[i] = 0
            chars[i, : len(text) + 1] = np.frombuffer(text + (b"\n" if i % ncols == ncols - 1 else b","), np.uint8)
    chars = chars.ravel()
    return chars[np.not_equal(chars, 0, out=ws.mask)]


# blocks a grid must span before write_grid_csv forks (see the module
# docstring): a fork costs 2-5 ms, a block about 1 ms to format
_FORK_BLOCKS = 16


def cpu_count() -> int:
    """CPUs in this process's affinity mask; a CPU quota is not seen here.
    write_grid_csv forks only when this is at least 2: on one CPU the child
    would only add the cost of the fork and of appending its half."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _csv_chunks(head: bytes, rows, blocks: list[tuple[int, int]], ncols: int) -> Iterator:
    """head, then the text of each block of rows, each row a line of ncols
    %.17g values: rows(start, stop) gives the values of a (start, stop) of
    blocks, and every block is formatted in one workspace."""
    yield head
    workspace = _Workspace(max((stop - start for start, stop in blocks), default=0) * ncols)
    for start, stop in blocks:
        yield _format_values(np.asarray(rows(start, stop), dtype=np.float64).ravel(), workspace, ncols)


def _joined(chunks: Iterable) -> bytearray:
    """The bytes-like chunks in one buffer, each appended as it comes."""
    text = bytearray()
    for chunk in chunks:
        text += memoryview(chunk)  # += of an ndarray would broadcast, not append
    return text


def _header(header_comments: list[str] | None, *lines: str) -> bytes:
    """The '# ' comment lines, then the given lines."""
    text = "".join(f"# {c}\n" for c in header_comments or [])
    text += "".join(f"{line}\n" for line in lines)
    return text.encode("utf-8")


def _grid_head(w: GridWindow, header_comments: list[str] | None) -> bytes:
    bounds = ",".join([_fmt(w.x_min), _fmt(w.x_max), _fmt(w.p_min), _fmt(w.p_max), str(w.nx), str(w.np)])
    return _header(header_comments, "x_min,x_max,p_min,p_max,nx,np", bounds)


def _write_and_exit(fd: int, grid: Grid, blocks: list[tuple[int, int]]) -> NoReturn:
    """In a forked child: write the text of the grid's blocks to the file
    open at fd, then leave through os._exit, with status 0 only if every
    byte was written."""
    status = 1
    try:
        with open(fd, "wb", closefd=False) as fh:
            for chunk in _csv_chunks(b"", grid.rows, blocks, grid.window.np):
                fh.write(chunk)
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)


def write_grid_csv(path: str, grid: Grid, header_comments: list[str] | None = None) -> None:
    """Write grid_to_csv's text to path through atomic_write_chunks, one
    block of rows at a time.  On Linux, when the process may use two CPUs,
    runs no other Python thread and the grid spans at least _FORK_BLOCKS
    blocks, a forked child formats the second half of the blocks meanwhile
    and its text follows as trailing chunks (see the module docstring)."""
    w = grid.window
    head = _grid_head(w, header_comments)
    blocks = _row_blocks(w.nx, w.np)
    half = len(blocks) // 2

    def forked() -> Iterator:
        with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))) as part:
            pid = 0
            try:
                pid = os.fork()
                if pid == 0:
                    _write_and_exit(part.fileno(), grid, blocks[half:])
                yield from _csv_chunks(head, grid.rows, blocks[:half], w.np)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pid = 0
                if status != 0:
                    raise ChildProcessError(
                        f"the forked writer of CSV rows {blocks[half][0]}:{w.nx} exited with status {status}"
                    )
            finally:
                if pid:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            part.seek(0)
            while chunk := part.read(shutil.COPY_BUFSIZE):
                yield chunk

    # a fork copies no thread, so a lock another thread holds stays locked
    # in the child; Windows has no fork, and macOS's system frameworks are
    # not safe to use in a forked child
    forkable = threading.active_count() == 1 and sys.platform == "linux"
    if len(blocks) < _FORK_BLOCKS or cpu_count() < 2 or not forkable:
        atomic_write_chunks(path, _csv_chunks(head, grid.rows, blocks, w.np))
    else:
        atomic_write_chunks(path, forked())


def grid_to_csv(grid: Grid, header_comments: list[str] | None = None) -> bytearray:
    """Serialize a grid: comment lines, the six-field lattice header row, then
    nx rows of np comma-separated values (row-major)."""
    w = grid.window
    return _joined(_csv_chunks(_grid_head(w, header_comments), grid.rows, _row_blocks(w.nx, w.np), w.np))


def cut_to_csv(
    coords: np.ndarray,
    values: np.ndarray,
    axis: str,
    header_comments: list[str] | None = None,
    value_label: str = "W",
) -> bytearray:
    """Serialize a 1-D profile as '<axis>,<value_label>' rows."""
    head = _header(header_comments, f"{axis},{value_label}")
    rows = np.column_stack((coords, values))
    return _joined(_csv_chunks(head, lambda start, stop: rows[start:stop], _row_blocks(*rows.shape), 2))


def _mapped_range(blocks: Iterable[np.ndarray], mapping: str) -> tuple[float, float]:
    """The (lo, hi) that the map sends to (0, 1), from the extremes of each
    block of values (the rows of a 2-D array will do), combined by numpy's
    min and max, so that a nan propagates as in a whole-array reduction.

    linear: [min, max].  signed: symmetric about zero, [-M, M] with
    M = max|v|.  logabs: ln(max(|v|, 1e-300)) then linear; the floor keeps
    zeros finite, and as the log is monotonic the range is the log of the
    floored |v| extremes."""
    if mapping not in VALUE_MAPS:
        raise ValueError(f"mapping must be one of {VALUE_MAPS}, got {mapping!r}")
    lows, highs = [], []
    for block in blocks:
        a = np.abs(block) if mapping == MAP_LOGABS else block
        lows.append(a.min())
        highs.append(a.max())
    lo, hi = np.min(lows), np.max(highs)
    if mapping == MAP_SIGNED:
        m = float(np.maximum(hi, -lo))  # max|v|, no |v| array
        return (-0.0, 0.0) if m == 0.0 else (-m, m)
    if mapping == MAP_LOGABS:
        lo, hi = log_profile(np.array([lo, hi]))
    return float(lo), float(hi)


def _map_block(values: np.ndarray, mapping: str, lo: float, hi: float) -> np.ndarray:
    """values sent to [0,1] by the map whose range is (lo, hi), as one new
    array: (v - lo) / (hi - lo), where logabs first floors |v| and takes its
    log.  A zero span sends every value to 0.5 under the signed map and to 0
    under the others."""
    span = hi - lo
    if not span > 0.0:
        return np.full(values.shape, 0.5 if mapping == MAP_SIGNED else 0.0)
    if mapping == MAP_LOGABS:
        unit = log_profile(values)
        unit -= lo
    else:
        unit = np.subtract(values, lo, dtype=np.float64)
    unit /= span
    return unit


def grid_pgm_chunks(
    grid: Grid,
    mapping: str = MAP_SIGNED,
    bits: int = 8,
    header_comments: list[str] | None = None,
) -> Iterator:
    """The chunks of grid_to_pgm's bytes, in order, for atomic_write_chunks.
    The bits, the mapping and the mapped range are checked and found here,
    before the first chunk is asked for."""
    if bits not in (8, 16):
        raise ValueError(f"bits must be 8 or 16, got {bits}")
    w = grid.window
    blocks = _row_blocks(w.nx, w.np)
    lo, hi = _mapped_range((grid.rows(start, stop) for start, stop in blocks), mapping)
    maxval = (1 << bits) - 1
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
        for start, stop in blocks:
            unit = _map_block(grid.rows(start, stop), mapping, lo, hi)
            unit *= maxval
            np.rint(unit, out=unit)
            yield unit.astype(">u2" if bits == 16 else np.uint8)

    return chunks()


def grid_to_pgm(
    grid: Grid,
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
    """ln max(|v|, 1e-300), the logabs map and panel profiles, as one new array."""
    out = np.abs(values, dtype=np.float64)
    np.maximum(out, LOG_FLOOR, out=out)
    return np.log(out, out=out)
