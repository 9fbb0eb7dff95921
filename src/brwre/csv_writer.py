"""The CSV column writer.

Byte format: the meta line ends in LF, the header and every row end in CRLF;
integer and boolean columns are written with ``%d``, float columns with
``%.17g`` (17 significant digits, so doubles round-trip) and NaN as ``nan``.
:func:`write_blocks` formats blocks of ``BLOCK_ROWS`` rows in numpy: the
``%.17g`` digits of floats with 1e-4 <= |x| < 1e17 are computed exactly from
a double-double product (Dekker, "A floating-point technique for extending
the available precision", Numer. Math. 1971) and rounded half to even, the
correctly rounded result of Python's ``%`` (Gay's dtoa); every other float is
formatted by ``%`` itself.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

# Rows per formatted block: the writer's working set is one block's arrays
# (at most 1 MiB for atom rows), whatever the length of the file.  Blocks of
# 2^16 rows peak at 8 MiB, which the allocator returns to the operating system
# after each block: `brwre simulate` then took ten times the page faults.
BLOCK_ROWS = 1 << 13

_SPLITTER = 134217729.0  # 2^27 + 1


def _split(a):
    """Veltkamp's split ``a = hi + lo``, each half of at most 26 significant
    bits, so that products of halves are exact."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


# 10^0..10^20, exact doubles (10^s is exact up to s = 22), and their halves
_POW10 = np.array([float(10**s) for s in range(21)])
_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, e):
    """``a * 10^(16 - e)`` exactly, as ``hi + lo`` (Dekker's two-product, no FMA)."""
    s = 16 - e
    hi = a * _POW10[s]
    ah, al = _split(a)
    bh, bl = _POW10_HI[s], _POW10_LO[s]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _digit_planes(q, count: int) -> list:
    """The last ``count`` decimal digits of the unsigned array ``q``, most significant first."""
    digits = [None] * count
    for j in range(count - 1, -1, -1):
        r = q // 10
        digits[j] = (q - r * 10).astype(np.uint8)
        q = r
    return digits


def _int_chars(col):
    """Character planes of ``%d``: a sign slot, then digits with leading zeros blank."""
    v = col.astype(np.int64, copy=False)
    mag = np.abs(v).view(np.uint64)  # |int64 min| wraps to 2^63, which uint64 reads right
    top = int(mag.max())
    width = len(str(top))
    q = mag.astype(np.uint32) if top < 2**32 else mag
    chars = [(v < 0).view(np.uint8) * np.uint8(45)] if v.min() < 0 else []
    for j, d in enumerate(_digit_planes(q, width)):
        # digit j is a leading zero when the value has fewer than width - j digits
        chars.append((d + np.uint8(48)) * (j == width - 1 or q >= 10 ** (width - 1 - j)))
    return chars, None


def _float_chars(col):
    """Character planes of ``%.17g``, and the rows the exact digit path leaves out.

    For 1e-4 <= |x| < 1e17, ``%.17g`` is fixed notation with 17 significant
    digits.  With E = floor(log10 |x|), the digits are D = |x| * 10^(16-E)
    rounded half-even to an integer: E starts from ``log10`` and is corrected by
    exact comparisons of the two-product with 10^16 and 10^17, and since hi >=
    2^53 is an even integer, rounding lo half-even rounds hi + lo half-even.
    The planes are a sign, a ``0.000`` prefix for E < 0, then the 17 digits,
    with a point slot after each digit that is the units digit of some row;
    only digits up to the last nonzero one or the units digit are kept.  Every other value (zeros, nan, infinities,
    subnormals, |x| < 1e-4, |x| >= 1e17) is returned as ``(rows, texts)`` and
    written with Python's ``%.17g``.
    """
    x = col.astype(np.float64, copy=False)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    a[~fast] = 1.0
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    hi, lo = _scaled(a, e)
    off = (hi < 1e16) | ((hi == 1e16) & (lo < 0)) | (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if off.any():
        i = np.flatnonzero(off)
        e[i] += np.where(hi[i] > 1e16, 1, -1)
        hi[i], lo[i] = _scaled(a[i], e[i])
    # D < 10^17: the largest double below each power of ten from 1e-3 to 1e17
    # has 17-digit mantissa at most 99999999999999992, so no rounding carries
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    upper = d // 10**8
    lower = (d - upper * 10**8).astype(np.uint32)
    digits = _digit_planes(upper.astype(np.uint32), 9) + _digit_planes(lower, 8)

    e8 = e.astype(np.int8)
    last = e8.copy()  # index of the last kept digit: the units digit or a later nonzero one
    for j in range(1, 17):
        np.maximum(last, (digits[j] != 0) * np.int8(j), out=last)
    last[~fast] = -1
    neg = fast & (x < 0)
    chars = [neg.view(np.uint8) * np.uint8(45)] if neg.any() else []
    shown = e8[fast]
    emin, emax = (int(shown.min()), int(shown.max())) if shown.size else (0, -1)
    if emin < 0:
        lead = fast & (e8 < 0)
        chars += [lead * np.uint8(48), lead * np.uint8(46)]
        chars += [(lead & (e8 <= -1 - z)) * np.uint8(48) for z in range(1, -emin)]
    for j in range(17):
        chars.append((digits[j] + np.uint8(48)) * (last >= j))
        if max(emin, 0) <= j <= min(emax, 15):
            chars.append(((e8 == j) & (last > j)) * np.uint8(46))
    slow = np.flatnonzero(~fast)
    if not slow.size:
        return chars, None
    chars += [0] * (24 - len(chars))  # room for the longest %.17g text
    return chars, (slow, [b"%.17g" % v for v in x[slow].tolist()])


def format_rows(columns) -> bytes:
    """CSV bytes of one block of equal-length 1-D columns: ``%d`` for integer and
    bool columns, ``%.17g`` for float columns, rows ending in CRLF.

    Every character position of a row is one plane of a ``(width, rows)``
    uint8 matrix in which 0 means "no character"; the matrix is transposed
    and the zeros are dropped.
    """
    planes, slow = [], []
    for i, col in enumerate(columns):
        if i:
            planes.append(44)
        chars, left_out = (_float_chars if col.dtype.kind == "f" else _int_chars)(col)
        if left_out is not None:
            slow.append((len(planes), *left_out))
        planes += chars
    planes += [13, 10]
    matrix = np.empty((len(planes), len(columns[0])), dtype=np.uint8)
    for row, plane in zip(matrix, planes):
        row[...] = plane
    rows = np.ascontiguousarray(matrix.T)
    for start, idx, texts in slow:
        rows[:, start : start + 24].view("S24")[idx, 0] = texts
    return rows.tobytes().translate(None, b"\0")


def write_csv(path: str, header: List[str], columns, meta: str) -> None:
    """Write the ``meta`` line, the ``header`` and one row per entry of the
    equal-length 1-D ``columns``, formatted in blocks of ``BLOCK_ROWS`` rows."""
    write_blocks(path, header, [columns], meta)


def write_blocks(path: str, header: List[str], blocks: Iterable, meta: str) -> None:
    """Write the ``meta`` line, the ``header`` and the rows of ``blocks``, an
    iterable of column blocks (each a sequence of equal-length 1-D columns,
    with the same column types in every block), in order.

    The rows are regrouped into formatted blocks of ``BLOCK_ROWS`` rows, so
    the bytes and the formatting calls do not depend on how ``blocks`` splits
    them, and only one formatted block's rows are held at a time.
    """
    with open(path, "wb") as fh:
        fh.write(f"{meta}\n{','.join(header)}\r\n".encode())
        for block in _regrouped(blocks):
            fh.write(format_rows(block))


def _regrouped(blocks):
    """The rows of ``blocks`` in blocks of ``BLOCK_ROWS`` rows, the last one shorter."""
    pending, rows = [], 0  # column pieces of the block being filled
    for block in blocks:
        block = [np.asarray(c) for c in block]
        size, start = len(block[0]), 0
        while size - start >= BLOCK_ROWS - rows:
            stop = start + BLOCK_ROWS - rows
            pending.append([c[start:stop] for c in block])
            yield _joined(pending)
            pending, rows, start = [], 0, stop
        if start < size:
            pending.append([c[start:] for c in block])
            rows += size - start
    if rows:
        yield _joined(pending)


def _joined(pieces):
    return pieces[0] if len(pieces) == 1 else [np.concatenate(c) for c in zip(*pieces)]
