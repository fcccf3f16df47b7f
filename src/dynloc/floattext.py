"""Event-log text in array form: each column formatted once into fixed-width bytes, rows laid out in numpy blocks.

Event logs print most of their cells as floats, and formatting each one with
``repr``, then joining the cells of each row, was most of the time spent
writing them.  Here nothing runs per row or per value in Python:

* :func:`repr_bytes` is ``repr(v).encode()`` of a whole float array, bit for
  bit, as one NUL-padded ``S24`` array;
* :func:`column_cells` formats a column once per run of equal values, as an
  ``S`` array as wide as its longest cell;
* :func:`csv_blocks` lays the cells of a table side by side in one ``uint8``
  block of ``BLOCK`` rows at a time, with the commas and line ends between
  them, and yields the text of a fixed number of rows at a time.

Nothing else in the package needs it, so :mod:`dynloc.experiments` imports
this module only when it writes an event log.
"""

from __future__ import annotations

import sys
from typing import Iterator, Sequence

import numpy as np

from .geometry import veltkamp_split

__all__ = ["BLOCK", "column_cells", "csv_blocks", "repr_bytes"]

# Values per repr_bytes call when formatting a column, and rows per block when laying rows out: a
# larger block spreads each call's fixed numpy overhead over more values, but holds more scratch.
BLOCK = 2048
# 10**k is a double exactly for k <= 22.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = np.empty(23)
_POW10_LO = np.empty(23)
veltkamp_split(_POW10, _POW10_HI, _POW10_LO)
_POW10_INT = np.array([10**k for k in range(19)], dtype=np.int64)
_DOT, _NUL = 10000, 10001  # items of _GROUP_CODES after the 4-digit groups 0000-9999


def _group_codes() -> np.ndarray:
    """The ASCII text of each 4-digit group, then ``".\\0\\0\\0"`` and four NULs, as one ``uint32`` item each."""
    digits = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits %= 10
    digits += ord("0")
    text = np.zeros((10002, 4), dtype=np.uint8)
    text[:10000] = digits
    text[_DOT, 0] = ord(".")
    codes = text.view(np.uint32).reshape(-1)
    codes.setflags(write=False)
    return codes


_GROUP_CODES = _group_codes()


def _text_window(text: np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-byte string that starts at a byte of ``text``, as one ``S`` array on its memory."""
    flat = text.reshape(-1)
    return np.ndarray(buffer=flat, dtype=f"S{width}", shape=(max(flat.size - width + 1, 0),), strides=(1,))


def _scaled(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(K, A, f, H, H_lo)`` for magnitudes ``a`` in [1e-4, 1e16): ``a * 10**K == A + f`` exactly.

    ``K = 16 - floor(log10 a)``, ``A`` is an ``int64`` and ``f`` is in [0, 1).
    ``H`` and ``H_lo`` are half the gaps from ``a`` to the next doubles up and
    down, times ``10**K``.
    """
    n = a.size
    P, p, a_hi, a_lo, P_hi, P_lo, err, floor = np.empty((8, n))
    K, A = np.empty((2, n), dtype=np.int64)
    f, H, H_lo = np.empty((3, n))
    e = np.empty(n, dtype=np.intc)
    np.log10(a, out=err)
    np.floor(err, out=err)
    np.subtract(16.0, err, out=err)
    np.copyto(K, err, casting="unsafe")
    np.take(_POW10, K, out=P)
    np.take(_POW10_HI, K, out=P_hi)
    np.take(_POW10_LO, K, out=P_lo)
    # a * P == p + err exactly (Dekker's two-product), and p is an integer above 2**53.
    np.multiply(a, P, out=p)
    veltkamp_split(a, a_hi, a_lo)
    np.multiply(a_hi, P_hi, out=err)
    err -= p
    np.multiply(a_hi, P_lo, out=floor)
    err += floor
    np.multiply(a_lo, P_hi, out=floor)
    err += floor
    np.multiply(a_lo, P_lo, out=floor)
    err += floor
    np.floor(err, out=floor)
    np.subtract(err, floor, out=f)
    np.copyto(A, p, casting="unsafe")
    A += floor.astype(np.int64)
    # a = m * 2**e with m in [0.5, 1); the gap below a power of two (m == 0.5) is half the gap above.
    np.frexp(a, out=(err, e))
    e -= 54
    np.ldexp(P, e, out=H)
    np.copyto(H_lo, H)
    np.multiply(H_lo, 0.5, out=H_lo, where=err == 0.5)
    return K, A, f, H, H_lo


def _shortest_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(q, frac, decpt, odd)``: ``repr``'s digits of each value as the integer ``q``, value = ``q * 10**-frac``.

    ``decpt`` is the decimal point position (value = 0.d1d2... * 10**decpt).
    ``odd`` marks the lanes left to :func:`repr`; see :func:`repr_bytes`.
    """
    n = values.size
    a = np.abs(values)
    odd = a >= 1e-4
    odd &= a < 1e16
    np.logical_not(odd, out=odd)
    # 1.0 stands in for the lanes repr prints, so every lane computes in range.
    a[odd] = 1.0
    K, A, f, H, H_lo = _scaled(a)
    q, frac, decpt = np.empty((3, n), dtype=np.int64)
    ints = np.empty((5, n), dtype=np.int64)
    J, r, pw, top, bot = ints
    d_lo, d_up = np.empty((2, n))
    flag, up = np.empty((2, n), dtype=bool)
    # The integers in [X - H_lo, X + H] are those in (bot, top].
    np.add(f, H, out=d_up)
    np.floor(d_up, out=d_up)
    np.copyto(top, d_up, casting="unsafe")
    top += A
    np.subtract(f, H_lo, out=d_up)
    np.ceil(d_up, out=d_up)
    np.copyto(bot, d_up, casting="unsafe")
    bot += A
    bot -= 1
    # J: the largest j with a multiple of 10**j in (bot, top].  A level without one has none
    # above it, so J counts the levels with one.
    J.fill(0)
    bounds = ints[3:]  # top and bot
    for _ in range(17):
        bounds //= 10
        np.greater(top, bot, out=flag)
        if not flag.any():
            break
        J += flag
    # The multiples of 10**J around X: q * 10**J, d_lo below X, and (q + 1) * 10**J, d_up above.
    np.take(_POW10_INT, J, out=pw)
    np.floor_divide(A, pw, out=q)
    np.multiply(q, pw, out=r)
    np.subtract(A, r, out=r)
    np.add(r, f, out=d_lo)
    np.subtract(pw, r, out=r)
    np.subtract(r, f, out=d_up)
    # repr prints a lane with a candidate on an edge or with both equally near.  (In range an
    # edge is an integer only from 2**53 up, and there it is never the nearer candidate.)  On
    # every other lane one candidate lies strictly inside, and q + 1 is the digits when q does
    # not or when q + 1 is nearer: when only q lies inside, d_up >= H >= H_lo > d_lo.
    np.equal(d_lo, H_lo, out=flag)
    odd |= flag
    np.equal(d_up, H, out=flag)
    odd |= flag
    np.equal(d_lo, d_up, out=flag)
    odd |= flag
    np.greater_equal(d_lo, H_lo, out=flag)
    np.less(d_up, d_lo, out=up)
    up |= flag
    q += up
    # value = q * 10**(J - K); decpt is 17 - K, one more when q * 10**J carried to 10**17
    # and one less when it is below 1e16.
    np.subtract(K, J, out=frac)
    np.multiply(q, pw, out=r)
    np.subtract(17, K, out=decpt)
    np.greater_equal(r, 10**17, out=flag)
    decpt += flag
    np.less(r, 10**16, out=flag)
    decpt -= flag
    return q, frac, decpt, odd


def _digit_rows(q: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """One row of 16 groups of 4 ASCII bytes per value ``q * 10**-frac`` (``q < 10**17``, ``frac <= 20``).

    The groups hold the integer part as 20 digits, ``".\\0\\0\\0"``, the
    fraction digits ``q % 10**frac`` as 20 digits (0 when ``frac <= 0``), and NULs.
    """
    n = q.size
    groups = np.empty((5, 2, n), dtype=np.intp)  # the 4-digit groups of the integer part and of the fraction
    whole, fraction = groups[4]
    pw = np.take(_POW10_INT, np.clip(frac, 0, 18))
    np.floor_divide(q, pw, out=whole)
    np.multiply(whole, pw, out=pw)
    np.subtract(q, pw, out=fraction)
    whole *= np.take(_POW10_INT, np.maximum(-frac, 0))
    carry = np.empty((2, n), dtype=np.intp)
    for g in range(4, 0, -1):
        np.floor_divide(groups[g], 10000, out=groups[g - 1])
        np.multiply(groups[g - 1], 10000, out=carry)
        groups[g] -= carry
    rows = np.empty((n, 16), dtype=np.uint32)
    rows[:, 0:5] = _GROUP_CODES[groups[:, 0].T]
    rows[:, 5] = _GROUP_CODES[_DOT]
    rows[:, 6:11] = _GROUP_CODES[groups[:, 1].T]
    rows[:, 11:] = _GROUP_CODES[_NUL]
    return rows.view(np.uint8)


def _fixed_text(q: np.ndarray, frac: np.ndarray, decpt: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The text ``[-]I.F`` of each value ``q * 10**-frac`` with ``q < 10**17``, ``frac <= 20``, ``decpt`` in [-3, 16].

    ``I`` is the integer part, ``F`` the ``frac`` fraction digits or ``"0"``.
    In each row of :func:`_digit_rows`, the last ``nf`` digits of ``F`` and
    the NULs after them move up to the ``"."``, and NULs fill the row up to
    column 44.  The ``ni`` digits of ``I`` end at column 19, so the text
    starts at ``20 - ni``, or one column earlier for the sign, and a 24-byte
    window from there reads it, NUL-padded, as one ``S24`` item.
    """
    n = q.size
    text = _digit_rows(q, frac)
    start = np.arange(0, text.size, text.shape[1])
    nf = np.maximum(frac, 1)
    text[:, 21:41] = _text_window(text, 20)[start + 44 - nf].view(np.uint8).reshape(n, 20)
    text[:, 41:44] = 0
    start += 20
    start -= np.maximum(decpt, 1)
    start -= negative
    text.reshape(-1)[start[negative]] = ord("-")
    return _text_window(text, 24)[start]


def repr_bytes(values: np.ndarray) -> np.ndarray:
    """``repr(v).encode()`` of each value of a float64 array, bit for bit, as one NUL-padded ``S24`` array.

    ``repr`` prints the shortest digits that read back as the value, the
    nearest to it among those, in fixed notation when the decimal point
    position ``decpt`` (value = 0.d1d2... * 10**decpt) has -4 < decpt <= 16.
    For |v| in [1e-4, 1e16), :func:`_shortest_digits` finds those digits
    with integer arithmetic:

    * ``X = |v| * 10**K`` with ``K = 16 - floor(log10|v|)`` lies near
      [1e16, 1e17].  ``10**K`` is a double exactly, so Dekker's two-product
      gives X exactly, as an ``int64`` ``A`` plus a fraction ``f`` in [0, 1).
    * A decimal reads back as v when it lies strictly inside
      ``(X - H_lo, X + H)``: ``H = 10**K * 2**(e - 54)`` is half the gap to
      the next double up (``|v| = m * 2**e``, m in [0.5, 1)) and ``H_lo`` the
      half gap below, ``H / 2`` at a power of two.  ``H`` is between 0.55 and
      12, so the nearest integer always lies inside.  ``f``, ``H`` and
      ``H_lo`` are multiples of ``2**-48`` or coarser, so their sums with
      small integers are exact.
    * The digits are the multiple of ``10**J`` nearest to X for the largest
      ``J`` that puts one inside; ``J`` is found one level at a time with
      ``int64`` division, until no lane has a multiple at the next level.

    In this range ``decpt`` is in [-3, 16], so :func:`_fixed_text` lays the
    digits out in fixed notation.  Lanes outside it (zero, subnormal,
    infinite, NaN, or too large or small for fixed notation) go through
    :func:`repr` one at a time.  So do lanes with a candidate exactly on the
    interval's edge, where ``repr`` breaks the tie by the last bit of the
    double, and lanes with two candidates equally near.  Every lane does when
    Python's ``float_repr_style`` is not ``"short"``.  No ``repr`` is longer
    than 24 characters (``-2.2250738585072014e-308``).
    """
    if sys.float_repr_style != "short":
        return np.array(list(map(repr, values.tolist())), dtype="S24")
    q, frac, decpt, odd = _shortest_digits(values)
    out = _fixed_text(q, frac, decpt, np.signbit(values))
    lanes = np.flatnonzero(odd)
    out[lanes] = list(map(repr, values[lanes].tolist()))
    return out


def column_cells(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(text, bounds)``: the CSV cell of each run of equal values in ``col``, and where the runs start and end.

    Rows compare bit for bit, a float column through its ``int64`` view, so
    ``-0.0`` never joins a run of ``0.0`` and NaNs never merge.  Each run is
    formatted once: a float as ``repr`` of the Python float, through
    :func:`repr_bytes` ``BLOCK`` values at a time; any other value as its
    ``str``, which is a string itself and an integer's ``repr``.  ``text`` is
    an ``S`` array as wide as its longest cell (at least 1), shorter cells
    NUL-padded.  Run ``i`` is rows ``bounds[i]`` to ``bounds[i + 1] - 1``, so
    ``bounds[-1]`` is the row count.
    """
    if not col.size:
        return np.zeros(0, dtype="S1"), np.zeros(1, dtype=np.intp)
    bits = col.view(np.int64) if col.dtype.kind == "f" else col
    bounds = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1], [True])))
    values = col[bounds[:-1]]
    if values.dtype.kind == "f":
        text = np.empty(values.size, dtype="S24")
        for first in range(0, values.size, BLOCK):
            text[first : first + BLOCK] = repr_bytes(values[first : first + BLOCK])
    else:  # flags and state names: few distinct values, each formatted once
        distinct, index = np.unique(values, return_inverse=True)
        text = np.array(list(map(str, distinct.tolist())), dtype="S")[index]
    # Cells are left-aligned: the last byte column that holds a character anywhere ends the widest cell.
    width = text.itemsize
    chars = text.view(np.uint8).reshape(text.size, width)
    while width > 1 and not chars[:, width - 1].any():
        width -= 1
    return text.astype(f"S{width}"), bounds


def csv_blocks(columns: Sequence[tuple[np.ndarray, np.ndarray]], write_rows: int) -> Iterator[str]:
    """The CSV rows of ``columns``, :func:`column_cells` of one row count each, ``write_rows`` rows a string.

    Rows are laid out in one ``uint8`` block of ``BLOCK`` rows (whole
    strings of ``write_rows``) at a time: each column's cells at a fixed
    offset, a comma after each and ``"\\n"`` after the last.  A column where
    every row is a run of its own is copied in by a slice; any other repeats
    each cell of the runs the block meets over its rows in the block.  The
    text of each ``write_rows`` slice is the slice without its NUL padding.
    So beside the cells only one block is held, ``BLOCK`` times the widest
    row in bytes, and nothing the size of the whole table.
    """
    rows = int(columns[0][1][-1])
    step = max(BLOCK // write_rows, 1) * write_rows
    sizes = [text.itemsize for text, _ in columns]
    stops = np.cumsum(sizes) + np.arange(len(sizes))  # where each cell's comma or line end goes
    block = np.zeros((min(step, rows), stops[-1] + 1), dtype=np.uint8)
    block[:, stops] = ord(",")
    block[:, -1] = ord("\n")
    # One S view per column onto its cells' bytes in the block.
    fields = [block[:, stop - size : stop].view(f"S{size}")[:, 0] for size, stop in zip(sizes, stops)]
    for first in range(0, rows, step):
        last = min(first + step, rows)
        for (text, bounds), field in zip(columns, fields):
            if text.size == rows:  # every row is a run of its own
                field[: last - first] = text[first:last]
            else:  # runs lo..hi-1 hold rows first..last-1; each cell repeats over its rows among them
                lo, hi = np.searchsorted(bounds, (first, last - 1), "right") - (1, 0)
                cuts = np.concatenate(((first,), bounds[lo + 1 : hi], (last,)))
                field[: last - first] = text[lo:hi].repeat(np.diff(cuts))
        for start in range(0, last - first, write_rows):
            part = block[start : min(start + write_rows, last - first)]
            yield str(part[part != 0], "ascii")
