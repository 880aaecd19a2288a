"""Exact ``%d``/``%.3f`` formatting of CSV rows of doubles, in numpy.

:class:`RowKernel` gives the bytes that ``"%d,%.3f,...\\n" % row`` gives
for every row of a chunk of doubles, without a Python call per cell.
The run CSV writer (:func:`timefuse.harness.write_run_csv`) formats its
rows with it and falls back on that row template for a block the kernel
declines.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def largest_formattable() -> float:
    """The largest double ``v`` whose ``K = round(|v| * 1000)`` is below 2**53."""
    v = math.nextafter(2**53 / 1000, math.inf)
    while round(Fraction(v) * 1000) >= 2**53:  # ``round`` of a Fraction is half-even
        v = math.nextafter(v, 0.0)
    return v


_U64 = np.uint64
#: Bit patterns of ``|v|`` above this belong to a double with K >= 2**53,
#: an infinity or a NaN.
_KERNEL_TOP = np.array(largest_formattable()).view(_U64)[()]
#: Bytes 1-6 of a cell word: its six digit slots.
_DIGIT_SLOTS = _U64(0x0030303030303000)
#: A cell's 4-byte tail by ``1000 * kind + F``: ``"ddd,"`` and ``"ddd\n"``
#: for a ``%.3f`` cell whose fraction F is ddd (kinds 0 and 1), and ``","``
#: and ``"\n"`` for a ``%d`` cell, whose F is 0 (kinds 2 and 3).
_TAILS = np.array(
    [int.from_bytes(b"%03d%c" % (f, sep), "little") for sep in b",\n" for f in range(1000)]
    + [sep for sep in b",\n" for _ in range(1000)],
    dtype=np.uint32,
)
#: Most cells one chunk of :class:`RowKernel` formats.
_CHUNK_CELLS = 4096


def _digit_bytes(g: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out`` = the 8 decimal digits of ``g`` < 10**8, one per byte, most significant in byte 0.

    ``g`` is used as scratch.  The digits split within the 64-bit word:
    4 + 4 by an integer division, then 2 + 2 in each 32-bit lane and
    1 + 1 in each 16-bit lane by multiply-and-shift quotients
    (``x * 10486 >> 20 == x // 100`` for x < 10**4 and
    ``x * 103 >> 10 == x // 10`` for x < 100).
    """
    np.floor_divide(g, _U64(10_000), out=out)
    np.multiply(out, _U64(10_000), out=tmp)
    np.subtract(g, tmp, out=tmp)
    np.left_shift(tmp, _U64(32), out=tmp)
    np.bitwise_or(out, tmp, out=out)
    for divisor, scale, shift, lanes, width in (
        (100, 10486, 20, 0x0000007F0000007F, 16),
        (10, 103, 10, 0x000F000F000F000F, 8),
    ):
        np.multiply(out, _U64(scale), out=tmp)
        np.right_shift(tmp, _U64(shift), out=tmp)
        np.bitwise_and(tmp, _U64(lanes), out=tmp)
        np.multiply(tmp, _U64(divisor), out=g)
        np.subtract(out, g, out=out)
        np.left_shift(out, _U64(width), out=out)
        np.bitwise_or(out, tmp, out=out)


class RowKernel:
    """Formats CSV rows of doubles exactly as ``%d`` and ``%.3f`` cells do, a chunk at a time.

    A row has ``cells`` cells; those that the ``int_columns`` indices and
    slices pick are ``%d`` cells and the others ``%.3f``.  :meth:`format`
    turns up to ``chunk_rows`` rows into their bytes (cells joined by
    ``,``, each row ended by a newline), or declines with ``None``;
    :attr:`chunk` is scratch of that shape for the caller to fill.  It
    declines a chunk with a non-finite cell, a cell whose
    ``K = round(|v| * 1000)`` is 2**53 or more, or a ``%d`` cell that is
    not a non-negative integer.

    ``%.3f`` prints the exact binary value rounded half-even to three
    decimals, so the kernel computes K exactly, in 64-bit integers: from
    the bit pattern, ``|v| = m * 2**(f - 1075)`` with a 53-bit m and the
    biased exponent f; ``m * 1000 < 2**63``, and K is it shifted right by
    ``1075 - f`` with half-even rounding (a shift of 64 or more gives 0
    in numpy, so tiny values round to 0).  A valid ``%d`` cell's K is
    ``1000 * v``.  Below 2**53 the rest is exact too.  Each cell is laid
    out as one to three 8-byte words and a 4-byte tail:

    - a word has a slot for the sign (byte 0), six digit slots and a slot
      for the point (byte 7); one word holds the integer part
      ``K // 1000`` when the chunk's largest is below 10**6, and each
      further word six more digits.  The digits come from integer
      arithmetic on all cells at once (:func:`_digit_bytes`);
    - the tail is the fraction ``K % 1000`` and the separator for a
      ``%.3f`` cell, or the separator alone for a ``%d`` cell, looked up
      in ``_TAILS``.

    Every slot that ``%`` leaves empty is a zero byte: leading zeros, the
    sign of a non-negative cell, the point of a ``%d`` cell and the sign
    and point slots of the middle words.  ``bytes.translate`` then drops
    the zero bytes.  Chunks of at most ``_CHUNK_CELLS`` cells keep the
    scratch small; it is allocated once and reused for every chunk.
    """

    def __init__(self, cells: int, int_columns: tuple):
        self.chunk_rows = max(1, _CHUNK_CELLS // cells)
        shape = (self.chunk_rows, cells)
        self.chunk = np.empty(shape)
        self.ok = np.empty(shape, dtype=bool)
        self.words = np.empty((4,) + shape, dtype=_U64)
        self.out = np.empty(self.chunk_rows * cells * 3, dtype=np.uint32)  # a word and a tail
        self.int_columns = int_columns
        # per column: the offset of its kind in _TAILS, and the slots of the
        # units digit and, in a %.3f cell, the point
        self.tail_kind = np.zeros(cells, dtype=_U64)
        self.units_point = np.full(cells, 0x2E30 << 48, dtype=_U64)
        self.tail_kind[-1] = 1000
        for ints in int_columns:
            self.tail_kind[ints] += _U64(2000)
            self.units_point[ints] = 0x30 << 48

    def format(self, v: np.ndarray) -> bytes | None:
        """The rows of the ``(rows, cells)`` doubles ``v``, or ``None`` if a cell is declined."""
        r, c = v.shape
        ok = self.ok[:r]
        bits, k, g, tmp = (w[:r] for w in self.words)
        np.rint(v, out=tmp.view(np.float64))
        np.equal(tmp.view(np.float64), v, out=ok)
        if not all(ok[:, ints].all() for ints in self.int_columns):
            return None
        np.signbit(v, out=ok)
        if any(ok[:, ints].any() for ints in self.int_columns):
            return None
        np.bitwise_and(v.view(_U64), _U64(2**63 - 1), out=bits)
        if bits.max() > _KERNEL_TOP:
            return None
        # K = round(m * 1000 * 2**-s), half-even, from |v| = m * 2**(f - 1075)
        np.right_shift(bits, _U64(52), out=g)
        np.bitwise_and(bits, _U64(2**52 - 1), out=k)
        np.bitwise_or(k, _U64(2**52), out=k)
        np.multiply(k, _U64(1000), out=k)
        np.subtract(_U64(1074), g, out=g)  # s - 1
        np.left_shift(_U64(1), g, out=tmp)  # the half; 0 from s = 65 on, where K is 0
        np.subtract(tmp, _U64(1), out=tmp)  # wraps from 0, which the shift by s clears
        np.add(k, tmp, out=tmp)
        np.add(g, _U64(1), out=g)
        np.right_shift(k, g, out=k)
        np.bitwise_and(k, _U64(1), out=k)  # an odd quotient takes a tie up
        np.add(tmp, k, out=tmp)
        np.right_shift(tmp, g, out=k)
        # integer part I in g, fraction F in k, and the tails
        np.floor_divide(k, _U64(1000), out=g)
        np.multiply(g, _U64(1000), out=tmp)
        np.subtract(k, tmp, out=k)
        np.add(k, self.tail_kind, out=k)
        top = int(g.max())
        n_words = 1 if top < 10**6 else 2 if top < 10**12 else 3
        width = 2 * n_words + 1
        if self.out.size < r * c * width:
            self.out = np.empty(self.chunk_rows * c * width, dtype=np.uint32)
        out = self.out[: r * c * width]
        np.take(_TAILS, k.view(np.int64), out=out.reshape(r, c, width)[:, :, -1], mode="clip")
        group, word = bits, k
        for j in range(n_words):
            place = 10 ** (6 * (n_words - 1 - j))
            if n_words == 1:
                group = g
            else:
                np.floor_divide(g, _U64(place), out=group)
                np.remainder(group, _U64(10**6), out=group)
            _digit_bytes(group, word, tmp)
            np.right_shift(word, _U64(8), out=word)  # slots 1-6; slot 0 (10**6) is 0
            # the slots from the first nonzero digit on
            np.negative(word, out=tmp)
            np.bitwise_and(tmp, word, out=tmp)
            np.subtract(tmp, _U64(1), out=tmp)
            np.invert(tmp, out=tmp)
            np.bitwise_and(tmp, _DIGIT_SLOTS, out=tmp)
            if j:  # a digit in a higher word makes every slot count
                np.greater_equal(g, _U64(place * 10**6), out=ok)
                np.bitwise_or(tmp, _DIGIT_SLOTS, out=tmp, where=ok)
            if j == n_words - 1:
                np.bitwise_or(tmp, self.units_point, out=tmp)
            np.bitwise_or(word, tmp, out=word)
            if not j:
                np.right_shift(v.view(_U64), _U64(63), out=tmp)
                np.multiply(tmp, _U64(ord("-")), out=tmp)
                np.bitwise_or(word, tmp, out=word)
            cell_word = np.ndarray(
                (r, c), dtype=_U64, buffer=out, offset=8 * j, strides=(4 * width * c, 4 * width)
            )
            cell_word[...] = word
        return out.tobytes().translate(None, b"\0")
