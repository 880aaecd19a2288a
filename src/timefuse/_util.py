"""Small numerical helpers shared across modules."""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Iterable, Sequence

import numpy as np

_STD_NORMAL = NormalDist()


def logistic(t: float) -> float:
    """Numerically stable standard logistic 1 / (1 + exp(-t))."""
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def norm_quantile(p: float) -> float:
    """Quantile (inverse CDF) of the standard normal distribution."""
    return _STD_NORMAL.inv_cdf(p)


def left_sum(xs: Iterable[float]) -> float:
    """Floats of ``xs`` added strictly left to right, starting at ``0.0``.

    The builtin ``sum`` of floats is compensated from Python 3.12 on and
    plain before it, so its last bits depend on the interpreter; a run
    must be the same on every supported version.
    """
    total = 0.0
    for x in xs:
        total += x
    return total


def centred_axis(ts: Sequence[float]) -> tuple:
    """``(dts, sxx)``: the time axis minus its mean and its sum of squares.

    This is the part of an ordinary least-squares fit that depends only on
    the timestamps, so a caller fitting many series on one axis computes
    it once and passes it to :func:`slope_on_axis`.
    """
    t_mean = math.fsum(ts) / len(ts)
    dts = [t - t_mean for t in ts]
    sxx = 0.0
    for dt in dts:
        sxx += dt * dt
    if sxx == 0.0:
        raise ValueError("degenerate time axis: all timestamps identical")
    return dts, sxx


def slope_on_axis(axis: tuple, xs: Sequence[float]) -> float:
    """Least-squares slope of ``xs`` against a :func:`centred_axis`."""
    dts, sxx = axis
    if len(xs) != len(dts):
        raise ValueError("need one value per timestamp")
    x_mean = math.fsum(xs) / len(xs)
    sxy = 0.0
    for dt, x in zip(dts, xs):
        sxy += dt * (x - x_mean)
    return sxy / sxx


#: Bits in the low part of a value split for :func:`window_sums`.
_LOW_BITS = 40


def window_sums(xs: np.ndarray, w: int, starts: np.ndarray) -> np.ndarray:
    """``math.fsum(xs[s : s + w])`` for each ``s`` in ``starts``, bit for bit.

    ``fsum`` rounds the exact sum once.  Every value whose exponent is
    within ``spread = 40 - w.bit_length()`` of the largest is a whole
    number of units ``2**unit``, below ``2**(53 + spread)`` of them.  It
    splits into a high part and a low part of 40 bits, whose prefix sums
    over the series are exact in int64, so each window's sum is exactly
    ``hi * 2**40 + lo`` with ``|hi| < 2**53``.  One float addition rounds
    that once.  Scaling by ``2**unit`` then rounds nothing: a sum below
    the normal range is a multiple of ``2**-1074`` with at most 52
    significant bits, which the float holds exactly.  The windows are
    consecutive runs of one series, so this costs O(1) a window where
    ``fsum`` costs O(w).

    ``fsum`` itself sums a window that holds a non-finite value or a
    value too small for the units, or whose sum is zero (its sign is
    ``fsum``'s to choose).  It sums every window when a window's
    magnitudes could add up past the float range, where ``fsum`` raises
    ``OverflowError`` even if the exact sum fits.
    """
    finite = np.isfinite(xs)
    mantissas, exponents = np.frexp(np.where(finite, xs, 0.0))
    nonzero = mantissas != 0.0
    spread = _LOW_BITS - w.bit_length()
    top = int(exponents[nonzero].max()) if nonzero.any() else 0
    unit = top - spread - 53
    if top + w.bit_length() <= 1023:
        shift = exponents - (top - spread)
        declined = ~finite | (nonzero & (shift < 0))
        shift = np.clip(shift, 0, spread).astype(np.int64)
        whole = (mantissas * 2.0**53).astype(np.int64)  # the value is whole * 2**(unit - shift)
        down = _LOW_BITS - shift
        hi = whole >> down
        lo = (whole - (hi << down)) << shift

        def window(values):
            prefix = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
            return prefix[starts + w] - prefix[starts]

        lo_sums = window(lo)
        hi_sums = window(hi) + (lo_sums >> _LOW_BITS)
        low = (lo_sums & (2**_LOW_BITS - 1)).astype(float)
        sums = np.ldexp(hi_sums.astype(float) * 2.0**_LOW_BITS + low, unit)
        rest = np.flatnonzero((window(declined) > 0) | (sums == 0.0))
    else:
        sums = np.empty(len(starts))
        rest = range(len(starts))
    points = xs.tolist() if len(rest) else None
    for k in rest:
        s = int(starts[k])
        sums[k] = math.fsum(points[s : s + w])
    return sums


def slopes_on_axis(axis: tuple, xs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Item ``k`` is ``slope_on_axis(axis, xs[s : s + W])`` for ``s = starts[k]``, bit for bit.

    ``xs`` is a 1-D series and each window holds the ``W = len(dts)``
    values from a start on.  These are the same IEEE operations in the
    same order: each window's ``fsum`` mean (:func:`window_sums`), then
    the left fold of ``dt * (x - mean)`` from ``0.0`` as W additions of
    one term of every window, then the division by ``sxx``.
    ``np.add.reduce`` would add the terms pairwise.
    """
    dts, sxx = axis
    w = len(dts)
    means = window_sums(xs, w, starts) / w
    # row j holds the j-th value of every window
    terms = (xs[np.add.outer(np.arange(w), starts)] - means) * np.array(dts)[:, None]
    sxy = np.zeros(len(starts))
    for row in terms:
        sxy += row
    return sxy / sxx


def settle(offsets: np.ndarray, steps: tuple, correction_of) -> np.ndarray:
    """Solve a block's steering recurrence in place from a guess; return its corrections.

    The clock's true offset advances as ``o[k+1] = (((o[k] + c[k]) +
    dt[k+1]) + w[k+1]) + jump[k+1]``, where ``steps`` is ``(dt, w, jump)``
    and the correction ``c[k]`` depends on ``o[k]`` alone:
    ``correction_of(o[at], at)`` gives the corrections of epochs ``at``
    (ascending indices) from their offsets, row by row.  ``offsets`` holds
    a guess whose first value is exact.  The first pass corrects every
    epoch; each round after it recomputes ``o[k+1]`` only where ``o[k]``
    changed in the round before, compares by bit pattern and corrects
    only the epochs that changed.  It stops when no bit changes.

    A fixed point whose first offset is exact is the scalar loop's
    trajectory, by induction on ``k``.  After round ``r`` the offsets up
    to ``r`` are exact, so the solve makes at most ``len(offsets)`` calls
    of ``correction_of`` for any guess, NaN and infinities included.
    """
    dt, noise, jumps = steps
    last = len(offsets) - 1
    at = np.arange(len(offsets))
    corrections = correction_of(offsets, at)
    while True:
        at = at[at < last]
        nxt = at + 1
        new = (((offsets[at] + corrections[at]) + dt[nxt]) + noise[nxt]) + jumps[nxt]
        moved = new.view(np.int64) != offsets[nxt].view(np.int64)
        at = nxt[moved]
        if not len(at):
            return corrections
        offsets[at] = new[moved]
        corrections[at] = correction_of(offsets[at], at)


def ols_slope(ts: Sequence[float], xs: Sequence[float]) -> float:
    """Ordinary least-squares slope of ``xs`` against ``ts``.

    Requires at least two points and a non-degenerate time axis.
    """
    if len(ts) < 2 or len(ts) != len(xs):
        raise ValueError("need at least two (t, x) pairs of equal length")
    return slope_on_axis(centred_axis(ts), xs)
