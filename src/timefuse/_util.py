"""Small numerical helpers shared across modules."""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Iterable, Sequence

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


def norm_cdf(t: float) -> float:
    """CDF of the standard normal distribution."""
    return _STD_NORMAL.cdf(t)


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


def ols_slope(ts: Sequence[float], xs: Sequence[float]) -> float:
    """Ordinary least-squares slope of ``xs`` against ``ts``.

    Requires at least two points and a non-degenerate time axis.
    """
    if len(ts) < 2 or len(ts) != len(xs):
        raise ValueError("need at least two (t, x) pairs of equal length")
    return slope_on_axis(centred_axis(ts), xs)
