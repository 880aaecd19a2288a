"""Reference steering strategies the fused detector is compared against.

Two baselines bracket the design space.  Fault-tolerant averaging uses
every path but no detector: it sorts the reports, discards the single
largest and single smallest, and steers by the mean of the rest.  The
single-path detector uses only one path but a classical residual test:
the report is checked against the frequency prediction and either
steered on directly or rejected in favour of holdover.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._dsloop import fill_reports
from ._util import centred_axis, left_sum, ols_slope, settle, slope_on_axis
from .clocksim import NoiseConfig
from .evidence import threshold_for_false_alarm

__all__ = [
    "SingleDetectorState",
    "fta_update",
    "make_single_state",
    "single_residual_sigma",
    "single_update",
]


def fta_update(offsets: Sequence[float]) -> float:
    """Fault-tolerant average: drop the extreme reports, steer by the mean of the rest.

    One maximum and one minimum are discarded (exactly one each, even
    under ties), which masks any single arbitrarily wrong path at the
    cost of a noisier estimate.  Requires at least three paths so the
    trimmed set is non-empty.  The mean is clamped into the range of the
    kept reports, which rounding can leave by an ulp (three equal values
    may average to one ulp above their value).
    """
    if len(offsets) < 3:
        raise ValueError("fault-tolerant averaging needs at least three paths")
    kept = sorted(offsets)[1:-1]
    mean = left_sum(kept) / len(kept)
    return -min(max(mean, kept[0]), kept[-1])


def fta_corrections(paths, offsets, at) -> np.ndarray:
    """:func:`fta_update` of the reports of epochs ``at``, given their true ``offsets``.

    ``paths`` holds the block's link noise, measurement noise and attacks.
    Each row is formed as the epoch loop forms it, then sorted stably,
    its kept columns folded from ``+0.0`` and clamped by ``np.where`` in
    the argument order of Python's ``max`` and ``min``, so every
    correction is :func:`fta_update`'s, bit for bit.
    """
    link, meas, attacks = (c.take(at, axis=0) for c in paths)
    kept = np.sort(((offsets[:, None] + link) + meas) + attacks, axis=1, kind="stable")[:, 1:-1]
    total = np.zeros(len(kept))
    for column in kept.T:
        total += column
    mean = total / kept.shape[1]
    mean = np.where(kept[:, 0] > mean, kept[:, 0], mean)
    return -np.where(kept[:, -1] < mean, kept[:, -1], mean)


def fta_block(state, lo, steps, paths, out) -> tuple:
    """Run one block of FTA epochs into ``out``; return ``(offset, correction)`` after it.

    ``state`` is ``(offset, correction)`` before the block, whose first
    epoch is ``lo``.  ``steps`` holds the block's true drift * tau, clock
    noise and jumps, ``paths`` its link noise, measurement noise and
    attacks, and ``out`` its offset, correction, report and flag columns;
    FTA flags no path.  The first offset is exact from ``state``; every
    later one is guessed ``0.0``, and :func:`~timefuse._util.settle`
    solves the block in vectorised fixed-point rounds of
    :func:`fta_corrections`.  A fixed point with an exact first offset is
    the per-epoch loop's trajectory, and a block of L epochs settles
    within L rounds.  A correction is ``-(offset + kept noise mean)`` up
    to rounding, so an offset one ulp off is mostly exact an epoch later:
    the 1,024-epoch blocks of ten six-hour fig5d runs settle in 5-19
    rounds.
    """
    offset, correction = state
    offsets, corrections, reports, _ = out
    dt, noise, jumps = steps
    offsets[0] = offset + correction + dt[0] + noise[0] + jumps[0]
    offsets[1:] = 0.0
    corrections[:] = settle(offsets, steps, functools.partial(fta_corrections, paths))
    fill_reports(reports, offsets, *paths)
    return offsets[-1].item(), corrections[-1].item()


@dataclass(frozen=True)
class SingleDetectorState:
    """Rolling state of the single-path residual detector.

    ``window`` holds ``(time_s, accumulated_offset)`` pairs for the
    epochs whose measurements passed the residual test; rejected epochs
    leave gaps, which is why explicit timestamps are kept.
    """

    threshold: float
    drift: float = 0.0
    window: tuple = ()
    window_len: int = 30
    cum_correction: float = 0.0
    epoch: int = 0


def single_residual_sigma(noise: NoiseConfig) -> float:
    """Standard deviation of the single-path detector's residual on path 0.

    The residual of a steered clock against its frequency prediction
    carries the current link+measurement noise, the same noise injected
    by the previous epoch's correction, and one phase-walk increment.
    """
    return math.sqrt(
        2.0 * (noise.sigma_link[0] ** 2 + noise.sigma_meas[0] ** 2) + noise.sigma_offset**2
    )


def make_single_state(
    noise: NoiseConfig,
    p_false_alarm: float,
    two_sided: bool = False,
    window: int = 30,
) -> SingleDetectorState:
    """Initial detector state for steering on path 0 of ``noise``."""
    return SingleDetectorState(
        threshold=threshold_for_false_alarm(
            single_residual_sigma(noise), p_false_alarm, two_sided
        ),
        window_len=window,
    )


def single_update(
    offset: float, state: SingleDetectorState, tau: float
) -> tuple:
    """Advance the single-path detector by one epoch.

    Returns ``(correction, flagged, new_state)``.  A measurement whose
    residual against the frequency prediction exceeds the threshold is
    rejected outright: the clock coasts on the prediction and neither the
    window nor the frequency estimate sees the suspect value.
    """
    prediction = state.drift * tau
    if abs(offset - prediction) > state.threshold:
        return (
            -prediction,
            True,
            SingleDetectorState(
                threshold=state.threshold,
                drift=state.drift,
                window=state.window,
                window_len=state.window_len,
                cum_correction=state.cum_correction - prediction,
                epoch=state.epoch + 1,
            ),
        )
    correction = -offset
    point = (state.epoch * tau, offset - state.cum_correction)
    window = (state.window + (point,))[-state.window_len :]
    drift = state.drift
    if len(window) >= 2:
        drift = ols_slope([t for t, _ in window], [z for _, z in window])
    return (
        correction,
        False,
        SingleDetectorState(
            threshold=state.threshold,
            drift=drift,
            window=window,
            window_len=state.window_len,
            cum_correction=state.cum_correction + correction,
            epoch=state.epoch + 1,
        ),
    )


def single_block(threshold, tau, axis, state, lo, steps, paths, out) -> tuple:
    """Run one block of Single epochs into ``out``; return the state after it.

    This is :func:`single_update` inlined, on path 0's report alone, with
    ``steps``, ``paths`` and ``out`` as in :func:`fta_block`.  ``state``
    is ``(offset, correction, drift_est, cum_correction, z_history, times)``:
    the detector's window of accepted accumulated offsets and their times
    are two deques bounded at ``window`` points.  ``axis`` is
    ``centred_axis`` of ``0 .. window - 1``, or ``None``.  The caller
    passes it only when ``tau == 1.0`` and ``window * n_epochs <= 2**53``:
    then a full window of consecutive epochs ``e0 ..`` has times that sum
    to an integer below ``2**53``, so their ``fsum`` mean is exactly
    ``e0 + (window - 1) / 2`` and every centred time is exact, the same
    double as on the fixed axis.
    """
    offset, correction, drift_est, cum_correction, z_history, times = state
    offsets, corrections, reports, flags = out
    block_offsets, block_corrections, block_flags = [], [], []
    rows = zip(*(c.tolist() for c in steps + tuple(c[:, 0] for c in paths)))
    for epoch, (dt, w_o, jump, w, v, a) in enumerate(rows, lo):
        offset = offset + correction + dt + w_o + jump
        x0 = offset + w + v + a
        prediction = drift_est * tau
        flagged = abs(x0 - prediction) > threshold
        if flagged:
            correction = -prediction
        else:
            correction = -x0
            times.append(epoch * tau)
            z_history.append(x0 - cum_correction)
            k = len(times)
            gap_free = times[-1] - times[0] == k - 1
            if axis is not None and k == times.maxlen and gap_free:
                drift_est = slope_on_axis(axis, z_history)
            elif k >= 2:
                drift_est = slope_on_axis(centred_axis(times), z_history)
        cum_correction += correction
        block_flags.append(flagged)
        block_offsets.append(offset)
        block_corrections.append(correction)
    offsets[:], corrections[:], flags[:, 0] = block_offsets, block_corrections, block_flags
    fill_reports(reports, offsets, *paths)
    return offset, correction, drift_est, cum_correction, z_history, times
