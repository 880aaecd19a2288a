"""Reference steering strategies the fused detector is compared against.

Two baselines bracket the design space.  Fault-tolerant averaging uses
every path but no detector: it sorts the reports, discards the single
largest and single smallest, and steers by the mean of the rest.  The
single-path detector uses only one path but a classical residual test:
the report is checked against the frequency prediction and either
steered on directly or rejected in favour of holdover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._dsloop import fill_reports
from ._util import centred_axis, left_sum, ols_slope, slope_on_axis
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


def fta_kept_order(link, meas, attacks) -> np.ndarray:
    """Each epoch's guess of the paths FTA keeps, in order: the reports less their offset sort so."""
    return np.argsort(link + meas + attacks, axis=1, kind="stable")[:, 1:-1]


def fta_block(state, lo, steps, paths, out) -> tuple:
    """Run one block of FTA epochs into ``out``; return ``(offset, correction)`` after it.

    ``state`` is ``(offset, correction)`` before the block, whose first
    epoch is ``lo``.  ``steps`` holds the block's true drift * tau, clock
    noise and jumps, ``paths`` its link noise, measurement noise and
    attacks, and ``out`` its offset, correction, report and flag columns;
    FTA flags no path.  The loop forms only the reports that
    :func:`fta_kept_order` guesses are kept.  One pass then runs
    :func:`fta_update` on every row, and the loop runs again after the first
    epoch whose correction differs in a bit, from that epoch's exact one.
    """
    offset, correction = state
    offsets, corrections, reports, _ = out
    n_kept = reports.shape[1] - 2
    order = fta_kept_order(*paths)
    kept = np.stack([np.take_along_axis(c, order, axis=1) for c in paths], axis=2)
    rows = list(zip(*(c.tolist() for c in steps), kept.reshape(len(order), -1).tolist()))
    start = 0
    while True:
        pass_offsets, pass_corrections = [], []
        for dt, w_o, jump, row in rows[start:]:
            offset = offset + correction + dt + w_o + jump
            it = iter(row)
            total = 0.0
            for w, v, a in zip(it, it, it):
                x = offset + w + v + a
                total += x
            # fta_update's clamp, between the first kept report and the last, x
            correction = -min(max(total / n_kept, offset + row[0] + row[1] + row[2]), x)
            pass_offsets.append(offset)
            pass_corrections.append(correction)
        offsets[start:], corrections[start:] = pass_offsets, pass_corrections
        fill_reports(reports[start:], offsets[start:], *(c[start:] for c in paths))
        # fta_update on every row: a stable sort, a fold from +0.0 and Python's max and min
        kept = np.sort(reports[start:], axis=1, kind="stable")[:, 1:-1]
        total = np.zeros(len(kept))
        for column in kept.T:
            total += column
        mean = np.where(kept[:, 0] > total / n_kept, kept[:, 0], total / n_kept)
        exact = -np.where(kept[:, -1] < mean, kept[:, -1], mean)
        wrong = np.flatnonzero(exact.view(np.int64) != corrections[start:].view(np.int64))
        if not len(wrong):
            return offset, correction
        # the corrections before it are exact, and so are its offset and reports
        start += wrong[0].item()
        offset, correction = offsets[start].item(), fta_update(reports[start].tolist())
        corrections[start] = correction
        start += 1


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
