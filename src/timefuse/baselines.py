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
from dataclasses import dataclass, replace
from typing import Sequence

from ._util import left_sum, ols_slope
from .clocksim import NoiseConfig
from .evidence import threshold_for_false_alarm

__all__ = [
    "SingleDetectorState",
    "fta_update",
    "make_single_state",
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


def make_single_state(
    noise: NoiseConfig,
    p_false_alarm: float,
    two_sided: bool = False,
    window: int = 30,
) -> SingleDetectorState:
    """Initial detector state for steering on path 0 of ``noise``.

    The residual of a steered clock against its frequency prediction
    carries the current link+measurement noise, the same noise injected
    by the previous epoch's correction, and one phase-walk increment.
    """
    sigma = math.sqrt(
        2.0 * (noise.sigma_link[0] ** 2 + noise.sigma_meas[0] ** 2) + noise.sigma_offset**2
    )
    return SingleDetectorState(
        threshold=threshold_for_false_alarm(sigma, p_false_alarm, two_sided),
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
            replace(
                state,
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
        replace(
            state,
            drift=drift,
            window=window,
            cum_correction=state.cum_correction + correction,
            epoch=state.epoch + 1,
        ),
    )
