"""The epoch loop of a DS run, one block of epochs at a time.

A *calm* epoch -- past the warm-up window, no attack and no clock jump,
no path in quarantine and a clean epoch before it -- is steered by the
mean of all its reports, with no frequency fit and no quiet test.  After
each block, one vectorised pass fits the calm epochs' drift * tau
exactly and runs the evidence kernel over the block; a calm epoch with a
positive log-odds sends the rest of the block back through the exact
path.  :func:`~timefuse.harness.run_scenario` calls :func:`ds_block`.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from ._util import centred_axis, left_sum, slope_on_axis, slopes_on_axis
from .fusion import LogOddsKernel


class DsState(NamedTuple):
    """The DS loop's state between two epochs."""

    offset: float  # the true clock offset
    correction: float  # the last epoch's correction
    cum_correction: float  # every correction so far, added left to right
    z_history: deque  # the last ``window`` steered offsets, for the frequency fit
    quarantine_left: list  # per path, the epochs it stays out of the steering mean
    clean: bool  # the last epoch flagged no path, and no path is in quarantine


class DsRun(NamedTuple):
    """What the blocks of one DS run share: its kernel and settings."""

    kernel: LogOddsKernel
    tau: float
    window: int
    time_axis: list  # the times of a window, from 0.0
    full_axis: tuple  # centred_axis(time_axis) of a full window, or None
    quarantine: int


def ds_epochs(run: DsRun, state: DsState, rows):
    """Run DS epochs from ``state``: ``(state, offsets, corrections, drift_taus, calm)``.

    A row holds one epoch's true drift * tau, clock noise, jump, link and
    measurement noise, attacks, and whether it may be calm.  An epoch that
    may be calm and follows a clean one is *calm*: it keeps every report,
    as a flag-free epoch with no path in quarantine does, so it needs
    neither the frequency fit nor the quiet test.  Its drift * tau is left
    at ``0.0`` and its index goes into ``calm``, for the caller to fit and
    check.  Any other epoch takes the exact path.
    """
    tau, window, quarantine = run.tau, run.window, run.quarantine
    time_axis, full_axis = run.time_axis, run.full_axis
    is_quiet, is_loud, epoch_sums = run.kernel.is_quiet, run.kernel.is_loud, run.kernel.epoch_sums
    n = run.kernel.n
    offset, correction, cum_correction, z_history, quarantine_left, clean = state
    z_history = deque(z_history, maxlen=window)  # the caller may restart from ``state``
    # stand in for the unknown row sums of a quiet (all <= 0) or loud (all > 0) epoch
    quiet_sums = [0.0] * n
    loud_sums = [1.0] * n
    offsets, corrections, drift_taus, calm = [], [], [], []
    for i, (dt, w_o, jump, link_row, meas_row, attack_row, may_be_calm) in enumerate(rows):
        offset = offset + correction + dt + w_o + jump
        if clean and may_be_calm:
            # the reports' left_sum, as the exact path adds them when it keeps all
            total = 0.0
            for w, v, a in zip(link_row, meas_row, attack_row):
                total += offset + w + v + a
            correction = -total / n
            drift_tau = 0.0
            calm.append(i)
        else:
            # a scenario's bounds keep every report finite, as is_quiet needs
            x = [offset + w + v + a for w, v, a in zip(link_row, meas_row, attack_row)]
            points = len(z_history)
            if points == window:
                drift_est = slope_on_axis(full_axis, z_history)
            elif points >= 2:
                drift_est = slope_on_axis(centred_axis(time_axis[:points]), z_history)
            else:
                drift_est = 0.0
            drift_tau = drift_est * tau
            if is_quiet(x, drift_tau):
                sums = quiet_sums
                clean = True
            elif is_loud(x, drift_tau):
                sums = loud_sums
                clean = False
            else:
                sums = epoch_sums(x, drift_tau)
                clean = max(sums) <= 0.0
            if sums is quiet_sums and not any(quarantine_left):
                kept = x  # what the filter below keeps on a quiet epoch
            elif sums is loud_sums:
                kept = ()  # and on a loud one
            else:
                kept = [o for o, s, q in zip(x, sums, quarantine_left) if not s > 0.0 and not q]
            correction = -left_sum(kept) / len(kept) if kept else -drift_tau
            if quarantine:
                quarantine_left = [
                    quarantine if s > 0.0 else max(q - 1, 0)
                    for s, q in zip(sums, quarantine_left)
                ]
                clean = clean and not any(quarantine_left)
        z_history.append(-correction - cum_correction)
        cum_correction += correction
        offsets.append(offset)
        corrections.append(correction)
        drift_taus.append(drift_tau)
    state = DsState(offset, correction, cum_correction, z_history, quarantine_left, clean)
    return state, offsets, corrections, drift_taus, calm


def steered_offsets(state: DsState, corrections: list) -> tuple:
    """``(zs, cums)`` of the epochs after ``state`` with ``corrections``, as the loop forms them.

    ``zs`` is the state's window of steered offsets followed by one per
    epoch, ``-correction - cum_correction``; ``cums[j]`` is the sum of the
    corrections before epoch ``j``.  ``np.add.accumulate`` adds left to
    right, from the state's sum, as the loop does.
    """
    c = np.array(corrections, dtype=float)
    cums = np.add.accumulate(np.concatenate(([state.cum_correction], c)))
    return np.concatenate((np.array(state.z_history, dtype=float), -c - cums[:-1])), cums


def ds_block(run: DsRun, state: DsState, lo: int, steps, paths, out) -> DsState:
    """Run one block of DS epochs, from epoch ``lo``, into ``out``; return the state after it.

    ``steps``, ``paths`` and ``out`` are those of
    :func:`~timefuse.baselines.fta_block`, and ``out`` holds the block's
    drift * tau and log-odds columns after its flags.
    """
    offsets, corrections, measured, flags, drift_taus, log_odds = out
    window = run.window
    jumps, attacks = steps[2], paths[2]
    may_be_calm = (
        (np.arange(lo, lo + len(jumps)) >= window) & (jumps == 0.0) & ~attacks.any(axis=1)
    ).tolist()
    columns = [c.tolist() for c in steps + paths]
    start = filled = 0  # the pass starts at `start`; rows before `filled` are final
    while True:
        rows = zip(*(c[start:] for c in columns), may_be_calm[start:])
        before = state
        state, pass_offsets, pass_corrections, pass_drift_taus, calm = ds_epochs(run, before, rows)
        offsets[start:], corrections[start:] = pass_offsets, pass_corrections
        drift_taus[start:] = pass_drift_taus
        calm_rows = np.array(calm, dtype=np.int64)
        if calm:
            zs, cums = steered_offsets(before, pass_corrections)
            # calm epoch i fits the window of the `window` steered offsets before it
            starts = calm_rows + (len(before.z_history) - window)
            fits = slopes_on_axis(run.full_axis, zs, starts)
            drift_taus[start + calm_rows] = fits * run.tau
        fill_reports(measured[filled:], offsets[filled:], *(c[filled:] for c in paths))
        log_odds[filled:] = run.kernel(measured[filled:], drift_taus[filled:])
        flagged = (log_odds[start + calm_rows] > 0.0).any(axis=1)
        if not flagged.any():
            np.greater(log_odds, 0.0, out=flags)
            return state
        k = calm[int(flagged.argmax())]
        filled = start + k
        # run again on the exact path from calm epoch `filled`, with the state
        # the exact path had there: no path in quarantine, and the epoch before clean
        state = DsState(
            offsets[filled - 1].item() if k else before.offset,
            corrections[filled - 1].item() if k else before.correction,
            cums[k].item(),
            deque(zs[: len(before.z_history) + k].tolist(), maxlen=window),
            [0] * run.kernel.n,
            True,
        )
        start = filled
        may_be_calm = [False] * len(may_be_calm)


def fill_reports(out, true_offsets, link, meas, attacks) -> None:
    """Every path's report, added in place in the epoch loop's order of additions."""
    np.add(true_offsets[:, None], link, out=out)
    out += meas
    out += attacks
