"""The epoch loop of a DS run, one block of epochs at a time.

An *event* epoch is one with an attack on any path or a clock jump.
Every epoch past the warm-up window that is not an event is steered by a
guess taken from the verdict of the last non-event epoch:

- *calm*, when that epoch flagged no path and no path is in quarantine:
  the mean of all the reports, with no frequency fit and no kernel call;
- *locked*, when that epoch flagged every path: holdover on the
  frequency fit, every path into quarantine, and no kernel call;
- *exact* otherwise, as are warm-up and event epochs: the fit, the
  kernel's row sums, the quarantine and the mean of the kept reports.

After each block, one vectorised pass fits the calm epochs' drift * tau
exactly and runs the evidence kernel over the block.  A calm epoch must
flag no path and a locked one every path; at the first that does not,
the block runs again from that epoch, exact there, and guessing resumes
after it.  Each failed guess makes at least one more epoch final, so a
block of L epochs takes at most L + 1 passes.
:func:`~timefuse.harness.run_scenario` calls :func:`ds_block`.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from ._util import centred_axis, left_sum, slope_on_axis, slopes_on_axis
from .fusion import LogOddsKernel

#: The verdicts of an epoch: no path flagged, every path flagged, or some.
CLEAR, ALL_FLAGGED, MIXED = "clear", "all flagged", "mixed"


class DsState(NamedTuple):
    """The DS loop's state between two epochs."""

    offset: float  # the true clock offset
    correction: float  # the last epoch's correction
    cum_correction: float  # every correction so far, added left to right
    z_history: deque  # the last ``window`` steered offsets, for the frequency fit
    quarantine_left: list  # per path, the epochs it stays out of the steering mean
    verdict: str  # of the last epoch that was not an event; MIXED before any


class DsRun(NamedTuple):
    """What the blocks of one DS run share: its kernel and settings."""

    kernel: LogOddsKernel
    tau: float
    window: int
    time_axis: list  # the times of a window, from 0.0
    full_axis: tuple  # centred_axis(time_axis) of a full window, or None
    quarantine: int


def ds_epochs(run: DsRun, state: DsState, rows):
    """Run DS epochs from ``state``: ``(state, offsets, corrections, drift_taus, calm, locked)``.

    A row holds one epoch's true drift * tau, clock noise, jump, link and
    measurement noise, attacks, whether it is an event, and whether it
    may be guessed (past the warm-up window and not an event).  A calm
    epoch's drift * tau is left at ``0.0`` and its index goes into
    ``calm``, for the caller to fit and check; ``locked`` maps a locked
    epoch's index to the quarantine counters it started with.
    """
    tau, window, quarantine = run.tau, run.window, run.quarantine
    time_axis, full_axis = run.time_axis, run.full_axis
    epoch_sums = run.kernel.epoch_sums
    n = run.kernel.n
    offset, correction, cum_correction, z_history, quarantine_left, verdict = state
    z_history = deque(z_history, maxlen=window)  # the caller may restart from ``state``
    held = [quarantine] * n  # every path's counter after a locked epoch
    offsets, corrections, drift_taus, calm, locked = [], [], [], [], {}
    calm_ok = verdict == CLEAR and not any(quarantine_left)  # a guess would be calm
    for i, (dt, w_o, jump, link_row, meas_row, attack_row, event, may_guess) in enumerate(rows):
        offset = offset + correction + dt + w_o + jump
        if may_guess and calm_ok:
            # the reports' left_sum, as the exact path adds them when it keeps all
            total = 0.0
            for w, v, a in zip(link_row, meas_row, attack_row):
                total += offset + w + v + a
            correction = -total / n
            drift_tau = 0.0
            calm.append(i)
        else:
            points = len(z_history)
            if points == window:
                drift_est = slope_on_axis(full_axis, z_history)
            elif points >= 2:
                drift_est = slope_on_axis(centred_axis(time_axis[:points]), z_history)
            else:
                drift_est = 0.0
            drift_tau = drift_est * tau
            if may_guess and verdict == ALL_FLAGGED:
                correction = -drift_tau
                locked[i] = quarantine_left
                quarantine_left = held
            else:
                x = [offset + w + v + a for w, v, a in zip(link_row, meas_row, attack_row)]
                sums = epoch_sums(x, drift_tau)
                kept = [o for o, s, q in zip(x, sums, quarantine_left) if not s > 0.0 and not q]
                correction = -left_sum(kept) / len(kept) if kept else -drift_tau
                if quarantine:
                    quarantine_left = [
                        quarantine if s > 0.0 else max(q - 1, 0)
                        for s, q in zip(sums, quarantine_left)
                    ]
                if not event:
                    if max(sums) <= 0.0:
                        verdict = CLEAR
                    else:
                        verdict = ALL_FLAGGED if min(sums) > 0.0 else MIXED
                calm_ok = verdict == CLEAR and not any(quarantine_left)
        z_history.append(-correction - cum_correction)
        cum_correction += correction
        offsets.append(offset)
        corrections.append(correction)
        drift_taus.append(drift_tau)
    state = DsState(offset, correction, cum_correction, z_history, quarantine_left, verdict)
    return state, offsets, corrections, drift_taus, calm, locked


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
    events = (jumps != 0.0) | attacks.any(axis=1)
    may_guess = ~events & (np.arange(lo, lo + len(jumps)) >= window)
    columns = [c.tolist() for c in steps + paths + (events, may_guess)]
    start = 0  # the pass starts at `start`; rows before it are final
    while True:
        before = state
        rows = zip(*(c[start:] for c in columns))
        state, pass_offsets, pass_corrections, pass_drift_taus, calm, locked = ds_epochs(
            run, before, rows
        )
        offsets[start:], corrections[start:] = pass_offsets, pass_corrections
        drift_taus[start:] = pass_drift_taus
        calm_rows = np.array(calm, dtype=np.int64)
        locked_rows = np.array(list(locked), dtype=np.int64)
        zs, cums = steered_offsets(before, pass_corrections)
        if calm:
            # calm epoch i fits the window of the `window` steered offsets before it
            starts = calm_rows + (len(before.z_history) - window)
            fits = slopes_on_axis(run.full_axis, zs, starts)
            drift_taus[start + calm_rows] = fits * run.tau
        fill_reports(measured[start:], offsets[start:], *(c[start:] for c in paths))
        log_odds[start:] = run.kernel(measured[start:], drift_taus[start:])
        positive = log_odds[start:] > 0.0
        # a calm epoch must flag no path, and a locked one every path
        wrong = np.concatenate(
            (
                calm_rows[positive[calm_rows].any(axis=1)],
                locked_rows[~positive[locked_rows].all(axis=1)],
            )
        )
        if not wrong.size:
            np.greater(log_odds, 0.0, out=flags)
            return state
        k = int(wrong.min())
        # run again from epoch `k`, exact there, with the state the loop had there
        state = DsState(
            offsets[start + k - 1].item() if k else before.offset,
            corrections[start + k - 1].item() if k else before.correction,
            cums[k].item(),
            deque(zs[: len(before.z_history) + k].tolist(), maxlen=window),
            locked.get(k, [0] * run.kernel.n),
            MIXED,
        )
        start += k


def fill_reports(out, true_offsets, link, meas, attacks) -> None:
    """Every path's report, added in place in the epoch loop's order of additions."""
    np.add(true_offsets[:, None], link, out=out)
    out += meas
    out += attacks
