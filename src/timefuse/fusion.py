"""Per-epoch path classification and clock-correction logic.

For each path the detector assembles one *self* residual -- the path's
reported offset minus the predicted frequency contribution -- and N-1
*cross* residuals against every other path's report.  Differencing two
paths cancels the shared clock terms, so a bias on either path shows up
in the difference; the self residual catches the case where every path
is biased the same way it is.  Each residual becomes an attack/normal
mass through its channel's calibration and the masses are fused with
Dempster's rule.  On the two-singleton frame that rule adds log-odds, and
the DS1/DS2 mass clamps clip each term, so one epoch is classified at
once: the N x N residual matrix (self residuals on the diagonal) goes
through the per-channel logistic shape, is clipped, and each row sums to
its path's fused log-odds.  A path is flagged when that sum is strictly
positive, i.e. when its fused attack mass exceeds one half.
:class:`LogOddsKernel` does this for batches of epochs; the variant only
picks its clip tables (``+-inf`` where it does not clip).  The DS loop
(:mod:`timefuse._dsloop`) runs it one epoch at a time only on the epochs
it does not guess, and on whole blocks to check its guesses.

The steering correction is the negated mean of the unflagged reports;
when everything is flagged the clock coasts on the frequency estimate
alone (holdover).  The frequency estimate itself is a least-squares
slope over a sliding window of an accumulated-offset series maintained
by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._util import left_sum, logistic, ols_slope
from .clocksim import NoiseConfig
from .evidence import (
    Calibration,
    DEFAULT_STEEPNESS_LOG_ODDS,
    VARIANTS,
    MassPair,
    calibrate,
)

__all__ = [
    "CalibrationSet",
    "EpochRecord",
    "FrequencyEstimate",
    "LogOddsKernel",
    "Verdict",
    "build_calibration_set",
    "classify_paths",
    "compute_update",
    "estimate_frequency",
    "fused_log_odds",
    "residual_sigmas",
    "residuals_for_path",
]


@dataclass(frozen=True)
class Verdict:
    """Fused assessment of one path at one epoch."""

    path_id: int
    epoch: int
    fused: MassPair
    flagged: bool


@dataclass(frozen=True)
class FrequencyEstimate:
    """Estimated fractional frequency offset (s/s) and the number of points used."""

    drift: float
    window: int


@dataclass(frozen=True)
class EpochRecord:
    """Everything the harness keeps from one epoch of a run."""

    epoch: int
    true_offset: float
    observations: tuple
    verdicts: tuple
    correction: float
    method: str

    def __post_init__(self) -> None:
        if len(self.observations) != len(self.verdicts):
            raise ValueError("need exactly one verdict per observation")


def _logit(p: float) -> float:
    """Log-odds of ``p``; a clamp at 0 or 1 clips nothing, so it maps to -inf/+inf."""
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class CalibrationSet:
    """Calibrations for every residual channel of an N-path detector.

    ``self_cal[i]`` covers path i's self residual; ``cross_cal`` maps the
    unordered pair ``(min(i, j), max(i, j))`` to the calibration of the
    i-vs-j cross residual.

    The same channels are also laid out as N x N tables for
    :func:`fused_log_odds`: cell ``(i, j)`` holds the i-vs-j cross channel
    and the diagonal holds the self channels.  ``steepness`` and
    ``midpoint`` give each channel's log-odds ``steepness * (r - midpoint)``
    for a residual ``r``; ``log_ceiling`` and ``log_floor`` are the
    log-odds of its mass clamps.
    """

    self_cal: tuple
    cross_cal: Mapping
    steepness: np.ndarray = field(init=False, repr=False, compare=False)
    midpoint: np.ndarray = field(init=False, repr=False, compare=False)
    log_ceiling: np.ndarray = field(init=False, repr=False, compare=False)
    log_floor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.self_cal)
        rows, cols = np.triu_indices(n, 1)
        channels = list(self.self_cal)
        channels += [self.cross_cal[pair] for pair in zip(rows.tolist(), cols.tolist())]
        # each calibration object once; channels with equal sigmas share one
        distinct = list({id(c): c for c in channels}.values())
        position = {id(c): k for k, c in enumerate(distinct)}
        at = np.array([position[id(c)] for c in channels], dtype=np.intp)
        index = np.empty((n, n), dtype=np.intp)
        index[np.diag_indices(n)] = at[:n]
        index[rows, cols] = index[cols, rows] = at[n:]
        values = {
            "steepness": [c.steepness for c in distinct],
            "midpoint": [c.midpoint for c in distinct],
            "log_ceiling": [_logit(c.mass_ceiling) for c in distinct],
            "log_floor": [_logit(c.mass_floor) for c in distinct],
        }
        for name, column in values.items():
            object.__setattr__(self, name, np.array(column, dtype=float)[index])

    def for_pair(self, i: int, j: int) -> Calibration:
        return self.cross_cal[(i, j) if i < j else (j, i)]


def residual_sigmas(noise: NoiseConfig) -> tuple:
    """Attack-free standard deviations of the self and cross residuals.

    A cross residual differences two reports, so the shared clock terms
    cancel and only the two paths' link+measurement noises remain.  The
    self residual keeps the path's own noise plus the clock terms that
    survive steering: the phase-walk increment and the residual error of
    the previous mean-of-N correction.

    Returns ``(self_sigmas, cross_sigmas)`` where ``self_sigmas`` is a
    per-path tuple and ``cross_sigmas`` maps unordered index pairs.
    """
    per_path = [
        sd * sd + sm * sm for sd, sm in zip(noise.sigma_link, noise.sigma_meas)
    ]
    mean_corr_var = left_sum(per_path) / noise.n_paths**2
    self_sigmas = tuple(
        math.sqrt(v + noise.sigma_offset**2 + mean_corr_var) for v in per_path
    )
    cross_sigmas = {
        (i, j): math.sqrt(per_path[i] + per_path[j])
        for i in range(noise.n_paths)
        for j in range(i + 1, noise.n_paths)
    }
    return self_sigmas, cross_sigmas


def build_calibration_set(
    noise: NoiseConfig,
    p_false_alarm: float,
    p_missed: float,
    mass_ceiling: float = 0.9,
    mass_floor: float = 0.1,
    steepness_log_odds: float = DEFAULT_STEEPNESS_LOG_ODDS,
    two_sided: bool = False,
) -> CalibrationSet:
    """Calibrate every residual channel of an N-path detector from its noise model.

    Channels with equal sigmas share one frozen :class:`Calibration`.
    """
    self_sigmas, cross_sigmas = residual_sigmas(noise)
    by_sigma: dict = {}

    def _cal(sigma: float) -> Calibration:
        if sigma not in by_sigma:
            by_sigma[sigma] = calibrate(
                sigma,
                p_false_alarm,
                p_missed,
                mass_ceiling=mass_ceiling,
                mass_floor=mass_floor,
                steepness_log_odds=steepness_log_odds,
                two_sided=two_sided,
            )
        return by_sigma[sigma]

    return CalibrationSet(
        self_cal=tuple(_cal(s) for s in self_sigmas),
        cross_cal={pair: _cal(s) for pair, s in sorted(cross_sigmas.items())},
    )


def residuals_for_path(
    path_id: int, offsets: Sequence[float], drift: float, tau: float
) -> list:
    """Ordered residual magnitudes for one path: self first, then cross vs. each other path.

    Cross residuals follow ascending partner index.
    """
    n = len(offsets)
    if n < 2:
        raise ValueError("need at least two paths")
    if not 0 <= path_id < n:
        raise ValueError(f"path_id {path_id} outside 0..{n - 1}")
    own = offsets[path_id]
    residuals = [abs(own - drift * tau)]
    residuals.extend(abs(own - offsets[j]) for j in range(n) if j != path_id)
    return residuals


#: Most residual cells the kernel's scratch holds; bounds the memory of a
#: whole-run pass to 32 KiB of cells.
_BLOCK_CELLS = 4096


class _Scratch:
    """Buffers for the epochs of shape ``lead`` (``()`` for one) of ``n`` paths, and views on them.

    One epoch gets 2-D cells and a 0-d drift * tau, the shapes of the
    tables, so its ufunc calls need no broadcasting.
    """

    def __init__(self, lead: tuple, n: int):
        self.x = np.empty(lead + (n,))
        self.drift_tau = np.empty(lead)
        self.cells = np.empty(lead + (n, n))
        self.sums = np.empty(lead + (n,))
        self.rows = self.x[..., :, None]
        self.cols = self.x[..., None, :]
        self.drift_tau_col = self.drift_tau[..., None] if lead else self.drift_tau
        self.diagonal = self.cells.reshape(lead + (n * n,))[..., :: n + 1]


class LogOddsKernel:
    """Fused log-odds of one DS variant for batches of epochs.

    Built once per run.  The variant only picks the clip tables: DS0
    clips at ``[-inf, inf]``, DS1 at ``[-inf, log_ceiling]`` and DS2 at
    ``[log_floor, log_ceiling]``, and ``min(v, inf) == v`` exactly, so
    every variant runs the same element operations.

    Calling the kernel on ``(B, N)`` reports and ``(B,)`` drift * tau
    values gives the ``(B, N)`` row sums, computed ``_BLOCK_CELLS`` cells
    at a time.  :meth:`epoch_sums` runs the same kernel on one epoch in
    scratch buffers that the kernel keeps.
    """

    def __init__(self, calibrations: CalibrationSet, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        n = len(calibrations.self_cal)
        unclipped = np.full((n, n), math.inf)
        self.n = n
        self.steepness = calibrations.steepness
        self.midpoint = calibrations.midpoint
        self.ceiling = calibrations.log_ceiling if variant != "DS0" else unclipped
        self.floor = calibrations.log_floor if variant == "DS2" else -unclipped
        self._epoch = _Scratch((), n)

    def __call__(self, x: np.ndarray, drift_tau: np.ndarray) -> np.ndarray:
        b, n = x.shape
        if n != self.n or drift_tau.shape != (b,):
            raise ValueError(f"need (B, {self.n}) reports and (B,) drift * tau values")
        out = np.empty((b, n))
        step = max(1, _BLOCK_CELLS // (n * n))
        scratch = None
        with np.errstate(invalid="ignore", over="ignore"):
            for lo in range(0, b, step):
                hi = min(lo + step, b)
                if scratch is None or len(scratch.x) != hi - lo:
                    scratch = _Scratch((hi - lo,), n)
                scratch.x[...] = x[lo:hi]
                scratch.drift_tau[...] = drift_tau[lo:hi]
                out[lo:hi] = self._row_sums(scratch)
        return out

    def epoch_sums(self, x: Sequence[float], drift_tau: float) -> list:
        """Row sums of one epoch's reports, as a list; allocates no array.

        Unlike a call on a batch, this leaves numpy's error state to the
        caller: a loop over epochs enters ``np.errstate(invalid="ignore",
        over="ignore")`` once, so that a non-finite epoch raises the
        kernel's :class:`ValueError` with no warning before it.
        """
        scratch = self._epoch
        scratch.x[...] = x
        scratch.drift_tau[...] = drift_tau
        return self._row_sums(scratch).tolist()

    def _row_sums(self, s: _Scratch) -> np.ndarray:
        """Fill ``s.cells`` with the residual matrices of ``s.x``, then sum their clipped log-odds.

        Row i of an epoch's matrix holds path i's cross residuals against
        every other path, with its self residual on the diagonal.
        """
        cells = s.cells
        np.subtract(s.rows, s.cols, out=cells)
        np.subtract(s.x, s.drift_tau_col, out=s.diagonal)
        np.abs(cells, out=cells)
        if not np.maximum.reduce(cells, axis=None) < math.inf:  # also false for NaN
            raise ValueError("residuals must be finite")
        np.subtract(cells, self.midpoint, out=cells)
        np.multiply(cells, self.steepness, out=cells)
        np.minimum(cells, self.ceiling, out=cells)
        np.maximum(cells, self.floor, out=cells)
        return np.add.reduce(cells, axis=-1, out=s.sums)


def fused_log_odds(
    offsets: Sequence[float],
    calibrations: CalibrationSet,
    drift: float,
    tau: float,
    variant: str = "DS2",
) -> np.ndarray:
    """Fused log-odds of attack for every path of one epoch, in path order.

    Row i of the residual matrix holds path i's cross residuals against
    every other path, with its self residual on the diagonal.  Each cell's
    log-odds are clipped to the channel's clamps (DS1: ceiling only, DS2:
    both, DS0: none) and a row's sum is the path's fused log-odds.  This
    is :meth:`LogOddsKernel.epoch_sums`.
    """
    kernel = LogOddsKernel(calibrations, variant)
    x = np.asarray(offsets, dtype=float)
    if x.shape != (kernel.n,):
        raise ValueError(f"got {x.size} offsets for {kernel.n} calibrated paths")
    with np.errstate(invalid="ignore", over="ignore"):
        return np.array(kernel.epoch_sums(x, drift * tau))


def classify_paths(
    offsets: Sequence[float],
    calibrations: CalibrationSet,
    drift: float,
    tau: float,
    variant: str = "DS2",
    epoch: int = 0,
) -> list:
    """Flag the paths whose :func:`fused_log_odds` are positive, one verdict per path.

    A verdict's fused mass is the logistic of the path's log-odds; an
    exactly balanced sum does not flag.  Verdict order follows path order.
    """
    verdicts = []
    for i, s in enumerate(fused_log_odds(offsets, calibrations, drift, tau, variant).tolist()):
        m = logistic(s)
        verdicts.append(Verdict(i, epoch, MassPair(m, 1.0 - m), s > 0.0))
    return verdicts


def compute_update(
    offsets: Sequence[float],
    verdicts: Sequence[Verdict],
    drift: float,
    tau: float,
    quarantined: Sequence[int] = (),
) -> float:
    """Steering correction: negated mean of trusted reports, or holdover.

    Flagged paths and any explicitly quarantined paths are excluded; if
    nothing remains the clock coasts on the frequency estimate
    (``-drift * tau``).
    """
    if len(offsets) != len(verdicts):
        raise ValueError("need exactly one verdict per offset")
    banned = set(quarantined)
    kept = [
        o
        for o, v in zip(offsets, verdicts)
        if not v.flagged and v.path_id not in banned
    ]
    if not kept:
        return -drift * tau
    return -left_sum(kept) / len(kept)


def estimate_frequency(
    history: Sequence[float], tau: float, window: int = 30
) -> FrequencyEstimate:
    """Least-squares slope of the most recent ``window`` points of ``history``.

    ``history`` is a consecutive per-epoch series (one value per ``tau``).
    With fewer than two points there is nothing to fit and the estimate
    is zero with a reported window of 0.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    points = list(history[-window:])
    if len(points) < 2:
        return FrequencyEstimate(0.0, 0)
    ts = [k * tau for k in range(len(points))]
    return FrequencyEstimate(ols_slope(ts, points), len(points))
