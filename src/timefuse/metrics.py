"""Scoring: time deviation of a phase series and detector precision/recall."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "DetectionCounts",
    "TdevCurve",
    "per_path_counts",
    "precision_recall",
    "tdev",
    "tdev_curve",
]


def tdev(x: Sequence[float], n: int, tau0: float) -> float:
    """Time deviation of the phase series ``x`` at averaging time ``n * tau0``.

    ``x`` must be sampled on a uniform ``tau0`` grid and contain at least
    ``3 * n + 1`` points.  The statistic is the RMS of length-``n`` block
    sums of the ``n``-spaced second differences of ``x``, normalised by
    ``sqrt(6) * n`` (Riley, NIST SP 1065, 2008).  Each block sum is the
    difference of two entries of one running sum of the second
    differences, so a factor costs O(E) for E points and a whole 1-2-5
    ladder O(E log E).  The second differences are formed before anything
    is summed, so wherever every one of them is zero (a constant series,
    or a linear one whose steps are exact in floating point) the running
    sum is all zeros and the result is exactly ``0.0``.
    """
    if n < 1:
        raise ValueError("averaging factor must be at least 1")
    if tau0 <= 0.0:
        raise ValueError("tau0 must be positive")
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("phase series must be one-dimensional")
    if arr.size < 3 * n + 1:
        raise ValueError(
            f"need at least {3 * n + 1} points for averaging factor {n}, got {arr.size}"
        )
    second_diff = arr[2 * n :] - 2.0 * arr[n:-n] + arr[: -2 * n]
    running = np.concatenate(([0.0], np.cumsum(second_diff)))
    block_sums = running[n:] - running[:-n]
    return float(np.sqrt(np.mean(block_sums**2) / (6.0 * n * n)))


@dataclass(frozen=True)
class TdevCurve:
    """Time deviation evaluated over a ladder of averaging times."""

    taus: tuple
    deviations: tuple

    def __post_init__(self) -> None:
        if len(self.taus) != len(self.deviations):
            raise ValueError("taus and deviations must have equal length")
        if any(b <= a for a, b in zip(self.taus, self.taus[1:])):
            raise ValueError("taus must be strictly increasing")

    def at(self, tau: float) -> float:
        """Deviation at exactly ``tau``; raises KeyError when not on the ladder."""
        for t, d in zip(self.taus, self.deviations):
            if t == tau:
                return d
        raise KeyError(f"tau {tau} not on the ladder {self.taus}")


def tdev_curve(
    x: Sequence[float], tau0: float, factors: Sequence[int] | None = None
) -> TdevCurve:
    """Time deviation over a 1-2-5 ladder of averaging factors.

    The default ladder is 1, 2, 5, 10, 20, 50, ... up to the largest
    factor the series length supports.  An explicit ``factors`` sequence
    must be strictly increasing.
    """
    x = np.asarray(x, dtype=float)
    n_max = (len(x) - 1) // 3
    if factors is None:
        if n_max < 1:
            raise ValueError("series too short for any averaging factor")
        factors = []
        decade = 1
        while True:
            for mult in (1, 2, 5):
                n = mult * decade
                if n > n_max:
                    break
                factors.append(n)
            else:
                decade *= 10
                continue
            break
    else:
        factors = list(factors)
        if not factors:
            raise ValueError("factors must be non-empty")
        if any(b <= a for a, b in zip(factors, factors[1:])):
            raise ValueError("factors must be strictly increasing")
        if factors[0] < 1:
            raise ValueError("factors must be positive")
        if factors[-1] > n_max:
            raise ValueError(
                f"largest factor {factors[-1]} needs {3 * factors[-1] + 1} points, "
                f"series has {len(x)}"
            )
    return TdevCurve(
        taus=tuple(n * tau0 for n in factors),
        deviations=tuple(tdev(x, n, tau0) for n in factors),
    )


@dataclass(frozen=True)
class DetectionCounts:
    """Per-(path, epoch) confusion counts of a detector against the event truth."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    def __add__(self, other: "DetectionCounts") -> "DetectionCounts":
        return DetectionCounts(
            self.true_positives + other.true_positives,
            self.false_positives + other.false_positives,
            self.false_negatives + other.false_negatives,
            self.true_negatives + other.true_negatives,
        )

    @property
    def precision(self) -> float:
        """Flagged-and-attacked over flagged; 1.0 when nothing was flagged."""
        flagged = self.true_positives + self.false_positives
        return self.true_positives / flagged if flagged else 1.0

    @property
    def recall(self) -> float:
        """Flagged-and-attacked over attacked; 1.0 when nothing was attacked."""
        attacked = self.true_positives + self.false_negatives
        return self.true_positives / attacked if attacked else 1.0


def per_path_counts(
    flags: Sequence[Sequence[bool]],
    attacks: Sequence[Sequence[float]],
    start_epoch: int = 0,
) -> tuple:
    """Confusion counts for each path separately.

    ``flags[e][i]`` is whether path ``i`` was flagged at epoch ``e`` and
    ``attacks[e][i]`` the bias truly injected there (0.0 means clean);
    either may be a nested sequence or an ``(epochs, paths)`` array.
    Epochs before ``start_epoch`` (e.g. detector warm-up) are ignored.
    """
    if len(flags) != len(attacks):
        raise ValueError("flags and attacks must cover the same epochs")
    if not 0 <= start_epoch <= len(flags):
        raise ValueError("start_epoch outside the scored range")
    if not len(flags):
        return ()
    ragged = "ragged rows: every epoch needs one flag and one attack per path"
    try:
        flagged = np.asarray(flags, dtype=bool)
        attacked = np.asarray(attacks, dtype=float) != 0.0
    except ValueError:  # numpy refuses nested sequences of unequal length
        raise ValueError(ragged) from None
    if flagged.ndim != 2 or flagged.shape != attacked.shape:
        raise ValueError(ragged)
    flagged = flagged[start_epoch:]
    attacked = attacked[start_epoch:]
    tp = (flagged & attacked).sum(axis=0).tolist()
    n_flagged = flagged.sum(axis=0).tolist()
    n_attacked = attacked.sum(axis=0).tolist()
    scored = len(flagged)
    return tuple(
        DetectionCounts(t, f - t, a - t, scored - f - a + t)
        for t, f, a in zip(tp, n_flagged, n_attacked)
    )


def precision_recall(
    flags: Sequence[Sequence[bool]],
    attacks: Sequence[Sequence[float]],
    start_epoch: int = 0,
) -> DetectionCounts:
    """Pooled confusion counts over all paths; see :func:`per_path_counts`."""
    totals = DetectionCounts(0, 0, 0, 0)
    for counts in per_path_counts(flags, attacks, start_epoch):
        totals = totals + counts
    return totals
