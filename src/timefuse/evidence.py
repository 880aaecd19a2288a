"""Two-hypothesis evidence algebra for per-path attack assessment.

The frame of discernment has exactly two states, ``normal`` and
``attack``, and every mass assignment puts all belief on the two
singletons.  A :class:`MassPair` is therefore a point on the 1-simplex,
and Dempster's combination rule reduces to a conflict-renormalised
product over the two components.

Masses are derived from non-negative measurement residuals through a
logistic curve.  The curve's midpoint and steepness come from a
statistical calibration: a detection threshold is placed so that a
chosen fraction of the attack-free residual distribution exceeds it
(false-alarm rate), the smallest reliably detectable bias follows from
the missed-detection rate, and the logistic midpoint sits halfway to
that bias, where the attack-free and attacked densities intersect.

Three construction variants are supported:

``DS0``
    The raw logistic value.
``DS1``
    Logistic value capped at ``mass_ceiling``, so no single piece of
    evidence can assert an attack with near certainty.
``DS2``
    Logistic value clamped into ``[mass_floor, mass_ceiling]``, bounding
    the sway of any single piece of evidence in both directions.

The caps are what keep one corrupted input from dominating the fused
result -- the classic failure mode of the unclamped rule under highly
conflicting sources.

In log-odds ``log(attack / normal)`` the rule is addition and the caps
are clips of each term; the engine fuses in that form, through
:class:`timefuse.fusion.LogOddsKernel`.  The mass-level functions here
remain the reference algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._util import logistic, norm_quantile

__all__ = [
    "MassPair",
    "Calibration",
    "TotalConflictError",
    "VACUOUS",
    "VARIANTS",
    "DEFAULT_STEEPNESS_LOG_ODDS",
    "bpa_from_residual",
    "calibrate",
    "combine",
    "combine_all",
    "min_detectable_attack",
    "threshold_for_false_alarm",
]

#: Tolerance on the unit-sum invariant of a mass pair.
MASS_TOL = 1e-12

#: Default dimensionless steepness (midpoint-normalised log-odds span).
#: With this value the attack mass rises from 0.01 at zero residual to
#: 0.99 at twice the midpoint.
DEFAULT_STEEPNESS_LOG_ODDS = math.log(99.0)

#: Recognised mass-construction variants.
VARIANTS = ("DS0", "DS1", "DS2")


class TotalConflictError(ValueError):
    """Two masses were in total conflict, so the combination is undefined.

    Only a direct :func:`combine` (or :func:`combine_all`) of a pure
    ``attack`` mass with a pure ``normal`` one raises it.  The path
    classifier adds log-odds instead of combining masses, so saturated
    residual evidence never reaches this rule.
    """


@dataclass(frozen=True)
class MassPair:
    """Belief mass on the two-state frame {attack, normal}.

    Components are non-negative and sum to one within ``MASS_TOL``.
    """

    attack: float
    normal: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.attack) and math.isfinite(self.normal)):
            raise ValueError("masses must be finite")
        if self.attack < 0.0 or self.normal < 0.0:
            raise ValueError("masses must be non-negative")
        if abs(self.attack + self.normal - 1.0) > MASS_TOL:
            raise ValueError(
                f"masses must sum to 1 within {MASS_TOL}, got "
                f"{self.attack!r} + {self.normal!r}"
            )


#: The non-informative mass: combining with it changes nothing.
VACUOUS = MassPair(0.5, 0.5)


def combine(a: MassPair, b: MassPair) -> MassPair:
    """Fuse two masses with Dempster's rule on the two-singleton frame.

    The normaliser is the probability mass on which the two sources
    agree; the conflicting cross terms are discarded and the agreeing
    products renormalised.  Raises :class:`TotalConflictError` when the
    sources agree on nothing.
    """
    agree = a.attack * b.attack + a.normal * b.normal
    if agree <= 0.0:
        raise TotalConflictError(
            "total conflict: one mass is pure attack and the other pure normal"
        )
    return MassPair(a.attack * b.attack / agree, a.normal * b.normal / agree)


def combine_all(masses) -> MassPair:
    """Left-fold :func:`combine` over an iterable of masses.

    The rule is commutative and associative, so the result does not
    depend on input order (up to floating-point rounding).
    """
    it = iter(masses)
    try:
        fused = next(it)
    except StopIteration:
        raise ValueError("combine_all requires at least one mass") from None
    for m in it:
        fused = combine(fused, m)
    return fused


@dataclass(frozen=True)
class Calibration:
    """Frozen result of calibrating a residual channel.

    Attributes
    ----------
    false_alarm, missed_detection:
        The design rates the thresholds were solved for, both in the
        open interval (0, 0.5).
    sigma:
        Standard deviation of the attack-free residual, seconds.
    threshold:
        Residual magnitude above which the false-alarm budget is spent.
    min_detectable:
        Smallest bias detected with probability 1 - missed_detection.
    steepness:
        Logistic steepness, 1/seconds.
    midpoint:
        Residual at which the attack mass is 0.5; half of
        ``min_detectable`` (equal-variance densities intersect midway).
    mass_ceiling, mass_floor:
        Clamp limits applied by the DS1/DS2 variants.
    """

    false_alarm: float
    missed_detection: float
    sigma: float
    threshold: float
    min_detectable: float
    steepness: float
    midpoint: float
    mass_ceiling: float
    mass_floor: float

    def __post_init__(self) -> None:
        if not 0.0 < self.false_alarm < 0.5:
            raise ValueError("false_alarm must lie in (0, 0.5)")
        if not 0.0 < self.missed_detection < 0.5:
            raise ValueError("missed_detection must lie in (0, 0.5)")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError("sigma must be positive")
        if not self.threshold > 0.0:
            raise ValueError("threshold must be positive")
        if not self.min_detectable > self.threshold:
            raise ValueError("min_detectable must exceed threshold")
        if not self.midpoint > 0.0:
            raise ValueError("midpoint must be positive")
        if not self.steepness > 0.0:
            raise ValueError("steepness must be positive")
        if not 0.0 <= self.mass_floor < 0.5 < self.mass_ceiling <= 1.0:
            raise ValueError("need 0 <= mass_floor < 0.5 < mass_ceiling <= 1")


def threshold_for_false_alarm(
    sigma: float, p_false_alarm: float, two_sided: bool = False
) -> float:
    """Residual threshold that an attack-free channel exceeds with rate ``p_false_alarm``.

    One-sided on the residual magnitude by default; ``two_sided`` splits
    the budget across both tails.  Defined for any rate in (0, 1) -- at
    0.5 the one-sided threshold degenerates to 0 (the median).
    """
    if not 0.0 < p_false_alarm < 1.0:
        raise ValueError("p_false_alarm must lie in (0, 1)")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError("sigma must be positive")
    p = p_false_alarm / 2.0 if two_sided else p_false_alarm
    return sigma * norm_quantile(1.0 - p)


def min_detectable_attack(threshold: float, sigma: float, p_missed: float) -> float:
    """Smallest bias whose residual clears ``threshold`` with probability 1 - ``p_missed``."""
    if not 0.0 < p_missed < 1.0:
        raise ValueError("p_missed must lie in (0, 1)")
    return threshold + sigma * norm_quantile(1.0 - p_missed)


def calibrate(
    sigma: float,
    p_false_alarm: float,
    p_missed: float,
    mass_ceiling: float = 0.9,
    mass_floor: float = 0.1,
    steepness_log_odds: float = DEFAULT_STEEPNESS_LOG_ODDS,
    two_sided: bool = False,
) -> Calibration:
    """Solve threshold, minimum detectable bias and logistic shape for a channel.

    ``sigma`` is the attack-free residual standard deviation.  Rates must
    lie in (0, 0.5) so that the solved threshold is positive and the
    minimum detectable bias exceeds it.
    """
    if not 0.0 < p_false_alarm < 0.5:
        raise ValueError("p_false_alarm must lie in (0, 0.5)")
    if not 0.0 < p_missed < 0.5:
        raise ValueError("p_missed must lie in (0, 0.5)")
    threshold = threshold_for_false_alarm(sigma, p_false_alarm, two_sided)
    min_det = min_detectable_attack(threshold, sigma, p_missed)
    midpoint = min_det / 2.0
    steepness = steepness_log_odds / midpoint
    return Calibration(
        false_alarm=p_false_alarm,
        missed_detection=p_missed,
        sigma=sigma,
        threshold=threshold,
        min_detectable=min_det,
        steepness=steepness,
        midpoint=midpoint,
        mass_ceiling=mass_ceiling,
        mass_floor=mass_floor,
    )


def bpa_from_residual(residual: float, calib: Calibration, variant: str = "DS2") -> MassPair:
    """Map a non-negative residual magnitude to an attack/normal mass pair.

    The raw attack mass is the logistic of the calibrated log-odds; the
    DS1 and DS2 variants apply the ceiling and floor clamps.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if not math.isfinite(residual) or residual < 0.0:
        raise ValueError("residual must be a finite non-negative magnitude")
    m = logistic(calib.steepness * (residual - calib.midpoint))
    if variant != "DS0":
        m = min(m, calib.mass_ceiling)
    if variant == "DS2":
        m = max(m, calib.mass_floor)
    return MassPair(m, 1.0 - m)
