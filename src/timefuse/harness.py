"""Scenario configuration, the end-to-end simulation loop, presets and file output.

A :class:`Scenario` pins everything a run needs -- clock and path noise,
the event schedule rules, the steering method, detector calibration
inputs and the seed -- so that a run is a pure function of the scenario.
``run_scenario`` executes the epoch loop and returns a :class:`RunResult`
with the run's per-epoch columns and the derived metrics; ``emit``
writes the result as CSV (one row per epoch), a human-readable summary
table, or (tau, tdev) plot data.  Emitted CSVs carry enough metadata in a comment
preamble to recompute every metric from the file alone, which is what
``parse_run_csv`` plus ``parsed_stats`` do.

All offsets are held in seconds internally; files report picoseconds
with three decimals.  Path indices are 0-based in code and 1-based in
file headers and tables.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
import statistics
import warnings
from collections import deque
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._util import centred_axis, left_sum, logistic, slope_on_axis
from .baselines import fta_update, make_single_state, single_residual_sigma
from .clocksim import (
    EventSchedule,
    NoiseConfig,
    PathObservation,
    PeriodicAttackRule,
    PeriodicJumpRule,
    RngStreams,
    build_schedule,
    draw_noise,
)
from .evidence import DEFAULT_STEEPNESS_LOG_ODDS, VACUOUS, VARIANTS, MassPair
from .fusion import (
    CalibrationSet,
    EpochRecord,
    LogOddsKernel,
    Verdict,
    build_calibration_set,
    residual_sigmas,
)
from .metrics import DetectionCounts, TdevCurve, per_path_counts, tdev_curve

__all__ = [
    "METHODS",
    "PRESET_NAMES",
    "ParsedRun",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "emit",
    "format_sweep_table",
    "parse_run_csv",
    "parsed_stats",
    "preset",
    "run_csv_text",
    "run_scenario",
    "scenario_from_dict",
    "scenario_from_json",
    "scenario_to_json",
    "summarize_parsed",
    "summarize_run",
    "sweep",
    "write_run_csv",
]

#: Steering methods a scenario may select.
METHODS = VARIANTS + ("FTA", "Single")

#: Built-in scenario names, in sweep order.
PRESET_NAMES = ("fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig5d", "exp3")

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class ScenarioError(ValueError):
    """A scenario field failed validation; the message names the field."""


def _canon_method(method: str) -> str:
    for m in METHODS:
        if method.upper() == m.upper():
            return m
    raise ScenarioError(f"method: unknown {method!r}; expected one of {METHODS}")


@dataclass(frozen=True)
class Scenario:
    """Complete, validated configuration of one simulation run.

    Noise defaults are the standard bench values: 10 ps phase walk,
    1 ps/s frequency walk, 10 ps link noise and 25 ps measurement noise
    per path, at a 1 s epoch.  ``sigma_link``/``sigma_meas`` accept a
    scalar (applied to every path) or one value per path.
    """

    name: str
    n_paths: int
    n_epochs: int
    method: str = "DS2"
    seed: int = 1
    tau: float = 1.0
    sigma_offset: float = 10e-12
    sigma_drift: float = 1e-12
    sigma_link: float | tuple = 10e-12
    sigma_meas: float | tuple = 25e-12
    attack_rules: tuple = ()
    jump_rules: tuple = ()
    p_false_alarm: float = 1e-6
    p_missed: float = 1e-6
    mass_ceiling: float = 0.74
    mass_floor: float = 0.26
    steepness_log_odds: float = DEFAULT_STEEPNESS_LOG_ODDS
    two_sided: bool = False
    window: int = 30
    quarantine: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ScenarioError(
                "name: must be 1-64 characters of letters, digits, '.', '_' or '-'"
            )
        for fname in ("n_paths", "n_epochs", "seed", "window", "quarantine"):
            v = getattr(self, fname)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ScenarioError(f"{fname}: must be an integer")
        if self.n_paths < 2:
            raise ScenarioError("n_paths: need at least 2")
        if self.n_epochs < 1:
            raise ScenarioError("n_epochs: need at least 1")
        if self.seed < 0:
            raise ScenarioError("seed: must be non-negative")
        if self.window < 2:
            raise ScenarioError("window: need at least 2 epochs")
        if self.quarantine < 0:
            raise ScenarioError("quarantine: must be non-negative")
        object.__setattr__(self, "method", _canon_method(self.method))
        if self.method == "FTA" and self.n_paths < 3:
            raise ScenarioError("n_paths: FTA needs at least 3 paths")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ScenarioError("tau: must be positive")
        for fname in ("sigma_offset", "sigma_drift"):
            v = getattr(self, fname)
            if not (isinstance(v, float) and math.isfinite(v) and v >= 0.0):
                raise ScenarioError(f"{fname}: must be a non-negative number")
        for fname in ("sigma_link", "sigma_meas"):
            v = getattr(self, fname)
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                v = float(v)
            else:
                try:
                    v = tuple(float(s) for s in v)
                except (TypeError, ValueError):
                    raise ScenarioError(
                        f"{fname}: must be a number or one number per path"
                    ) from None
                if len(v) != self.n_paths:
                    raise ScenarioError(
                        f"{fname}: got {len(v)} values for {self.n_paths} paths"
                    )
            scalars = (v,) if isinstance(v, float) else v
            if any(not (math.isfinite(s) and s >= 0.0) for s in scalars):
                raise ScenarioError(f"{fname}: values must be non-negative")
            object.__setattr__(self, fname, v)
        for fname in ("p_false_alarm", "p_missed"):
            v = getattr(self, fname)
            if not 0.0 < v < 0.5:
                raise ScenarioError(f"{fname}: must lie in (0, 0.5)")
        if not 0.0 <= self.mass_floor < 0.5 < self.mass_ceiling <= 1.0:
            raise ScenarioError(
                "mass_floor/mass_ceiling: need 0 <= floor < 0.5 < ceiling <= 1"
            )
        if not (math.isfinite(self.steepness_log_odds) and self.steepness_log_odds > 0.0):
            raise ScenarioError("steepness_log_odds: must be positive")
        object.__setattr__(self, "attack_rules", tuple(self.attack_rules))
        object.__setattr__(self, "jump_rules", tuple(self.jump_rules))
        for rule in self.attack_rules:
            if not rule.paths:
                raise ScenarioError("attack_rules: rule with no paths")
            d = rule.duration_epochs
            if not isinstance(d, int) or isinstance(d, bool):
                raise ScenarioError("attack_rules: duration_epochs must be an integer")
            if d < 1:
                raise ScenarioError("attack_rules: duration_epochs must be >= 1")
            if not (math.isfinite(rule.magnitude_s) and rule.magnitude_s != 0.0):
                raise ScenarioError("attack_rules: magnitude_s must be non-zero")
        for rule in self.jump_rules:
            if not (math.isfinite(rule.magnitude_s) and rule.magnitude_s != 0.0):
                raise ScenarioError("jump_rules: magnitude_s must be non-zero")
        try:
            self.schedule()
        except ValueError as exc:
            raise ScenarioError(f"event rules: {exc}") from exc
        # the detectors calibrate on these sigmas when the run starts
        if self.method == "Single":
            sigmas = (single_residual_sigma(self.noise()),)
        elif self.method in VARIANTS:
            self_sigmas, cross_sigmas = residual_sigmas(self.noise())
            sigmas = self_sigmas + tuple(cross_sigmas.values())
        else:
            sigmas = ()
        if not all(math.isfinite(s) and s > 0.0 for s in sigmas):
            raise ScenarioError(
                f"noise: every residual sigma of the {self.method} detector must be"
                " positive and finite"
            )

    @property
    def warmup(self) -> int:
        """Epochs excluded from scoring while the frequency estimate converges."""
        return min(self.window, self.n_epochs)

    def noise(self) -> NoiseConfig:
        def spread(v):
            return (v,) * self.n_paths if isinstance(v, float) else v

        return NoiseConfig(
            sigma_offset=self.sigma_offset,
            sigma_drift=self.sigma_drift,
            sigma_link=spread(self.sigma_link),
            sigma_meas=spread(self.sigma_meas),
            tau=self.tau,
        )

    def schedule(self) -> EventSchedule:
        """The expanded event rules; :meth:`__post_init__` has checked they expand."""
        return build_schedule(
            self.attack_rules, self.jump_rules, self.n_epochs, self.n_paths, self.tau
        )

    def calibrations(self) -> CalibrationSet:
        return build_calibration_set(
            self.noise(),
            self.p_false_alarm,
            self.p_missed,
            mass_ceiling=self.mass_ceiling,
            mass_floor=self.mass_floor,
            steepness_log_odds=self.steepness_log_odds,
            two_sided=self.two_sided,
        )

    def to_dict(self) -> dict:
        """Nested plain-data form, the inverse of :func:`scenario_from_dict`."""
        return {
            "name": self.name,
            "method": self.method,
            "seed": self.seed,
            "n_paths": self.n_paths,
            "n_epochs": self.n_epochs,
            "tau_s": self.tau,
            "noise": {
                "sigma_offset_s": self.sigma_offset,
                "sigma_drift_ss": self.sigma_drift,
                "sigma_link_s": list(self.sigma_link)
                if isinstance(self.sigma_link, tuple)
                else self.sigma_link,
                "sigma_meas_s": list(self.sigma_meas)
                if isinstance(self.sigma_meas, tuple)
                else self.sigma_meas,
            },
            "detector": {
                "p_false_alarm": self.p_false_alarm,
                "p_missed": self.p_missed,
                "mass_ceiling": self.mass_ceiling,
                "mass_floor": self.mass_floor,
                "steepness_log_odds": self.steepness_log_odds,
                "two_sided": self.two_sided,
                "window_epochs": self.window,
                "quarantine_epochs": self.quarantine,
            },
            "attacks": [
                {
                    "paths": list(r.paths),
                    "period_s": r.period_s,
                    "phase_s": r.phase_s,
                    "magnitude_s": r.magnitude_s,
                    "duration_epochs": r.duration_epochs,
                }
                for r in self.attack_rules
            ],
            "jumps": [
                {
                    "period_s": r.period_s,
                    "phase_s": r.phase_s,
                    "magnitude_s": r.magnitude_s,
                }
                for r in self.jump_rules
            ],
        }


def _reject_unknown(d: dict, allowed: Iterable[str], context: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ScenarioError(f"{context}: unknown keys {unknown}")


def _as_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{context}: must be an integer")
    if isinstance(value, float):
        if not value.is_integer():
            raise ScenarioError(f"{context}: must be an integer")
        value = int(value)
    return value


def _as_float(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{context}: must be a number")
    return float(value)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a :class:`Scenario` from its nested plain-data form.

    Unknown keys anywhere in the structure are rejected so that typos in
    scenario files fail loudly instead of silently using a default.
    """
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a mapping at the top level")
    _reject_unknown(
        data,
        ("name", "method", "seed", "n_paths", "n_epochs", "tau_s", "noise", "detector", "attacks", "jumps"),
        "scenario",
    )
    for key in ("name", "n_paths", "n_epochs"):
        if key not in data:
            raise ScenarioError(f"scenario: missing required key {key!r}")
    noise = data.get("noise", {})
    if not isinstance(noise, dict):
        raise ScenarioError("noise: expected a mapping")
    _reject_unknown(
        noise, ("sigma_offset_s", "sigma_drift_ss", "sigma_link_s", "sigma_meas_s"), "noise"
    )
    det = data.get("detector", {})
    if not isinstance(det, dict):
        raise ScenarioError("detector: expected a mapping")
    _reject_unknown(
        det,
        (
            "p_false_alarm",
            "p_missed",
            "mass_ceiling",
            "mass_floor",
            "steepness_log_odds",
            "two_sided",
            "window_epochs",
            "quarantine_epochs",
        ),
        "detector",
    )

    def per_path_sigma(value, context):
        if isinstance(value, (list, tuple)):
            return tuple(_as_float(v, context) for v in value)
        return _as_float(value, context)

    attacks = []
    for k, entry in enumerate(data.get("attacks", [])):
        ctx = f"attacks[{k}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{ctx}: expected a mapping")
        _reject_unknown(
            entry, ("paths", "period_s", "phase_s", "magnitude_s", "duration_epochs"), ctx
        )
        try:
            paths = tuple(_as_int(p, f"{ctx}.paths") for p in entry["paths"])
            attacks.append(
                PeriodicAttackRule(
                    paths=paths,
                    period_s=_as_float(entry["period_s"], f"{ctx}.period_s"),
                    phase_s=_as_float(entry["phase_s"], f"{ctx}.phase_s"),
                    magnitude_s=_as_float(entry["magnitude_s"], f"{ctx}.magnitude_s"),
                    duration_epochs=_as_int(
                        entry.get("duration_epochs", 1), f"{ctx}.duration_epochs"
                    ),
                )
            )
        except KeyError as exc:
            raise ScenarioError(f"{ctx}: missing key {exc.args[0]!r}") from None
    jumps = []
    for k, entry in enumerate(data.get("jumps", [])):
        ctx = f"jumps[{k}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{ctx}: expected a mapping")
        _reject_unknown(entry, ("period_s", "phase_s", "magnitude_s"), ctx)
        try:
            jumps.append(
                PeriodicJumpRule(
                    period_s=_as_float(entry["period_s"], f"{ctx}.period_s"),
                    phase_s=_as_float(entry["phase_s"], f"{ctx}.phase_s"),
                    magnitude_s=_as_float(entry["magnitude_s"], f"{ctx}.magnitude_s"),
                )
            )
        except KeyError as exc:
            raise ScenarioError(f"{ctx}: missing key {exc.args[0]!r}") from None

    kwargs: dict = {
        "name": data["name"],
        "n_paths": _as_int(data["n_paths"], "n_paths"),
        "n_epochs": _as_int(data["n_epochs"], "n_epochs"),
        "attack_rules": tuple(attacks),
        "jump_rules": tuple(jumps),
    }
    if "method" in data:
        if not isinstance(data["method"], str):
            raise ScenarioError("method: must be a string")
        kwargs["method"] = data["method"]
    if "seed" in data:
        kwargs["seed"] = _as_int(data["seed"], "seed")
    if "tau_s" in data:
        kwargs["tau"] = _as_float(data["tau_s"], "tau_s")
    if "sigma_offset_s" in noise:
        kwargs["sigma_offset"] = _as_float(noise["sigma_offset_s"], "noise.sigma_offset_s")
    if "sigma_drift_ss" in noise:
        kwargs["sigma_drift"] = _as_float(noise["sigma_drift_ss"], "noise.sigma_drift_ss")
    if "sigma_link_s" in noise:
        kwargs["sigma_link"] = per_path_sigma(noise["sigma_link_s"], "noise.sigma_link_s")
    if "sigma_meas_s" in noise:
        kwargs["sigma_meas"] = per_path_sigma(noise["sigma_meas_s"], "noise.sigma_meas_s")
    if "p_false_alarm" in det:
        kwargs["p_false_alarm"] = _as_float(det["p_false_alarm"], "detector.p_false_alarm")
    if "p_missed" in det:
        kwargs["p_missed"] = _as_float(det["p_missed"], "detector.p_missed")
    if "mass_ceiling" in det:
        kwargs["mass_ceiling"] = _as_float(det["mass_ceiling"], "detector.mass_ceiling")
    if "mass_floor" in det:
        kwargs["mass_floor"] = _as_float(det["mass_floor"], "detector.mass_floor")
    if "steepness_log_odds" in det:
        kwargs["steepness_log_odds"] = _as_float(
            det["steepness_log_odds"], "detector.steepness_log_odds"
        )
    if "two_sided" in det:
        if not isinstance(det["two_sided"], bool):
            raise ScenarioError("detector.two_sided: must be true or false")
        kwargs["two_sided"] = det["two_sided"]
    if "window_epochs" in det:
        kwargs["window"] = _as_int(det["window_epochs"], "detector.window_epochs")
    if "quarantine_epochs" in det:
        kwargs["quarantine"] = _as_int(det["quarantine_epochs"], "detector.quarantine_epochs")
    return Scenario(**kwargs)


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(scenario.to_dict(), indent=2) + "\n"


def scenario_from_json(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def preset(name: str, method: str = "DS2", seed: int = 1) -> Scenario:
    """One of the built-in scenarios; see :data:`PRESET_NAMES`.

    ``fig3``/``fig4`` are the staggered and simultaneous 10 ns bias
    scenarios on 5 paths over 2000 epochs (40 attacks per path).
    ``fig5a``-``fig5d`` are the four 3000-epoch conditions: clean, two
    paths biased together every 50 s, 1 ns clock jumps every 30 s, and
    both at once (colliding jumps shift one epoch late).  ``exp3`` is the
    3-path bench analogue: 1.25 ns biases on path 1 every 50 s plus 1 ns
    jumps every 30 s.
    """
    common = {"method": method, "seed": seed}
    if name == "fig3":
        return Scenario(
            name=name,
            n_paths=5,
            n_epochs=2000,
            attack_rules=tuple(
                PeriodicAttackRule(paths=(i,), period_s=50.0, phase_s=10.0 * i, magnitude_s=10e-9)
                for i in range(5)
            ),
            **common,
        )
    if name == "fig4":
        return Scenario(
            name=name,
            n_paths=5,
            n_epochs=2000,
            attack_rules=(
                PeriodicAttackRule(paths=(0, 1), period_s=50.0, phase_s=0.0, magnitude_s=10e-9),
                PeriodicAttackRule(paths=(2, 3), period_s=50.0, phase_s=20.0, magnitude_s=10e-9),
                PeriodicAttackRule(paths=(4,), period_s=50.0, phase_s=40.0, magnitude_s=10e-9),
            ),
            **common,
        )
    if name in ("fig5a", "fig5b", "fig5c", "fig5d"):
        attacks = (
            PeriodicAttackRule(paths=(0, 1), period_s=50.0, phase_s=50.0, magnitude_s=10e-9),
        )
        jumps = (PeriodicJumpRule(period_s=30.0, phase_s=30.0, magnitude_s=1e-9),)
        return Scenario(
            name=name,
            n_paths=5,
            n_epochs=3000,
            attack_rules=attacks if name in ("fig5b", "fig5d") else (),
            jump_rules=jumps if name in ("fig5c", "fig5d") else (),
            **common,
        )
    if name == "exp3":
        return Scenario(
            name=name,
            n_paths=3,
            n_epochs=3000,
            attack_rules=(
                PeriodicAttackRule(paths=(0,), period_s=50.0, phase_s=50.0, magnitude_s=1.25e-9),
            ),
            jump_rules=(PeriodicJumpRule(period_s=30.0, phase_s=30.0, magnitude_s=1e-9),),
            **common,
        )
    raise ScenarioError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")


#: Epochs per block of a run: the engine draws noise and the CSV codec
#: writes and reads rows one block at a time, which bounds the memory any
#: stage takes beyond the run's own columns.
_BLOCK_EPOCHS = 1024


def _blocks(n_epochs: int):
    """``(lo, hi)`` epoch bounds of each block of an ``n_epochs`` run, in order."""
    for lo in range(0, n_epochs, _BLOCK_EPOCHS):
        yield lo, min(lo + _BLOCK_EPOCHS, n_epochs)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything produced by one run: its per-epoch columns plus derived metrics.

    ``true_offsets`` (the clock's true offset), ``corrections`` (the
    steering correction chosen at that epoch) and ``sync_errors`` (their
    sum: the steered clock's residual time error) are read-only
    ``(epochs,)`` float arrays.  ``measured``, ``flags`` and ``attacks``
    are read-only ``(epochs, paths)`` arrays of the reported offsets, the
    detector flags and the injected attack bias; ``log_odds`` holds the
    fused log-odds of every cell for the DS methods and is ``None`` for
    the others.  ``tdev`` is the time deviation of ``sync_errors`` over
    the post-warm-up stretch, or ``None`` when the run is too short.
    Counts exclude warm-up epochs.
    """

    scenario: Scenario
    true_offsets: np.ndarray
    corrections: np.ndarray
    sync_errors: np.ndarray
    measured: np.ndarray
    flags: np.ndarray
    attacks: np.ndarray
    log_odds: np.ndarray | None
    tdev: TdevCurve | None
    counts: DetectionCounts
    path_counts: tuple

    def __post_init__(self) -> None:
        shape = (self.scenario.n_epochs, self.scenario.n_paths)
        epoch_columns = [self.true_offsets, self.corrections, self.sync_errors]
        cells = [self.measured, self.flags, self.attacks]
        cells += [] if self.log_odds is None else [self.log_odds]
        if any(c.shape != shape[:1] for c in epoch_columns) or any(c.shape != shape for c in cells):
            raise ValueError(f"need {shape[:1]} per-epoch and {shape} per-path columns")
        if len(self.path_counts) != shape[1]:
            raise ValueError("need exactly one count set per path")
        for column in epoch_columns + cells:
            column.flags.writeable = False

    @property
    def records(self) -> "EpochRecords":
        """The same run as one :class:`EpochRecord` per epoch, built on access."""
        return EpochRecords(self)


class EpochRecords(SequenceABC):
    """Read-only sequence view of a :class:`RunResult` as per-epoch records.

    Each item is an :class:`EpochRecord` of Python values, built from the
    run's columns when it is read.  A DS verdict's fused mass is the
    logistic of the cell's log-odds; the baselines' verdicts carry the
    vacuous mass.
    """

    __slots__ = ("run",)

    def __init__(self, run: RunResult):
        self.run = run

    def __len__(self) -> int:
        return len(self.run.true_offsets)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[e] for e in range(len(self))[index]]
        epoch = range(len(self))[index]
        run = self.run
        observations = tuple(
            PathObservation(i, epoch, m, a)
            for i, (m, a) in enumerate(
                zip(run.measured[epoch].tolist(), run.attacks[epoch].tolist())
            )
        )
        if run.log_odds is None:
            fused = [VACUOUS] * len(observations)
        else:
            fused = [MassPair(m, 1.0 - m) for m in map(logistic, run.log_odds[epoch].tolist())]
        verdicts = tuple(
            Verdict(i, epoch, f, flag)
            for i, (f, flag) in enumerate(zip(fused, run.flags[epoch].tolist()))
        )
        return EpochRecord(
            epoch,
            run.true_offsets[epoch].item(),
            observations,
            verdicts,
            run.corrections[epoch].item(),
            run.scenario.method,
        )


def _run_stats(flags, attacks, sync_errors: np.ndarray, warm: int, tau: float) -> tuple:
    """``(counts, path_counts, tdev_curve)`` of a run's columns, scored after ``warm`` epochs."""
    path_counts = per_path_counts(flags, attacks, warm)
    counts = sum(path_counts, DetectionCounts(0, 0, 0, 0))
    post = sync_errors[warm:]
    return counts, path_counts, tdev_curve(post, tau) if len(post) >= 4 else None


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute the epoch loop for ``scenario``; deterministic in (scenario, seed).

    The run goes ``_BLOCK_EPOCHS`` epochs at a time.  Each block's noise
    is drawn before its epochs, on streams that continue from the block
    before (:func:`~timefuse.clocksim.draw_noise`), and the event
    schedule is expanded up front, so an epoch only does what depends on
    the previous epoch's correction: advance the true clock with that
    correction and any scheduled jump, form every path's report, classify
    the paths (method-dependent), and compute the next correction.  The
    loop's per-epoch outputs go into preallocated columns at the end of
    each block, and a clock that has left the float range is rejected
    there.  The frequency estimate feeding the fused detector is fit
    over a window of the accumulated steered offsets from strictly
    earlier epochs.  The DS steering mean adds the kept reports left to
    right in path order (:func:`~timefuse._util.left_sum`); ``np.sum``
    would reorder the additions.

    A DS epoch that :meth:`~timefuse.fusion.LogOddsKernel.is_quiet` proves
    flag-free, or :meth:`~timefuse.fusion.LogOddsKernel.is_loud` proves
    all-flagged, skips the evidence kernel.  The reports of each block,
    and after the loop the fused log-odds of every epoch, are computed
    from the true offsets and the drift * tau of each epoch, with the
    additions the loop made.

    The Single detector is :func:`~timefuse.baselines.single_update`
    inlined.  With ``tau == 1.0`` a full window of consecutive epochs
    ``e0 ..`` fits on the fixed axis of ``0 ..``: the window's times sum
    to an integer below ``window * n_epochs <= 2**53``, so their ``fsum``
    mean is exactly ``e0 + (window - 1) / 2`` and every centred time is
    exact, the same double as on the fixed axis.
    """
    n = scenario.n_paths
    n_epochs = scenario.n_epochs
    tau = scenario.tau
    window = scenario.window
    method = scenario.method
    noise = scenario.noise()
    schedule = scenario.schedule()
    kernel = LogOddsKernel(scenario.calibrations(), method) if method in VARIANTS else None
    threshold = (
        make_single_state(noise, scenario.p_false_alarm, scenario.two_sided).threshold
        if method == "Single"
        else None
    )
    rngs = RngStreams(scenario.seed, n)
    attacks = schedule.attacks
    time_axis = [k * tau for k in range(min(window, n_epochs))]
    full_axis = centred_axis(time_axis) if len(time_axis) == window else None
    single_axis = full_axis if tau == 1.0 and window * n_epochs <= 2**53 else None

    true_column = np.empty(n_epochs)
    corrections = np.empty(n_epochs)
    drift_taus = np.empty(n_epochs) if kernel is not None else None
    measured = np.empty((n_epochs, n))
    flags = np.zeros((n_epochs, n), dtype=bool)
    offset = drift = drift_est = correction = cum_correction = 0.0
    z_history: deque = deque(maxlen=window)
    times: deque = deque(maxlen=window)  # Single: the time of each point in z_history
    quarantine_left = [0] * n
    # stand in for the unknown row sums of a quiet (all <= 0) or loud (all > 0) epoch
    quiet_sums = [0.0] * n
    loud_sums = [1.0] * n
    # the kernel rejects a non-finite epoch; numpy's warnings on the way would come first
    with np.errstate(invalid="ignore", over="ignore"):
        for lo, hi in _blocks(n_epochs):
            clock_noise, link, meas = draw_noise(noise, rngs, hi - lo)
            w_offset, w_drift = clock_noise.T.tolist()
            block_offsets, block_corrections, block_drift_taus, block_flags = [], [], [], []
            rows = zip(
                w_offset,
                w_drift,
                schedule.jumps[lo:hi].tolist(),
                link.tolist(),
                meas.tolist(),
                attacks[lo:hi].tolist(),
            )
            for epoch, (w_o, w_d, jump, link_row, meas_row, attack_row) in enumerate(rows, lo):
                offset = offset + correction + drift * tau + w_o + jump
                drift = drift + w_d
                # the noise and attack terms are finite, so x is never partly NaN,
                # which is_quiet needs: a NaN offset makes every report NaN, and an
                # overflow makes a report infinite
                x = [offset + w + v + a for w, v, a in zip(link_row, meas_row, attack_row)]

                if kernel is not None:
                    points = len(z_history)
                    if points == window:
                        drift_est = slope_on_axis(full_axis, z_history)
                    elif points >= 2:
                        drift_est = slope_on_axis(centred_axis(time_axis[:points]), z_history)
                    else:
                        drift_est = 0.0
                    drift_tau = drift_est * tau
                    if kernel.is_quiet(x, drift_tau):
                        sums = quiet_sums
                    elif kernel.is_loud(x, drift_tau):
                        sums = loud_sums
                    else:
                        sums = kernel.epoch_sums(x, drift_tau)
                    if sums is quiet_sums and not any(quarantine_left):
                        kept = x  # what the filter below keeps on a quiet epoch
                    else:
                        kept = [
                            o for o, s, q in zip(x, sums, quarantine_left) if not s > 0.0 and not q
                        ]
                    correction = -left_sum(kept) / len(kept) if kept else -drift_tau
                    if scenario.quarantine:
                        quarantine_left = [
                            scenario.quarantine if s > 0.0 else max(q - 1, 0)
                            for s, q in zip(sums, quarantine_left)
                        ]
                    z_history.append(-correction - cum_correction)
                    cum_correction += correction
                    block_drift_taus.append(drift_tau)
                elif method == "FTA":
                    correction = fta_update(x)
                else:
                    prediction = drift_est * tau
                    flagged = abs(x[0] - prediction) > threshold
                    if flagged:
                        correction = -prediction
                    else:
                        correction = -x[0]
                        times.append(epoch * tau)
                        z_history.append(x[0] - cum_correction)
                        k = len(times)
                        gap_free = times[-1] - times[0] == k - 1
                        if single_axis is not None and k == window and gap_free:
                            drift_est = slope_on_axis(single_axis, z_history)
                        elif k >= 2:
                            drift_est = slope_on_axis(centred_axis(times), z_history)
                    cum_correction += correction
                    block_flags.append(flagged)

                block_offsets.append(offset)
                block_corrections.append(correction)

            # a non-finite offset or correction stays non-finite in every later epoch
            if not (math.isfinite(offset) and math.isfinite(correction)):
                raise ValueError("clock state must be finite")
            true_column[lo:hi] = block_offsets
            corrections[lo:hi] = block_corrections
            if kernel is not None:
                drift_taus[lo:hi] = block_drift_taus
            elif block_flags:
                flags[lo:hi, 0] = block_flags
            # added to in place in the loop's order of additions
            block = measured[lo:hi]
            np.add(true_column[lo:hi, None], link, out=block)
            block += meas
            block += attacks[lo:hi]
    if kernel is not None:
        log_odds = kernel(measured, drift_taus)
        np.greater(log_odds, 0.0, out=flags)
    else:
        log_odds = None
    sync_errors = true_column + corrections
    counts, path_counts, curve = _run_stats(flags, attacks, sync_errors, scenario.warmup, tau)
    return RunResult(
        scenario=scenario,
        true_offsets=true_column,
        corrections=corrections,
        sync_errors=sync_errors,
        measured=measured,
        flags=flags,
        attacks=attacks,
        log_odds=log_odds,
        tdev=curve,
        counts=counts,
        path_counts=path_counts,
    )


# ---------------------------------------------------------------------------
# file output and round-tripping

_PS = 1e12

#: Preamble keys of the run CSV, in file order.
_CSV_PREAMBLE = ("name", "method", "seed", "tau_s", "window_epochs", "n_paths")


def _csv_header(n: int) -> list:
    """Column names of the run CSV for ``n`` paths."""
    return (
        ["epoch", "true_theta_ps"]
        + [f"theta_m_{i + 1}_ps" for i in range(n)]
        + [f"flag_{i + 1}" for i in range(n)]
        + ["u_theta_ps"]
        + [f"attack_{i + 1}_ps" for i in range(n)]
    )


def _ledger_columns(records: Sequence[EpochRecord]) -> tuple:
    """``(epochs, true_offsets, measured, flags, corrections, attacks)`` of a ledger."""
    if isinstance(records, EpochRecords):
        r = records.run
        return (
            range(len(records)), r.true_offsets, r.measured, r.flags, r.corrections, r.attacks
        )
    return (
        [r.epoch for r in records],
        [r.true_offset for r in records],
        [[o.measured_offset for o in r.observations] for r in records],
        [[v.flagged for v in r.verdicts] for r in records],
        [r.correction for r in records],
        [[o.attack_truth for o in r.observations] for r in records],
    )


def _csv_rows(n: int, epochs, true_offsets, measured, flags, corrections, attacks) -> str:
    """The CSV rows of one block of a run's columns for ``n`` paths."""
    head = ["%d", "%.3f"] + ["%.3f"] * n
    row = ",".join(head + ["%d"] * n + ["%.3f"] * (1 + n)) + "\n"
    quiet_row = ",".join(head + ["0"] * n + ["%.3f"] + ["0.000"] * n) + "\n"
    quiet_cells = np.r_[0 : 2 + n, 2 + 2 * n]
    # epoch and flag cells ride along as floats; "%d" prints them as integers
    block = np.column_stack(
        [
            epochs,
            np.asarray(true_offsets, dtype=float) * _PS,
            np.asarray(measured, dtype=float) * _PS,
            flags,
            np.asarray(corrections, dtype=float) * _PS,
            np.asarray(attacks, dtype=float) * _PS,
        ]
    )
    attack_cells = block[:, 3 + 2 * n :]
    q = (block[:, 2 + n : 2 + 2 * n] == 0.0).all(axis=1) & (
        (attack_cells == 0.0) & ~np.signbit(attack_cells)
    ).all(axis=1)
    # each template formats its own rows; the object array puts them back in epoch order
    rows = np.empty(len(block), dtype=object)
    rows[q] = list(map(quiet_row.__mod__, zip(*block[q][:, quiet_cells].T.tolist())))
    rows[~q] = list(map(row.__mod__, zip(*block[~q].T.tolist())))
    return "".join(rows.tolist())


def _csv_blocks(scenario: Scenario, records: Sequence[EpochRecord]):
    """The run CSV as text pieces: the preamble and header, then one piece per block of rows.

    A block's cells and row strings are freed before its text is handed on.
    """
    n = scenario.n_paths
    preamble = (
        scenario.name, scenario.method, scenario.seed, repr(scenario.tau), scenario.window, n
    )
    yield "".join(f"# {key}={value}\n" for key, value in zip(_CSV_PREAMBLE, preamble))
    yield ",".join(_csv_header(n)) + "\n"
    columns = _ledger_columns(records)
    for lo, hi in _blocks(len(columns[0])):
        yield _csv_rows(n, *(c[lo:hi] for c in columns))


def run_csv_text(scenario: Scenario, records: Sequence[EpochRecord]) -> str:
    """The CSV wire form: a ``# key=value`` preamble, a header row, one row per epoch.

    Offsets are picoseconds with three decimals; flags are 0/1.  The
    trailing per-path attack columns carry the injected truth so the file
    alone suffices to recompute precision, recall and time deviation.
    ``records`` is a run's ledger, :attr:`RunResult.records` or any
    sequence of :class:`EpochRecord`.  The rows are formatted
    ``_BLOCK_EPOCHS`` at a time, the same blocks :func:`write_run_csv`
    writes to its file one by one.

    Most rows are quiet: no flag and every attack cell ``+0.0``.  Those
    rows go through a second template that writes their flag and attack
    cells as the literal text ``%d`` and ``%.3f`` give for zero, so only
    the cells that vary are formatted.  A ``-0.0`` attack cell, or one
    that merely rounds to zero, is not quiet and takes the full template.
    """
    return "".join(_csv_blocks(scenario, records))


def write_run_csv(result: RunResult, path) -> Path:
    """Write the run CSV of ``result`` to ``path`` one block of rows at a time."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.writelines(_csv_blocks(result.scenario, result.records))
    return path


@dataclass(frozen=True, eq=False)
class ParsedRun:
    """A run read back from its CSV; offsets converted back to seconds.

    ``epochs`` is an int64 array.  ``true_offsets`` and ``corrections``
    are ``(epochs,)`` float arrays; ``measured``, ``flags`` (bool) and
    ``attacks`` are ``(epochs, paths)`` arrays.  All of them are
    read-only.
    """

    name: str
    method: str
    seed: int
    tau: float
    window: int
    n_paths: int
    epochs: np.ndarray
    true_offsets: np.ndarray
    measured: np.ndarray
    flags: np.ndarray
    corrections: np.ndarray
    attacks: np.ndarray

    def __post_init__(self) -> None:
        columns = (self.true_offsets, self.measured, self.flags, self.corrections, self.attacks)
        for column in (self.epochs,) + columns:
            column.flags.writeable = False

    @property
    def sync_errors(self) -> np.ndarray:
        return self.true_offsets + self.corrections

    @property
    def warmup(self) -> int:
        return min(self.window, len(self.epochs))


_LOADTXT_ROW = re.compile(r"at row (\d+)")


def _count_lines(path: Path) -> int:
    """Lines of text in the file at ``path``, as reading it in text mode splits them.

    Text mode ends a line at ``\n``, ``\r`` or ``\r\n``, so a line of
    text is a run of bytes that are neither, and an empty line is no run.
    The file is read in chunks of 64 KiB, which the allocator recycles.
    """
    lines = 0
    after_end = True
    with path.open("rb") as f:
        while chunk := f.read(1 << 16):
            raw = np.frombuffer(chunk, dtype=np.uint8)
            text = (raw != 10) & (raw != 13)
            lines += int(np.count_nonzero(text[1:] > text[:-1])) + bool(text[0] and after_end)
            after_end = not text[-1]
    return lines


def parse_run_csv(path) -> ParsedRun:
    """Read a file produced by :func:`write_run_csv` back into memory.

    The data rows are counted first and the columns allocated; then
    ``np.loadtxt`` reads ``_BLOCK_EPOCHS`` rows at a time from the open
    file, and each block is checked and stored in the columns, so neither
    the file's text nor a table of all its cells is ever held whole.
    Each row must have the header's cell count and every cell must be a
    finite number (``np.loadtxt`` accepts ``nan`` and ``inf``, which the
    writer never produces and which would silently poison the report's
    statistics); an epoch cell must be an integer and a flag cell must
    equal 0 or 1 (so ``1.0`` is accepted as a flag).  Empty lines are
    skipped.  Raises :class:`ValueError` on malformed content (the
    message includes the file name and the row, counted over the whole
    file) and propagates I/O errors unchanged.
    """
    path = Path(path)

    def fail(msg: str):
        raise ValueError(f"{path}: {msg}")

    with path.open(encoding="utf-8") as f:
        meta: dict = {}
        line = f.readline()
        header_lines = 1  # every line read so far has text: an empty one fails as the header
        while line.startswith("#"):
            key, sep, value = line.lstrip("# ").partition("=")
            if sep:
                meta[key.strip()] = value.strip()
            line = f.readline()
            header_lines += 1
        for key in _CSV_PREAMBLE:
            if key not in meta:
                fail(f"missing '# {key}=...' in the preamble")
        try:
            n = int(meta["n_paths"])
            seed = int(meta["seed"])
            window = int(meta["window_epochs"])
            tau = float(meta["tau_s"])
        except ValueError:
            fail("non-numeric preamble value")
        if n < 1:
            fail("n_paths must be positive")
        expected = _csv_header(n)
        if not line:
            fail("missing header row")
        if line.rstrip("\n").split(",") != expected:
            fail("unexpected header row")
        n_rows = _count_lines(path) - header_lines
        epochs = np.empty(n_rows, dtype=np.int64)
        true_offsets = np.empty(n_rows)
        measured = np.empty((n_rows, n))
        flags = np.empty((n_rows, n), dtype=bool)
        corrections = np.empty(n_rows)
        attacks = np.empty((n_rows, n))
        with warnings.catch_warnings():
            # given max_rows, loadtxt warns each time it skips an empty line, as it must here
            warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
            for lo, hi in _blocks(n_rows):
                try:
                    table = np.loadtxt(f, delimiter=",", comments=None, ndmin=2, max_rows=hi - lo)
                except ValueError as exc:
                    # loadtxt counts the rows of its block; the message names the file's
                    fail(_LOADTXT_ROW.sub(lambda m: f"at row {int(m[1]) + lo}", str(exc)))
                cells = table.shape[1]
                if cells != len(expected):
                    fail(f"rows {lo}..{hi - 1} have {cells} cells, expected {len(expected)}")
                if len(table) != hi - lo:
                    fail("the file changed while it was read")
                finite = np.isfinite(table)
                if not finite.all():
                    row, col = np.argwhere(~finite)[0]
                    fail(f"row {lo + row} has a non-finite {expected[col]} cell")
                epoch_cells = table[:, 0]
                # a double holds every integer up to 2**53 exactly
                ok = (np.abs(epoch_cells) <= 2**53) & (epoch_cells == np.trunc(epoch_cells))
                if not ok.all():
                    fail(f"row {lo + np.argmin(ok)} has an epoch that is not an integer")
                flag_cells = table[:, 2 + n : 2 + 2 * n]
                block_flags = np.equal(flag_cells, 1.0, out=flags[lo:hi])
                ok = block_flags | (flag_cells == 0.0)
                if not ok.all():
                    fail(f"row {lo + np.argmin(ok.all(axis=1))} has a flag cell that is not 0/1")
                epochs[lo:hi] = epoch_cells
                np.divide(table[:, 1], _PS, out=true_offsets[lo:hi])
                np.divide(table[:, 2 : 2 + n], _PS, out=measured[lo:hi])
                np.divide(table[:, 2 + 2 * n], _PS, out=corrections[lo:hi])
                np.divide(table[:, 3 + 2 * n :], _PS, out=attacks[lo:hi])
    return ParsedRun(
        name=meta["name"],
        method=meta["method"],
        seed=seed,
        tau=tau,
        window=window,
        n_paths=n,
        epochs=epochs,
        true_offsets=true_offsets,
        measured=measured,
        flags=flags,
        corrections=corrections,
        attacks=attacks,
    )


def parsed_stats(parsed: ParsedRun) -> tuple:
    """Recompute ``(counts, path_counts, tdev_curve)`` from a parsed CSV."""
    return _run_stats(parsed.flags, parsed.attacks, parsed.sync_errors, parsed.warmup, parsed.tau)


# ---------------------------------------------------------------------------
# human-readable summaries and plot data

#: Averaging factors reported in summary tables (times tau).
SUMMARY_FACTORS = (1, 10, 100)


def _format_summary(
    header: dict,
    counts: DetectionCounts,
    path_counts: Sequence[DetectionCounts],
    curve: TdevCurve | None,
    post_errors: Sequence[float] | np.ndarray,
    tau: float,
) -> str:
    out = io.StringIO()
    out.write(
        "run {name}  method={method}  seed={seed}  paths={n_paths}  "
        "epochs={n_epochs}  tau_s={tau:g}  warmup_epochs={warmup}\n\n".format(**header, tau=tau)
    )
    out.write("path  precision     recall  flagged  attacked\n")

    def row(label: str, c: DetectionCounts) -> str:
        return (
            f"{label:>4}  {c.precision * 100:8.3f}%  {c.recall * 100:8.3f}%"
            f"  {c.true_positives + c.false_positives:7d}"
            f"  {c.true_positives + c.false_negatives:8d}\n"
        )

    for i, c in enumerate(path_counts):
        out.write(row(str(i + 1), c))
    out.write(row("all", counts))
    out.write("\ntime deviation of the steered clock:\n")
    if curve is None:
        out.write("  (run too short)\n")
    else:
        out.write("    tau_s    tdev_ps\n")
        for factor in SUMMARY_FACTORS:
            try:
                dev = curve.at(factor * tau)
            except KeyError:
                continue
            out.write(f"  {factor * tau:7g}  {dev * _PS:9.3f}\n")
    errors = np.asarray(post_errors, dtype=float)
    if len(errors):
        # fsum is exactly rounded; it reads the squares as Python floats a block at a time
        squares = errors * errors
        blocks = (squares[lo:hi].tolist() for lo, hi in _blocks(len(squares)))
        rms = math.sqrt(math.fsum(itertools.chain.from_iterable(blocks)) / len(errors))
        peak = float(np.abs(errors).max())
        out.write(
            f"\nsync error after warmup: rms={rms * _PS:.3f} ps"
            f"  max|e|={peak * _PS:.3f} ps  ({len(errors)} epochs)\n"
        )
    return out.getvalue()


def summarize_run(result: RunResult) -> str:
    s = result.scenario
    header = {
        "name": s.name,
        "method": s.method,
        "seed": s.seed,
        "n_paths": s.n_paths,
        "n_epochs": s.n_epochs,
        "warmup": s.warmup,
    }
    return _format_summary(
        header,
        result.counts,
        result.path_counts,
        result.tdev,
        result.sync_errors[s.warmup :],
        s.tau,
    )


def summarize_parsed(parsed: ParsedRun, stats: tuple | None = None) -> str:
    """Summary table of a parsed CSV; pass ``stats`` when its :func:`parsed_stats` are at hand."""
    counts, paths, curve = parsed_stats(parsed) if stats is None else stats
    header = {
        "name": parsed.name,
        "method": parsed.method,
        "seed": parsed.seed,
        "n_paths": parsed.n_paths,
        "n_epochs": len(parsed.epochs),
        "warmup": parsed.warmup,
    }
    return _format_summary(
        header, counts, paths, curve, parsed.sync_errors[parsed.warmup :], parsed.tau
    )


def plotdata_text(curve: TdevCurve | None) -> str:
    """``tau_s,tdev_ps`` rows for log-log plotting."""
    out = ["tau_s,tdev_ps"]
    if curve is not None:
        out += [f"{t:g},{d * _PS:.3f}" for t, d in zip(curve.taus, curve.deviations)]
    return "\n".join(out) + "\n"


EMIT_FORMATS = ("csv", "summary", "plotdata")


def emit(result: RunResult, out_dir, formats: Sequence[str] = EMIT_FORMATS) -> list:
    """Write the selected artifact files for ``result`` into ``out_dir``.

    File stems are ``<name>_<method>_seed<seed>`` so sweeps over methods
    and seeds never collide.  Returns the written paths in ``formats``
    order.
    """
    bad = [f for f in formats if f not in EMIT_FORMATS]
    if bad:
        raise ValueError(f"unknown emit formats {bad}; expected ones of {EMIT_FORMATS}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    s = result.scenario
    stem = f"{s.name}_{s.method}_seed{s.seed}"
    written = []
    for fmt in formats:
        if fmt == "csv":
            written.append(write_run_csv(result, out_dir / f"{stem}.csv"))
            continue
        if fmt == "summary":
            path = out_dir / f"{stem}_summary.txt"
            text = summarize_run(result)
        else:
            path = out_dir / f"{stem}_tdev.csv"
            text = plotdata_text(result.tdev)
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# multi-run comparison

def sweep(
    preset_names: Sequence[str],
    methods: Sequence[str],
    seeds: Sequence[int],
) -> list:
    """Run every (preset, method) pair over ``seeds`` and aggregate medians.

    Returns one row per pair: median precision/recall over seeds and the
    median time deviation at the summary averaging times.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    rows = []
    for name in preset_names:
        for method in methods:
            results = [run_scenario(preset(name, method=method, seed=s)) for s in seeds]
            devs = {}
            for factor in SUMMARY_FACTORS:
                values = []
                for r in results:
                    if r.tdev is None:
                        continue
                    try:
                        values.append(r.tdev.at(factor * r.scenario.tau))
                    except KeyError:
                        pass
                devs[factor] = statistics.median(values) if values else None
            rows.append(
                {
                    "preset": name,
                    "method": method,
                    "seeds": len(seeds),
                    "precision": statistics.median(r.counts.precision for r in results),
                    "recall": statistics.median(r.counts.recall for r in results),
                    "tdev_ps": {f: (None if d is None else d * _PS) for f, d in devs.items()},
                }
            )
    return rows


def format_sweep_table(rows: Sequence[dict]) -> str:
    out = io.StringIO()
    out.write(
        f"{'preset':<8}{'method':<8}{'seeds':>5}{'precision':>11}{'recall':>9}"
        f"{'tdev@1s':>10}{'tdev@10s':>10}{'tdev@100s':>11}\n"
    )
    for r in rows:
        devs = r["tdev_ps"]

        def cell(f):
            return "-" if devs.get(f) is None else f"{devs[f]:.3f}"

        out.write(
            f"{r['preset']:<8}{r['method']:<8}{r['seeds']:>5}"
            f"{r['precision'] * 100:>10.3f}%{r['recall'] * 100:>8.3f}%"
            f"{cell(1):>10}{cell(10):>10}{cell(100):>11}\n"
        )
    return out.getvalue()
