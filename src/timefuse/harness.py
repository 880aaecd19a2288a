"""Scenario configuration, the end-to-end simulation loop, presets and file output.

A :class:`Scenario` pins everything a run needs -- clock and path noise,
the event schedule rules, the steering method, detector calibration
inputs and the seed -- so that a run is a pure function of the scenario.
``run_scenario`` executes the epoch loop and returns a :class:`RunResult`
with the run's per-epoch columns and the metrics derived from them;
``emit`` writes the result as CSV (one row per epoch, in the column
layout of ``_CSV_COLUMNS``), a human-readable summary table, or
(tau, tdev) plot data.  Emitted CSVs carry enough metadata in a comment
preamble to recompute every metric from the file alone:
``parse_run_csv`` reads one back into a :class:`RunResult` of its own,
whose metrics come from the file's columns.

All offsets are held in seconds internally; files report picoseconds
with three decimals.  Path indices are 0-based in code and 1-based in
file headers and tables.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import numbers
import re
import statistics
import warnings
from collections import deque
from collections.abc import Sequence as SequenceABC
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._csvrows import RowKernel
from ._dsloop import MIXED, DsRun, DsState, ds_block
from ._util import centred_axis, logistic
from .baselines import fta_block, single_block, single_residual_sigma
from .clocksim import (
    EventSchedule,
    NoiseConfig,
    PathObservation,
    PeriodicAttackRule,
    PeriodicJumpRule,
    RngStreams,
    build_schedule,
    draw_noise,
    schedule_events,
)
from .evidence import (
    DEFAULT_STEEPNESS_LOG_ODDS,
    VACUOUS,
    VARIANTS,
    MassPair,
    threshold_for_false_alarm,
)
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

_NAME_RE = re.compile(r"[A-Za-z0-9._-]{1,64}")

#: The scenario file, in file order: the section that holds each setting
#: (``None`` for the top level), its key there, the :class:`Scenario` field
#: it sets and the field's type, a key of :data:`_TYPES`.  The type of a
#: rule list is its rule class; a rule's keys in the file are its field
#: names, and :data:`_RULE_FIELDS` gives their types.  ``Scenario`` checks
#: its fields, :meth:`Scenario.to_dict` writes them and
#: :func:`scenario_from_dict` reads them by these two tables.
_SCENARIO_KEYS = (
    (None, "name", "name", "str"),
    (None, "method", "method", "str"),
    (None, "seed", "seed", "int"),
    (None, "n_paths", "n_paths", "int"),
    (None, "n_epochs", "n_epochs", "int"),
    (None, "tau_s", "tau", "float"),
    ("noise", "sigma_offset_s", "sigma_offset", "float"),
    ("noise", "sigma_drift_ss", "sigma_drift", "float"),
    ("noise", "sigma_link_s", "sigma_link", "per_path"),
    ("noise", "sigma_meas_s", "sigma_meas", "per_path"),
    ("detector", "p_false_alarm", "p_false_alarm", "float"),
    ("detector", "p_missed", "p_missed", "float"),
    ("detector", "mass_ceiling", "mass_ceiling", "float"),
    ("detector", "mass_floor", "mass_floor", "float"),
    ("detector", "steepness_log_odds", "steepness_log_odds", "float"),
    ("detector", "two_sided", "two_sided", "bool"),
    ("detector", "window_epochs", "window", "int"),
    ("detector", "quarantine_epochs", "quarantine", "int"),
    (None, "attacks", "attack_rules", PeriodicAttackRule),
    (None, "jumps", "jump_rules", PeriodicJumpRule),
)

#: Bounds that keep every run of a valid scenario finite.  Steering takes
#: back what the kept reports show and coasting holds the frequency
#: estimate, so an offset grows only as its terms add up: within about
#: ``SIGMA_MAX * TAU_MAX * E**1.5`` over ``E`` epochs (the frequency walk)
#: plus ``MAGNITUDE_MAX * E`` (jumps).  Three paths with every setting at
#: its bound reach 6e13 s in 2,500 epochs, whose square in ps is far inside
#: the float range.  ``MAGNITUDE_MAX`` stays above 100 s, an attack the CSV
#: writes through its row template.  Below about 1e-162 s, a tau's window
#: of centred times squares to zero.  ``RATE_MIN`` keeps ``1 - p / 2`` below
#: 1.0, so the detectors' normal quantiles are finite.  A DS cell's log-odds
#: are ``steepness_log_odds * (r / midpoint - 1)``, with a midpoint above
#: 1e-178 s (a positive sigma's square is positive, and rates are below
#: 0.5): at ``STEEPNESS_MAX`` a residual of 1e100 s gives less than 1e281.
#: ``ATTACK_MIN`` is the CSV's resolution; a smaller attack reads back as none.
SIGMA_MAX = 1e3
MAGNITUDE_MAX = 1e3
TAU_MIN = 1e-6
TAU_MAX = 1e6
RATE_MIN = 1e-15
STEEPNESS_MAX = 1e3
ATTACK_MIN = 1e-15

_RULE_FIELDS = {
    "paths": "paths",
    "period_s": "float",
    "phase_s": "float",
    "magnitude_s": "float",
    "duration_epochs": "int",
}

#: What a value of each type must be, as error messages say it.  A number
#: ``per_path`` is one number for every path or a list of one per path.
_TYPES = {
    "str": "a string",
    "bool": "true or false",
    "int": "an integer",
    "float": "a number",
    "per_path": "a number or one number per path",
    "paths": "a list of path indices",
    PeriodicAttackRule: "a list of PeriodicAttackRule",
    PeriodicJumpRule: "a list of PeriodicJumpRule",
}


class ScenarioError(ValueError):
    """A scenario field failed validation; the message names the field."""


def _typed(value, kind, context: str):
    """``value`` checked as a ``kind`` setting named ``context``, numbers as ``int`` or ``float``.

    A bool is no number and a float no int, however whole.  Lists become
    tuples, and each rule a rule of checked fields.
    """
    if isinstance(kind, type) and isinstance(value, (list, tuple)):
        rules = []
        for k, rule in enumerate(value):
            at = f"{context}[{k}]"
            if not isinstance(rule, kind):
                raise ScenarioError(f"{at} must be a {kind.__name__}")
            checked = {
                f.name: _typed(getattr(rule, f.name), _RULE_FIELDS[f.name], f"{at}.{f.name}")
                for f in fields(rule)
            }
            rules.append(kind(**checked))
        return tuple(rules)
    if kind in ("per_path", "paths") and isinstance(value, (list, tuple)):
        item = "float" if kind == "per_path" else "int"
        return tuple(_typed(v, item, f"{context}[{k}]") for k, v in enumerate(value))
    if kind == "str" and isinstance(value, str) or kind == "bool" and isinstance(value, bool):
        return value
    # the built-in types come first in each check: an ABC check takes ten times as long
    if not isinstance(value, bool):
        if kind == "int" and isinstance(value, (int, numbers.Integral)):
            return int(value)
        if kind in ("float", "per_path") and isinstance(value, (float, int, numbers.Real)):
            try:
                return float(value)
            except OverflowError:
                raise ScenarioError(f"{context} is beyond the float range") from None
    raise ScenarioError(f"{context} must be {_TYPES[kind]}")


def _plain(value):
    """A field's value as plain data: tuples become lists and rules mappings of their fields."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def _check_run(name: str, method: str, n_paths: int, seed: int, window: int, tau: float) -> str:
    """The canonical spelling of ``method``, once the settings a run CSV's preamble holds pass.

    :class:`Scenario` and :func:`parse_run_csv` both check these.  A message
    names the field, and in brackets its preamble key where the two differ.
    """
    if not _NAME_RE.fullmatch(name):
        raise ScenarioError("name: must be 1-64 characters of letters, digits, '.', '_' or '-'")
    if n_paths < 2:
        raise ScenarioError("n_paths: need at least 2")
    for value, least, fname in ((seed, 0, "seed"), (window, 2, "window (window_epochs)")):
        if value < least:
            raise ScenarioError(f"{fname}: must be at least {least}")
    if not TAU_MIN <= tau <= TAU_MAX:
        raise ScenarioError(f"tau (tau_s): must lie in [{TAU_MIN:g}, {TAU_MAX:g}] s")
    for m in METHODS:
        if method.upper() == m.upper():
            if m == "FTA" and n_paths < 3:
                raise ScenarioError("n_paths: FTA needs at least 3 paths")
            return m
    raise ScenarioError(f"method: unknown {method!r}; expected one of {METHODS}")


@dataclass(frozen=True)
class Scenario:
    """Complete, validated configuration of one simulation run.

    Noise defaults are the standard bench values: 10 ps phase walk,
    1 ps/s frequency walk, 10 ps link noise and 25 ps measurement noise
    per path, at a 1 s epoch.  ``sigma_link``/``sigma_meas`` accept a
    scalar (applied to every path) or one value per path.  The fields
    have the types of :data:`_SCENARIO_KEYS`, with numbers stored as
    ``int`` or ``float``: ``tau=1`` and ``tau=1.0`` are one scenario.
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
        for _, _, fname, kind in _SCENARIO_KEYS:
            object.__setattr__(self, fname, _typed(getattr(self, fname), kind, fname))
        run = (self.name, self.method, self.n_paths, self.seed, self.window, self.tau)
        object.__setattr__(self, "method", _check_run(*run))
        for fname, least in (("n_epochs", 1), ("quarantine", 0)):
            if getattr(self, fname) < least:
                raise ScenarioError(f"{fname}: must be at least {least}")
        if not 0.0 < self.steepness_log_odds <= STEEPNESS_MAX:
            raise ScenarioError(f"steepness_log_odds: must lie in (0, {STEEPNESS_MAX:g}]")
        for fname in ("sigma_offset", "sigma_drift", "sigma_link", "sigma_meas"):
            v = getattr(self, fname)
            values = v if isinstance(v, tuple) else (v,)
            if isinstance(v, tuple) and len(v) != self.n_paths:
                raise ScenarioError(f"{fname}: got {len(v)} values for {self.n_paths} paths")
            if not all(0.0 <= s <= SIGMA_MAX for s in values):
                raise ScenarioError(f"{fname}: values must lie in [0, {SIGMA_MAX:g}]")
        for fname in ("p_false_alarm", "p_missed"):
            if not RATE_MIN <= getattr(self, fname) < 0.5:
                raise ScenarioError(f"{fname}: must lie in [{RATE_MIN:g}, 0.5)")
        if not 0.0 <= self.mass_floor < 0.5 < self.mass_ceiling <= 1.0:
            raise ScenarioError(
                "mass_floor/mass_ceiling: need 0 <= floor < 0.5 < ceiling <= 1"
            )
        for rule in self.attack_rules:
            if not rule.paths:
                raise ScenarioError("attack_rules: rule with no paths")
            if rule.duration_epochs < 1:
                raise ScenarioError("attack_rules: duration_epochs must be >= 1")
        for fname, least in (("attack_rules", ATTACK_MIN), ("jump_rules", 0.0)):
            for rule in getattr(self, fname):
                if not (rule.magnitude_s and least <= abs(rule.magnitude_s) <= MAGNITUDE_MAX):
                    raise ScenarioError(
                        f"{fname}: magnitude_s must be non-zero and within"
                        f" ±[{least:g}, {MAGNITUDE_MAX:g}] s"
                    )
        try:
            schedule_events(
                self.attack_rules, self.jump_rules, self.n_epochs, self.n_paths, self.tau
            )
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
        if not all(s > 0.0 for s in sigmas):
            raise ScenarioError(
                f"noise: every residual sigma of the {self.method} detector must be positive"
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
        """The expanded event rules, dense; :meth:`__post_init__` has checked them sparsely."""
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
        data: dict = {}
        for section, key, fname, _ in _SCENARIO_KEYS:
            place = data if section is None else data.setdefault(section, {})
            place[key] = _plain(getattr(self, fname))
        return data


def _mapping(value, context: str, known, required=()) -> dict:
    """``value``, checked to be a mapping of keys in ``known`` with every key in ``required``."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{context}: expected a mapping")
    unknown = sorted(set(value).difference(known), key=str)
    if unknown:
        raise ScenarioError(f"{context}: unknown keys {unknown}")
    for key in required:
        if key not in value:
            raise ScenarioError(f"{context}: missing required key {key!r}")
    return value


def _required(cls) -> list:
    """The fields of dataclass ``cls`` that have no default."""
    return [f.name for f in fields(cls) if f.default is MISSING]


def _from_file(value, kind, context: str):
    """A file's ``value`` for a ``kind`` setting named ``context``, with rules built.

    JSON has one number type, so a whole-number float such as ``30.0`` is
    read as an int where an int belongs.
    """
    if isinstance(kind, type) and isinstance(value, list):
        names = [f.name for f in fields(kind)]
        rules = []
        for k, entry in enumerate(value):
            entry = _mapping(entry, f"{context}[{k}]", names, _required(kind))
            rules.append(kind(**{n: _from_file(v, _RULE_FIELDS[n], n) for n, v in entry.items()}))
        return rules
    if kind == "paths" and isinstance(value, list):
        return [_from_file(v, "int", context) for v in value]
    if kind == "int" and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def scenario_from_dict(data: dict) -> Scenario:
    """Build a :class:`Scenario` from the nested plain-data form :data:`_SCENARIO_KEYS` lays out.

    Only the structure is checked here.  Unknown keys anywhere in it are
    rejected so that typos in scenario files fail loudly instead of
    silently using a default, and the keys of fields with no default are
    required.  :class:`Scenario` checks the values, as it does in Python.
    """
    no_default = _required(Scenario)
    required = [key for _, key, fname, _ in _SCENARIO_KEYS if fname in no_default]
    found = {None: _mapping(data, "scenario", {s or k for s, k, _, _ in _SCENARIO_KEYS}, required)}
    kwargs = {}
    for section, key, fname, kind in _SCENARIO_KEYS:
        if section not in found:
            known = [k for s, k, _, _ in _SCENARIO_KEYS if s == section]
            found[section] = _mapping(data.get(section, {}), section, known)
        if key in found[section]:
            kwargs[fname] = _from_file(found[section][key], kind, key)
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
    """One run, simulated by :func:`run_scenario` or read back by :func:`parse_run_csv`.

    ``name``, ``method``, ``seed``, ``tau`` and ``window`` are the run
    CSV's preamble.  ``epochs`` (int64), ``true_offsets`` (the clock's
    true offset), ``corrections`` (the steering correction chosen at that
    epoch) and ``sync_errors`` (their sum: the steered clock's residual
    time error) are read-only ``(epochs,)`` arrays.  ``measured``,
    ``flags`` and ``attacks`` are read-only ``(epochs, paths)`` arrays of
    the reported offsets, the detector flags and the injected attack
    bias.  ``log_odds`` holds the fused log-odds of every cell of a
    simulated DS run and ``drift_taus`` the ``(epochs,)`` drift * tau that
    each of its epochs fed the evidence kernel, so that
    ``LogOddsKernel(calibrations, method)(measured, drift_taus)`` is
    ``log_odds``; ``scenario`` is the scenario of a simulated run.  All
    three are ``None`` otherwise, since the CSV carries none of them.

    ``sync_errors``, ``counts``, ``path_counts`` and ``tdev`` are
    computed from the columns when the run is built.  ``tdev`` is the
    time deviation of ``sync_errors`` over the post-warm-up stretch, or
    ``None`` when that is too short.  Counts exclude warm-up epochs.
    """

    name: str
    method: str
    seed: int
    tau: float
    window: int
    epochs: np.ndarray
    true_offsets: np.ndarray
    corrections: np.ndarray
    measured: np.ndarray
    flags: np.ndarray
    attacks: np.ndarray
    log_odds: np.ndarray | None = None
    drift_taus: np.ndarray | None = None
    scenario: Scenario | None = None
    sync_errors: np.ndarray = field(init=False)
    counts: DetectionCounts = field(init=False)
    path_counts: tuple = field(init=False)
    tdev: TdevCurve | None = field(init=False)

    def __post_init__(self) -> None:
        shape = self.measured.shape
        epoch_columns = [self.epochs, self.true_offsets, self.corrections]
        epoch_columns += [] if self.drift_taus is None else [self.drift_taus]
        cells = [self.measured, self.flags, self.attacks]
        cells += [] if self.log_odds is None else [self.log_odds]
        if any(c.shape != shape[:1] for c in epoch_columns) or any(c.shape != shape for c in cells):
            raise ValueError(f"need {shape[:1]} per-epoch and {shape} per-path columns")
        sync_errors = self.true_offsets + self.corrections
        for column in epoch_columns + cells + [sync_errors]:
            column.flags.writeable = False
        warm = self.warmup
        path_counts = per_path_counts(self.flags, self.attacks, warm)
        post = sync_errors[warm:]
        object.__setattr__(self, "sync_errors", sync_errors)
        object.__setattr__(self, "counts", sum(path_counts, DetectionCounts(0, 0, 0, 0)))
        object.__setattr__(self, "path_counts", path_counts)
        object.__setattr__(self, "tdev", tdev_curve(post, self.tau) if len(post) >= 4 else None)

    @property
    def n_paths(self) -> int:
        return self.measured.shape[1]

    @property
    def warmup(self) -> int:
        """Epochs excluded from scoring while the frequency estimate converges."""
        return min(self.window, len(self.epochs))

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
        return len(self.run.epochs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[e] for e in range(len(self))[index]]
        row = range(len(self))[index]
        run = self.run
        epoch = run.epochs[row].item()
        observations = tuple(
            PathObservation(i, epoch, m, a)
            for i, (m, a) in enumerate(
                zip(run.measured[row].tolist(), run.attacks[row].tolist())
            )
        )
        if run.log_odds is None:
            fused = [VACUOUS] * len(observations)
        else:
            fused = [MassPair(m, 1.0 - m) for m in map(logistic, run.log_odds[row].tolist())]
        verdicts = tuple(
            Verdict(i, epoch, f, flag)
            for i, (f, flag) in enumerate(zip(fused, run.flags[row].tolist()))
        )
        return EpochRecord(
            epoch,
            run.true_offsets[row].item(),
            observations,
            verdicts,
            run.corrections[row].item(),
            run.method,
        )


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute the epoch loop for ``scenario``; deterministic in (scenario, seed).

    The run goes ``_BLOCK_EPOCHS`` epochs at a time.  Each block's noise
    is drawn before its epochs, on streams that continue from the block
    before (:func:`~timefuse.clocksim.draw_noise`), and the event
    schedule is expanded up front, so an epoch only does what depends on
    the previous epoch's correction: advance the true clock with that
    correction and any scheduled jump, form every path's report, classify
    the paths (method-dependent), and compute the next correction.  Each
    epoch's true drift * tau comes from one ``np.add.accumulate`` of the
    block's frequency increments, which adds left to right as a scalar
    loop would.

    Every method runs a block through one call, ``state = step(state, lo,
    steps, paths, out)``: :func:`~timefuse._dsloop.ds_block`,
    :func:`~timefuse.baselines.fta_block` or
    :func:`~timefuse.baselines.single_block`.  ``state`` is what the
    method carries from one epoch to the next and ``lo`` the block's first
    epoch.  ``steps`` holds the block's true drift * tau, clock noise and
    jumps, ``paths`` its link noise, measurement noise and attacks, and
    ``out`` its slices of the run's offset, correction, report and flag
    columns, then for DS its drift * tau and log-odds columns.

    The fused detector fits the frequency over a window of the
    accumulated steered offsets from strictly earlier epochs.  A DS block
    guesses each epoch past the warm-up that is not an event (an attack
    or a clock jump) from the verdict of the last non-event epoch: *calm*
    (every report kept) after one that flagged no path, with no path in
    quarantine, and *locked* (holdover) after one that flagged every
    path.  One vectorised pass after the block checks the guesses, and
    the block runs again from the first that fails, exact there.  An FTA
    block computes its first offset exactly and solves the rest of its
    steering recurrence in vectorised fixed-point rounds
    (:func:`~timefuse._util.settle`): a fixed point whose first offset is
    exact is the per-epoch loop's trajectory, and a block of L epochs
    settles within L rounds.  So every method's flags, corrections and
    log-odds are those of its exact path.
    """
    n = scenario.n_paths
    n_epochs = scenario.n_epochs
    tau = scenario.tau
    window = scenario.window
    method = scenario.method
    noise = scenario.noise()
    schedule = scenario.schedule()
    rngs = RngStreams(scenario.seed, n)
    attacks = schedule.attacks
    time_axis = [k * tau for k in range(min(window, n_epochs))]
    full_axis = centred_axis(time_axis) if len(time_axis) == window else None

    true_column = np.empty(n_epochs)
    corrections = np.empty(n_epochs)
    measured = np.empty((n_epochs, n))
    flags = np.zeros((n_epochs, n), dtype=bool)
    columns = (true_column, corrections, measured, flags)
    drift_taus = log_odds = None
    if method in VARIANTS:
        drift_taus = np.empty(n_epochs)
        log_odds = np.empty((n_epochs, n))
        columns += (drift_taus, log_odds)
        kernel = LogOddsKernel(scenario.calibrations(), method)
        ds = DsRun(kernel, tau, window, time_axis, full_axis, scenario.quarantine)
        step = functools.partial(ds_block, ds)
        state = DsState(0.0, 0.0, 0.0, deque(), [0] * n, MIXED)
    elif method == "FTA":
        step, state = fta_block, (0.0, 0.0)
    else:
        sigma = single_residual_sigma(noise)
        threshold = threshold_for_false_alarm(sigma, scenario.p_false_alarm, scenario.two_sided)
        axis = full_axis if tau == 1.0 and window * n_epochs <= 2**53 else None
        step = functools.partial(single_block, threshold, tau, axis)
        state = (0.0, 0.0, 0.0, 0.0, deque(maxlen=window), deque(maxlen=window))

    drift = 0.0
    # epoch_sums, called in the DS loop, leaves numpy's error state to its caller
    with np.errstate(invalid="ignore", over="ignore"):
        for lo, hi in _blocks(n_epochs):
            clock_noise, link, meas = draw_noise(noise, rngs, hi - lo)
            # the true drift before each epoch, added left to right as a scalar loop adds it
            drifts = np.add.accumulate(np.concatenate(([drift], clock_noise[:, 1])))
            drift = drifts[-1].item()
            steps = (drifts[:-1] * tau, clock_noise[:, 0], schedule.jumps[lo:hi])
            paths = (link, meas, attacks[lo:hi])
            state = step(state, lo, steps, paths, tuple(c[lo:hi] for c in columns))
    return RunResult(
        name=scenario.name,
        method=method,
        seed=scenario.seed,
        tau=tau,
        window=window,
        epochs=np.arange(n_epochs),
        true_offsets=true_column,
        corrections=corrections,
        measured=measured,
        flags=flags,
        attacks=attacks,
        log_odds=log_odds,
        drift_taus=drift_taus,
        scenario=scenario,
    )


# ---------------------------------------------------------------------------
# file output and round-tripping

_PS = 1e12

#: Preamble keys of the run CSV, in file order.
_CSV_PREAMBLE = ("name", "method", "seed", "tau_s", "window_epochs", "n_paths")

#: The run CSV's columns, in file order: the :class:`RunResult` field each
#: one holds, its name in the header row, whether it has one cell per path
#: (``{}`` in the name is the 1-based path) and its cells' ``%`` format.
#: A ``%.3f`` column holds offsets in seconds, written as picoseconds.
_CSV_COLUMNS = (
    ("epochs", "epoch", False, "%d"),
    ("true_offsets", "true_theta_ps", False, "%.3f"),
    ("measured", "theta_m_{}_ps", True, "%.3f"),
    ("flags", "flag_{}", True, "%d"),
    ("corrections", "u_theta_ps", False, "%.3f"),
    ("attacks", "attack_{}_ps", True, "%.3f"),
)


def _csv_layout(n: int) -> tuple:
    """``(header, formats, columns)`` of the run CSV of ``n`` paths, from :data:`_CSV_COLUMNS`.

    ``header`` and ``formats`` give each cell of a row its name and its
    ``%`` format.  ``columns`` holds ``(field, cells, fmt)`` for each
    column, where ``cells`` picks the column's cells out of a row: a
    slice of ``n`` cells for a per-path column, one index otherwise.
    """
    header, formats, columns = [], [], []
    for name, label, per_path, fmt in _CSV_COLUMNS:
        start = len(header)
        if per_path:
            header += [label.format(i + 1) for i in range(n)]
            columns.append((name, slice(start, start + n), fmt))
        else:
            header.append(label)
            columns.append((name, start, fmt))
        formats += [fmt] * (len(header) - start)
    return header, formats, columns


def _row_kernel(n: int) -> RowKernel:
    """The row kernel of the run CSV of ``n`` paths, with its ``%d`` columns as integer cells."""
    header, _, columns = _csv_layout(n)
    return RowKernel(len(header), tuple(cells for _, cells, fmt in columns if fmt == "%d"))


def _chunk_cells(kernel: RowKernel, columns: list, run: RunResult, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo:hi`` of ``run`` as the CSV's cells, in the kernel's scratch.

    ``columns`` is the third item of :func:`_csv_layout`; offsets become
    picoseconds.
    """
    v = kernel.chunk[: hi - lo]
    for name, cells, fmt in columns:
        column = getattr(run, name)[lo:hi]
        if fmt == "%d":
            v[:, cells] = column
        else:
            np.multiply(column, _PS, out=v[:, cells])
    return v


def _csv_rows(kernel: RowKernel, layout: tuple, run: RunResult, lo: int, hi: int) -> list:
    """The CSV rows of epochs ``lo:hi`` of ``run``, as pieces of bytes.

    The kernel formats them a chunk at a time.  If it declines a chunk,
    the whole block goes through the one ``%`` row template of
    ``layout`` (:func:`_csv_layout`) instead.
    """
    _, formats, columns = layout
    chunks = [(a, min(a + kernel.chunk_rows, hi)) for a in range(lo, hi, kernel.chunk_rows)]
    pieces = []
    for a, b in chunks:
        piece = kernel.format(_chunk_cells(kernel, columns, run, a, b))
        if piece is None:
            break
        pieces.append(piece)
    else:
        return pieces
    # epoch and flag cells ride along as floats; "%d" prints them as integers
    row = ",".join(formats) + "\n"
    text = "".join(
        row % tuple(cells)
        for a, b in chunks
        for cells in _chunk_cells(kernel, columns, run, a, b).tolist()
    )
    return [text.encode("ascii")]


def _csv_blocks(run: RunResult):
    """The run CSV as pieces of bytes: the preamble and header, then each block's rows.

    One kernel, and so one set of scratch buffers, serves every block.
    """
    n = run.n_paths
    preamble = (run.name, run.method, run.seed, repr(run.tau), run.window, n)
    head = "".join(f"# {key}={value}\n" for key, value in zip(_CSV_PREAMBLE, preamble))
    layout = _csv_layout(n)
    yield (head + ",".join(layout[0]) + "\n").encode("utf-8")
    kernel = _row_kernel(n)
    for lo, hi in _blocks(len(run.epochs)):
        yield from _csv_rows(kernel, layout, run, lo, hi)


def run_csv_text(scenario: Scenario, records: EpochRecords) -> str:
    """The CSV wire form: a ``# key=value`` preamble, a header row, one row per epoch.

    Offsets are picoseconds with three decimals; flags are 0/1.  The
    trailing per-path attack columns carry the injected truth so the file
    alone suffices to recompute precision, recall and time deviation.
    ``records`` is :attr:`RunResult.records` of a run of ``scenario``,
    and the text is written from that run (``records.run``).  The rows
    are formatted ``_BLOCK_EPOCHS`` at a time, the same blocks
    :func:`write_run_csv` writes to its file one by one.

    The text is byte for byte what one ``%d``/``%.3f`` row template
    gives.  A numpy kernel (:class:`~timefuse._csvrows.RowKernel`)
    formats the rows from their picosecond doubles: it rounds each
    ``%.3f`` cell exactly, half-even on the binary value as ``%`` does,
    and writes the digits with integer arithmetic.  A block with a cell
    the kernel cannot take -- a non-finite value, one that rounds to
    2**53 thousandths or more, or a ``%d`` cell that is not a
    non-negative integer -- goes whole through that row template
    instead.
    """
    return b"".join(_csv_blocks(records.run)).decode("utf-8")


def write_run_csv(result: RunResult, path) -> Path:
    """Write the run CSV of ``result`` to ``path`` one block of rows at a time."""
    path = Path(path)
    with path.open("wb") as f:
        f.writelines(_csv_blocks(result))
    return path


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


def parse_run_csv(path) -> RunResult:
    """Read a file produced by :func:`write_run_csv` back into a :class:`RunResult`.

    The run's ``scenario`` and ``log_odds`` are ``None``: the file carries
    neither.  The data rows are counted first and the columns allocated;
    then ``np.loadtxt`` reads ``_BLOCK_EPOCHS`` rows at a time from the
    open file, and each block is checked and stored in the columns, so
    neither the file's text nor a table of all its cells is ever held
    whole.  The preamble's name, method, path count, seed, window and tau
    must pass :class:`Scenario`'s checks.  Each row must have the header's
    cell count and every cell must be a finite number (``np.loadtxt``
    accepts ``nan`` and ``inf``, which the writer never produces and which
    would silently poison the report's statistics); an epoch cell must be
    an integer and a flag cell must equal 0 or 1 (so ``1.0`` is accepted
    as a flag).  Empty lines are skipped.  Raises :class:`ValueError` on
    malformed content (the message includes the file name and the row,
    counted over the whole file) and propagates I/O errors unchanged.
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
        try:
            method = _check_run(meta["name"], meta["method"], n, seed, window, tau)
        except ScenarioError as exc:
            fail(str(exc))
        expected, _, layout = _csv_layout(n)
        if not line:
            fail("missing header row")
        if line.rstrip("\n").split(",") != expected:
            fail("unexpected header row")
        n_rows = _count_lines(path) - header_lines
        columns = {
            name: np.empty(
                (n_rows, n) if isinstance(cells, slice) else n_rows,
                dtype={"epochs": np.int64, "flags": bool}.get(name, float),
            )
            for name, cells, _ in layout
        }
        at = {name: cells for name, cells, _ in layout}
        with warnings.catch_warnings():
            # given max_rows, loadtxt warns each time it skips an empty line, as it must here
            warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
            for lo, hi in _blocks(n_rows):
                try:
                    table = np.loadtxt(f, delimiter=",", comments=None, ndmin=2, max_rows=hi - lo)
                except ValueError as exc:
                    # loadtxt counts the rows of its block; the message names the file's
                    fail(_LOADTXT_ROW.sub(lambda m: f"at row {int(m[1]) + lo}", str(exc)))
                n_cells = table.shape[1]
                if n_cells != len(expected):
                    fail(f"rows {lo}..{hi - 1} have {n_cells} cells, expected {len(expected)}")
                if len(table) != hi - lo:
                    fail("the file changed while it was read")
                finite = np.isfinite(table)
                if not finite.all():
                    row, col = np.argwhere(~finite)[0]
                    fail(f"row {lo + row} has a non-finite {expected[col]} cell")
                epoch_cells = table[:, at["epochs"]]
                # a double holds every integer up to 2**53 exactly
                ok = (np.abs(epoch_cells) <= 2**53) & (epoch_cells == np.trunc(epoch_cells))
                if not ok.all():
                    fail(f"row {lo + np.argmin(ok)} has an epoch that is not an integer")
                flag_cells = table[:, at["flags"]]
                block_flags = np.equal(flag_cells, 1.0, out=columns["flags"][lo:hi])
                ok = block_flags | (flag_cells == 0.0)
                if not ok.all():
                    fail(f"row {lo + np.argmin(ok.all(axis=1))} has a flag cell that is not 0/1")
                columns["epochs"][lo:hi] = epoch_cells
                for name, cells, fmt in layout:
                    if fmt == "%.3f":
                        np.divide(table[:, cells], _PS, out=columns[name][lo:hi])
    return RunResult(
        name=meta["name"], method=method, seed=seed, tau=tau, window=window, **columns
    )


def parsed_stats(run: RunResult) -> tuple:
    """``(counts, path_counts, tdev_curve)`` of a run, as computed when it was built."""
    return run.counts, run.path_counts, run.tdev


# ---------------------------------------------------------------------------
# human-readable summaries and plot data

#: Averaging factors reported in summary tables (times tau).
SUMMARY_FACTORS = (1, 10, 100)


def _format_summary(run: RunResult) -> str:
    warm = run.warmup
    out = io.StringIO()
    out.write(
        f"run {run.name}  method={run.method}  seed={run.seed}  paths={run.n_paths}  "
        f"epochs={len(run.epochs)}  tau_s={run.tau:g}  warmup_epochs={warm}\n\n"
    )
    out.write("path  precision     recall  flagged  attacked\n")

    def row(label: str, c: DetectionCounts) -> str:
        return (
            f"{label:>4}  {c.precision * 100:8.3f}%  {c.recall * 100:8.3f}%"
            f"  {c.true_positives + c.false_positives:7d}"
            f"  {c.true_positives + c.false_negatives:8d}\n"
        )

    for i, c in enumerate(run.path_counts):
        out.write(row(str(i + 1), c))
    out.write(row("all", run.counts))
    out.write("\ntime deviation of the steered clock:\n")
    if run.tdev is None:
        out.write("  (run too short)\n")
    else:
        out.write("    tau_s    tdev_ps\n")
        for factor in SUMMARY_FACTORS:
            try:
                dev = run.tdev.at(factor * run.tau)
            except KeyError:
                continue
            out.write(f"  {factor * run.tau:7g}  {dev * _PS:9.3f}\n")
    errors = run.sync_errors[warm:]
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
    """Summary table of a simulated run."""
    return _format_summary(result)


def summarize_parsed(run: RunResult) -> str:
    """Summary table of a run read back by :func:`parse_run_csv`."""
    return _format_summary(run)


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
    stem = f"{result.name}_{result.method}_seed{result.seed}"
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
                        values.append(r.tdev.at(factor * r.tau))
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
