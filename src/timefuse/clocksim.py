"""Two-state slave-clock simulation with N noisy measurement paths.

Model
-----
The slave clock carries a true time offset (seconds) and a fractional
frequency offset (s/s) against an ideal reference.  Once per epoch of
length ``tau`` the offset integrates the frequency, receives the
steering correction chosen at the previous epoch, and picks up a
random-walk phase increment; the frequency picks up its own random-walk
increment.  Scheduled clock jumps add to the offset at their epoch,
before any observation is taken.

Each synchronisation path then reports the true offset corrupted by two
independent zero-mean white Gaussian terms per epoch -- transmission
(link) noise and measurement noise -- plus the bias of any delay attack
active on that path at that epoch.  Attacks bias the report only; they
never touch the clock itself.

Randomness
----------
All draws come from numpy ``Generator`` streams (PCG64).  A run seed is
split with ``SeedSequence.spawn`` into one stream for the clock process
and one per path, in path order, so every (path, epoch) draw is
reproducible regardless of how the caller interleaves other streams.
Within a stream the draw order is fixed: the clock stream yields the
phase increment then the frequency increment each epoch; a path stream
yields the link term then the measurement term.  :func:`draw_noise`
draws a whole run's terms at once, in that order, so they equal the
per-epoch draws of :func:`step_clock` and :func:`observe_path`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "AttackEvent",
    "ClockState",
    "EventSchedule",
    "JumpEvent",
    "NoiseConfig",
    "PathObservation",
    "PeriodicAttackRule",
    "PeriodicJumpRule",
    "RngStreams",
    "build_schedule",
    "draw_noise",
    "observe_path",
    "step_clock",
]


@dataclass(frozen=True)
class ClockState:
    """True state of the slave clock: time offset (s) and frequency offset (s/s)."""

    offset: float
    drift: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.offset) and math.isfinite(self.drift)):
            raise ValueError("clock state must be finite")


@dataclass(frozen=True)
class NoiseConfig:
    """Noise magnitudes for the clock process and the measurement paths.

    ``sigma_offset`` and ``sigma_drift`` are per-step random-walk
    increments of the clock phase (s) and frequency (s/s).  ``sigma_link``
    and ``sigma_meas`` hold one per-path white-noise sigma each (s).
    """

    sigma_offset: float
    sigma_drift: float
    sigma_link: tuple
    sigma_meas: tuple
    tau: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_link", tuple(float(s) for s in self.sigma_link))
        object.__setattr__(self, "sigma_meas", tuple(float(s) for s in self.sigma_meas))
        if len(self.sigma_link) != len(self.sigma_meas):
            raise ValueError("sigma_link and sigma_meas must have equal length")
        if len(self.sigma_link) < 2:
            raise ValueError("need at least two paths")
        for name in ("sigma_offset", "sigma_drift", "tau"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if any(s < 0.0 or not math.isfinite(s) for s in self.sigma_link + self.sigma_meas):
            raise ValueError("per-path sigmas must be finite and non-negative")

    @property
    def n_paths(self) -> int:
        return len(self.sigma_link)


@dataclass(frozen=True)
class PathObservation:
    """One path's reported time offset for one epoch.

    ``attack_truth`` is the bias injected by the schedule (0.0 when no
    attack is active) and exists for scoring, not for the detector.
    """

    path_id: int
    epoch: int
    measured_offset: float
    attack_truth: float


@dataclass(frozen=True)
class AttackEvent:
    """A delay-attack bias on one path starting at ``epoch`` for ``duration`` epochs."""

    path: int
    epoch: int
    magnitude: float
    duration: int = 1


@dataclass(frozen=True)
class JumpEvent:
    """An instantaneous step of the true clock offset at ``epoch``."""

    epoch: int
    magnitude: float


@dataclass(frozen=True)
class PeriodicAttackRule:
    """Attack of ``magnitude_s`` on each path in ``paths``, every ``period_s`` from ``phase_s``."""

    paths: tuple
    period_s: float
    phase_s: float
    magnitude_s: float
    duration_epochs: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(int(p) for p in self.paths))


@dataclass(frozen=True)
class PeriodicJumpRule:
    """Clock jump of ``magnitude_s`` every ``period_s`` starting at ``phase_s``."""

    period_s: float
    phase_s: float
    magnitude_s: float


@dataclass(frozen=True)
class EventSchedule:
    """Expanded, validated event lists for one run.

    Attack events may not overlap on a single path.  Multiple jump
    events on the same epoch are rejected.  Lookup helpers return the
    active magnitude (0.0 when nothing is scheduled).
    """

    attacks: tuple
    jumps: tuple
    n_epochs: int
    _attack_map: dict = field(default_factory=dict, repr=False, compare=False)
    _jump_map: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be at least 1")
        attack_map: dict = {}
        for ev in self.attacks:
            if ev.duration < 1:
                raise ValueError(f"attack duration must be >= 1: {ev}")
            if not 0 <= ev.epoch < self.n_epochs:
                raise ValueError(f"attack event outside run: {ev}")
            for e in range(ev.epoch, min(ev.epoch + ev.duration, self.n_epochs)):
                key = (ev.path, e)
                if key in attack_map:
                    raise ValueError(
                        f"overlapping attack events on path {ev.path} at epoch {e}"
                    )
                attack_map[key] = ev.magnitude
        jump_map: dict = {}
        for ev in self.jumps:
            if not 0 <= ev.epoch < self.n_epochs:
                raise ValueError(f"jump event outside run: {ev}")
            if ev.epoch in jump_map:
                raise ValueError(f"duplicate jump events at epoch {ev.epoch}")
            jump_map[ev.epoch] = ev.magnitude
        object.__setattr__(self, "_attack_map", attack_map)
        object.__setattr__(self, "_jump_map", jump_map)

    def attack_on(self, path: int, epoch: int) -> float:
        return self._attack_map.get((path, epoch), 0.0)

    def jump_on(self, epoch: int) -> float:
        return self._jump_map.get(epoch, 0.0)

    @property
    def attack_epochs(self) -> set:
        """Epochs at which at least one path is under attack."""
        return {e for (_, e) in self._attack_map}

    @property
    def jump_epochs(self) -> set:
        return set(self._jump_map)

    def attacked_paths(self, epoch: int) -> tuple:
        return tuple(sorted(p for (p, e) in self._attack_map if e == epoch))

    def attack_matrix(self, n_paths: int) -> np.ndarray:
        """Active attack magnitude of every (epoch, path) cell, ``(n_epochs, n_paths)``."""
        matrix = np.zeros((self.n_epochs, n_paths))
        for (path, epoch), magnitude in self._attack_map.items():
            if not 0 <= path < n_paths:
                raise ValueError(f"attack on path {path} outside 0..{n_paths - 1}")
            matrix[epoch, path] = magnitude
        return matrix


def _rule_epochs(period_s: float, phase_s: float, n_epochs: int, tau: float) -> range:
    """Epoch indices hit by a periodic rule; period and phase must be whole epochs."""
    if period_s <= 0.0:
        raise ValueError("rule period must be positive")
    if phase_s < 0.0:
        raise ValueError("rule phase must be non-negative")
    period = period_s / tau
    phase = phase_s / tau
    if abs(period - round(period)) > 1e-9 or abs(phase - round(phase)) > 1e-9:
        raise ValueError("rule period and phase must be whole numbers of epochs")
    return range(int(round(phase)), n_epochs, int(round(period)))


def build_schedule(
    attack_rules: Iterable[PeriodicAttackRule] = (),
    jump_rules: Iterable[PeriodicJumpRule] = (),
    n_epochs: int = 1,
    tau: float = 1.0,
    shift_jump_on_collision: bool = True,
) -> EventSchedule:
    """Expand periodic rules into an explicit, validated :class:`EventSchedule`.

    Schedules are purely structural -- no randomness is involved, so the
    same rules always expand to the same events.  When
    ``shift_jump_on_collision`` is set (the default), a jump falling on
    an epoch where any attack is active is postponed one epoch at a time
    until the collision clears; jumps pushed past the end of the run are
    dropped.
    """
    attacks = []
    for rule in attack_rules:
        for e in _rule_epochs(rule.period_s, rule.phase_s, n_epochs, tau):
            for p in rule.paths:
                attacks.append(AttackEvent(p, e, rule.magnitude_s, rule.duration_epochs))
    attacks.sort(key=lambda ev: (ev.epoch, ev.path))

    attacked_epochs = set()
    for ev in attacks:
        attacked_epochs.update(range(ev.epoch, ev.epoch + ev.duration))

    jumps = []
    for rule in jump_rules:
        for e in _rule_epochs(rule.period_s, rule.phase_s, n_epochs, tau):
            if shift_jump_on_collision:
                while e in attacked_epochs:
                    e += 1
            if e < n_epochs:
                jumps.append(JumpEvent(e, rule.magnitude_s))
    jumps.sort(key=lambda ev: ev.epoch)

    return EventSchedule(tuple(attacks), tuple(jumps), n_epochs)


class RngStreams:
    """Deterministic per-run generator bundle.

    Stream 0 of the spawned seed sequence drives the clock process and
    stream ``i + 1`` drives path ``i``.
    """

    def __init__(self, seed: int, n_paths: int):
        children = np.random.SeedSequence(seed).spawn(n_paths + 1)
        self.clock = np.random.default_rng(children[0])
        self.paths = tuple(np.random.default_rng(c) for c in children[1:])

    def path(self, i: int) -> np.random.Generator:
        return self.paths[i]


def _scaled_normals(rng: np.random.Generator, n_epochs: int, sigmas) -> np.ndarray:
    """``n_epochs`` rows of one stream's draws, column k scaled by ``sigmas[k]``.

    ``rng.normal(0.0, s)`` returns ``0.0 + s * z``; adding the 0.0 as it
    does keeps a zero sigma from turning a negative ``z`` into ``-0.0``.
    """
    return rng.standard_normal((n_epochs, len(sigmas))) * np.asarray(sigmas) + 0.0


def draw_noise(noise: NoiseConfig, rngs: RngStreams, n_epochs: int) -> tuple:
    """Every random term of an ``n_epochs`` run, drawn up front.

    Returns ``(clock, link, meas)``: ``clock`` is ``(n_epochs, 2)``, the
    phase-walk and frequency-walk increments of each epoch; ``link`` and
    ``meas`` are ``(n_epochs, n_paths)``.  Each stream yields exactly the
    values that one :func:`step_clock` or :func:`observe_path` call per
    epoch would draw from it.
    """
    clock = _scaled_normals(rngs.clock, n_epochs, (noise.sigma_offset, noise.sigma_drift))
    link = np.empty((n_epochs, noise.n_paths))
    meas = np.empty((n_epochs, noise.n_paths))
    for i in range(noise.n_paths):
        draws = _scaled_normals(
            rngs.path(i), n_epochs, (noise.sigma_link[i], noise.sigma_meas[i])
        )
        link[:, i] = draws[:, 0]
        meas[:, i] = draws[:, 1]
    return clock, link, meas


def step_clock(
    state: ClockState,
    correction: float,
    noise: NoiseConfig,
    rng: np.random.Generator,
    jump: float = 0.0,
) -> ClockState:
    """Advance the clock one epoch.

    The new offset is the old offset plus the previous epoch's steering
    correction, the frequency contribution over ``tau``, the phase-walk
    increment, and any scheduled jump; the frequency takes its own walk
    increment.  The frequency used for integration is the one in force
    before this step.
    """
    if not math.isfinite(correction):
        raise ValueError("correction must be finite")
    if not math.isfinite(jump):
        raise ValueError("jump must be finite")
    w_offset = rng.normal(0.0, noise.sigma_offset)
    w_drift = rng.normal(0.0, noise.sigma_drift)
    offset = state.offset + correction + state.drift * noise.tau + w_offset + jump
    return ClockState(offset=offset, drift=state.drift + w_drift)


def observe_path(
    true_offset: float,
    path_id: int,
    epoch: int,
    noise: NoiseConfig,
    schedule: EventSchedule,
    rng: np.random.Generator,
) -> PathObservation:
    """Produce one path's offset report: truth plus link noise, measurement noise and attack bias."""
    if not 0 <= path_id < noise.n_paths:
        raise ValueError(f"path_id {path_id} outside 0..{noise.n_paths - 1}")
    if not math.isfinite(true_offset):
        raise ValueError("true_offset must be finite")
    w_link = rng.normal(0.0, noise.sigma_link[path_id])
    w_meas = rng.normal(0.0, noise.sigma_meas[path_id])
    truth = schedule.attack_on(path_id, epoch)
    return PathObservation(
        path_id=path_id,
        epoch=epoch,
        measured_offset=true_offset + w_link + w_meas + truth,
        attack_truth=truth,
    )
