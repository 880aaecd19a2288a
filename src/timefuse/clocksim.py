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
draws the terms of many epochs at once, in that order, so they equal the
per-epoch draws of :func:`step_clock` and :func:`observe_path`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "ClockState",
    "EventSchedule",
    "NoiseConfig",
    "PathObservation",
    "PeriodicAttackRule",
    "PeriodicJumpRule",
    "RngStreams",
    "build_schedule",
    "draw_noise",
    "observe_path",
    "schedule_events",
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
    :meth:`Scenario.noise <timefuse.harness.Scenario.noise>` builds one
    from a validated scenario; nothing is checked here.
    """

    sigma_offset: float
    sigma_drift: float
    sigma_link: tuple
    sigma_meas: tuple
    tau: float = 1.0

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
class PeriodicAttackRule:
    """Attack of ``magnitude_s`` on each path in ``paths``, every ``period_s`` from ``phase_s``."""

    paths: tuple
    period_s: float
    phase_s: float
    magnitude_s: float
    duration_epochs: int = 1


@dataclass(frozen=True)
class PeriodicJumpRule:
    """Clock jump of ``magnitude_s`` every ``period_s`` starting at ``phase_s``."""

    period_s: float
    phase_s: float
    magnitude_s: float


@dataclass(frozen=True, eq=False)
class EventSchedule:
    """A run's events as two read-only arrays, made by :func:`build_schedule`.

    ``attacks[e, p]`` is the delay-attack bias on path ``p`` at epoch
    ``e`` and ``jumps[e]`` the clock jump at epoch ``e``; both are 0.0
    where nothing is scheduled.
    """

    attacks: np.ndarray
    jumps: np.ndarray

    def __post_init__(self) -> None:
        self.attacks.flags.writeable = False
        self.jumps.flags.writeable = False

    @property
    def jump_epochs(self) -> set:
        """Epochs with a non-zero clock jump."""
        return set(np.flatnonzero(self.jumps).tolist())


def _rule_epochs(period_s: float, phase_s: float, n_epochs: int, tau: float) -> np.ndarray:
    """Epoch indices hit by a periodic rule, after checking its period and phase."""
    period = period_s / tau
    phase = phase_s / tau
    if not (math.isfinite(period) and math.isfinite(phase)):
        raise ValueError("rule period and phase must be finite")
    step, start = round(period), round(phase)
    if abs(period - step) > 1e-9 or abs(phase - start) > 1e-9:
        raise ValueError("rule period and phase must be whole numbers of epochs")
    if step < 1:
        raise ValueError("rule period must be positive")
    if phase < 0.0:
        raise ValueError("rule phase must be non-negative")
    # a period or phase beyond the run hits the same epochs as one at its end
    return np.arange(min(start, n_epochs), n_epochs, min(step, n_epochs))


def schedule_events(
    attack_rules: Iterable[PeriodicAttackRule],
    jump_rules: Iterable[PeriodicJumpRule],
    n_epochs: int,
    n_paths: int,
    tau: float,
) -> tuple:
    """Check the rules and expand them sparsely, as :func:`build_schedule` describes.

    A scenario is validated with this, without the dense arrays.

    Returns ``(attacks, jumps)``: one ``(epochs, paths, magnitude)``
    triple per attack rule and one ``(epochs, magnitude)`` pair per jump
    rule.  The overlap check counts each path's attacked epochs in turn,
    and jumps land on a per-epoch mask of attacked epochs, so nothing
    here is ``n_epochs * n_paths`` in size unless the attacks are.
    """
    attacks = []
    for rule in attack_rules:
        bad = [p for p in rule.paths if not 0 <= p < n_paths]
        if bad:
            raise ValueError(f"attack rule paths {bad} outside 0..{n_paths - 1}")
        starts = _rule_epochs(rule.period_s, rule.phase_s, n_epochs, tau)
        # an attack cannot outlast the run, however long its duration
        epochs = (starts[:, None] + np.arange(min(rule.duration_epochs, n_epochs))).ravel()
        attacks.append(
            (epochs[epochs < n_epochs], np.array(rule.paths, dtype=np.intp), rule.magnitude_s)
        )
    # the first cell covered twice, in (epoch, path) order, is the one named
    attacked = np.zeros(n_epochs, dtype=bool)
    overlap = None
    for path in range(n_paths):
        covers = [epochs for epochs, paths, _ in attacks for p in paths.tolist() if p == path]
        if not covers:
            continue
        counts = np.bincount(np.concatenate(covers), minlength=n_epochs)
        attacked |= counts > 0
        twice = np.flatnonzero(counts > 1)
        if twice.size and (overlap is None or twice[0] < overlap[0]):
            overlap = (int(twice[0]), path)
    if overlap is not None:
        epoch, path = overlap
        raise ValueError(f"overlapping attack events on path {path} at epoch {epoch}")

    # a jump lands on the first epoch, at or after its own, with no attack on any path
    free = np.flatnonzero(~attacked)
    next_free = np.append(free, n_epochs)
    jumps = []
    for rule in jump_rules:
        due = _rule_epochs(rule.period_s, rule.phase_s, n_epochs, tau)
        epochs = next_free[np.searchsorted(free, due)]
        jumps.append((epochs[epochs < n_epochs], rule.magnitude_s))
    landed = np.concatenate([np.empty(0, dtype=np.intp)] + [e for e, _ in jumps])
    counts = np.bincount(landed, minlength=n_epochs)
    if (counts > 1).any():
        raise ValueError(f"duplicate jump events at epoch {int(np.argmax(counts > 1))}")
    return attacks, jumps


def build_schedule(
    attack_rules: Iterable[PeriodicAttackRule],
    jump_rules: Iterable[PeriodicJumpRule],
    n_epochs: int,
    n_paths: int,
    tau: float,
) -> EventSchedule:
    """Expand periodic rules into a run's :class:`EventSchedule`, checking them.

    Schedules are purely structural -- no randomness is involved, so the
    same rules always expand to the same arrays.  An attack covers
    ``duration_epochs`` epochs from each hit, cut at the end of the run.
    A jump falling on an epoch where any attack is active is postponed to
    the next epoch with none; jumps pushed past the end of the run are
    dropped.  Raises :class:`ValueError` when a period or phase is not a
    finite whole number of epochs, a period is not positive, a phase is
    negative, an attack names a path outside ``0..n_paths - 1``, two
    attacks cover one (epoch, path) cell (a rule listing a path twice
    included), or two jumps land on one epoch.  Attack durations must be
    at least 1; :class:`~timefuse.harness.Scenario` checks that.
    """
    attack_cells, jump_epochs = schedule_events(attack_rules, jump_rules, n_epochs, n_paths, tau)
    attacks = np.zeros((n_epochs, n_paths))
    for epochs, paths, magnitude in attack_cells:
        attacks[epochs[:, None], paths] = magnitude
    jumps = np.zeros(n_epochs)
    for epochs, magnitude in jump_epochs:
        jumps[epochs] = magnitude
    return EventSchedule(attacks, jumps)


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
    """Every random term of the next ``n_epochs`` epochs, drawn at once.

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
    truth = float(schedule.attacks[epoch, path_id])
    return PathObservation(
        path_id=path_id,
        epoch=epoch,
        measured_offset=true_offset + w_link + w_meas + truth,
        attack_truth=truth,
    )
