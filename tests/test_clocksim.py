"""Tests for the two-state clock model, noise streams, and event schedules."""

import math

import numpy as np
import pytest

from timefuse import (
    AttackEvent,
    ClockState,
    EventSchedule,
    JumpEvent,
    NoiseConfig,
    PeriodicAttackRule,
    PeriodicJumpRule,
    RngStreams,
    build_schedule,
    observe_path,
    step_clock,
)
from timefuse.clocksim import draw_noise

TABLE_NOISE = NoiseConfig(
    sigma_offset=10e-12,
    sigma_drift=1e-12,
    sigma_link=(10e-12,) * 5,
    sigma_meas=(25e-12,) * 5,
    tau=1.0,
)

QUIET = NoiseConfig(0.0, 0.0, (0.0, 0.0), (0.0, 0.0), tau=1.0)


def empty_schedule(n_epochs=10):
    return EventSchedule((), (), n_epochs)


class TestNoiseConfig:
    def test_path_count(self):
        assert TABLE_NOISE.n_paths == 5

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma_offset"):
            NoiseConfig(-1e-12, 0.0, (0.0, 0.0), (0.0, 0.0))

    def test_rejects_single_path(self):
        with pytest.raises(ValueError, match="two paths"):
            NoiseConfig(0.0, 0.0, (0.0,), (0.0,))

    def test_rejects_mismatched_path_arrays(self):
        with pytest.raises(ValueError, match="equal length"):
            NoiseConfig(0.0, 0.0, (0.0, 0.0), (0.0, 0.0, 0.0))

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError, match="tau"):
            NoiseConfig(0.0, 0.0, (0.0, 0.0), (0.0, 0.0), tau=0.0)


class TestStepClock:
    def test_noiseless_step_is_exact(self):
        rng = np.random.default_rng(0)
        state = ClockState(offset=3e-9, drift=2e-12)
        new = step_clock(state, correction=-1e-9, noise=QUIET, rng=rng, jump=5e-10)
        assert new.offset == 3e-9 - 1e-9 + 2e-12 * 1.0 + 5e-10
        assert new.drift == 2e-12

    def test_integration_uses_drift_before_the_step(self):
        # With only frequency noise, the first step's offset increment is the
        # *old* drift times tau -- zero here -- even though drift itself moves.
        noise = NoiseConfig(0.0, 1e-12, (0.0, 0.0), (0.0, 0.0), tau=1.0)
        rng = np.random.default_rng(7)
        new = step_clock(ClockState(0.0, 0.0), 0.0, noise, rng)
        assert new.offset == 0.0
        assert new.drift != 0.0

    def test_rejects_non_finite_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            step_clock(ClockState(0.0, 0.0), float("nan"), QUIET, rng)
        with pytest.raises(ValueError):
            step_clock(ClockState(0.0, 0.0), 0.0, QUIET, rng, jump=float("inf"))

    def test_phase_walk_magnitude(self):
        noise = NoiseConfig(10e-12, 0.0, (0.0, 0.0), (0.0, 0.0), tau=1.0)
        rng = np.random.default_rng(42)
        increments = []
        state = ClockState(0.0, 0.0)
        for _ in range(20000):
            new = step_clock(state, 0.0, noise, rng)
            increments.append(new.offset - state.offset)
            state = new
        assert np.std(increments) == pytest.approx(10e-12, rel=0.02)

    def test_frequency_walk_magnitude(self):
        noise = NoiseConfig(0.0, 1e-12, (0.0, 0.0), (0.0, 0.0), tau=1.0)
        rng = np.random.default_rng(42)
        increments = []
        state = ClockState(0.0, 0.0)
        for _ in range(20000):
            new = step_clock(state, 0.0, noise, rng)
            increments.append(new.drift - state.drift)
            state = new
        assert np.std(increments) == pytest.approx(1e-12, rel=0.02)


class TestObservePath:
    def test_noiseless_observation_is_truth_plus_attack(self):
        sched = EventSchedule((AttackEvent(1, 3, 7e-9, 1),), (), 10)
        rng = np.random.default_rng(0)
        clean = observe_path(2e-9, 0, 3, QUIET, sched, rng)
        biased = observe_path(2e-9, 1, 3, QUIET, sched, rng)
        assert clean.measured_offset == 2e-9
        assert clean.attack_truth == 0.0
        assert biased.measured_offset == 2e-9 + 7e-9
        assert biased.attack_truth == 7e-9

    def test_duration_extends_the_bias(self):
        sched = EventSchedule((AttackEvent(0, 2, 5e-9, 3),), (), 10)
        rng = np.random.default_rng(0)
        for epoch, expected in [(1, 0.0), (2, 5e-9), (3, 5e-9), (4, 5e-9), (5, 0.0)]:
            obs = observe_path(0.0, 0, epoch, QUIET, sched, rng)
            assert obs.attack_truth == expected

    def test_rejects_unknown_path(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="path_id"):
            observe_path(0.0, 9, 0, QUIET, empty_schedule(), rng)

    def test_noise_magnitude(self):
        noise = NoiseConfig(0.0, 0.0, (10e-12, 10e-12), (25e-12, 25e-12), tau=1.0)
        rng = np.random.default_rng(3)
        sched = empty_schedule()
        draws = [
            observe_path(0.0, 0, 0, noise, sched, rng).measured_offset
            for _ in range(20000)
        ]
        assert np.std(draws) == pytest.approx(math.sqrt(725.0) * 1e-12, rel=0.02)


class TestRngStreams:
    def test_same_seed_reproduces(self):
        a = RngStreams(11, 3)
        b = RngStreams(11, 3)
        assert a.clock.normal(size=5).tolist() == b.clock.normal(size=5).tolist()
        for i in range(3):
            assert a.path(i).normal(size=5).tolist() == b.path(i).normal(size=5).tolist()

    def test_streams_are_distinct(self):
        s = RngStreams(11, 3)
        draws = [s.clock.normal(size=4).tolist()] + [
            s.path(i).normal(size=4).tolist() for i in range(3)
        ]
        flat = [tuple(d) for d in draws]
        assert len(set(flat)) == len(flat)

    def test_seeds_differ(self):
        a = RngStreams(11, 2)
        b = RngStreams(12, 2)
        assert a.clock.normal(size=4).tolist() != b.clock.normal(size=4).tolist()


class TestEventSchedule:
    def test_rejects_overlapping_attacks_on_one_path(self):
        events = (AttackEvent(0, 5, 1e-9, 3), AttackEvent(0, 6, 1e-9, 1))
        with pytest.raises(ValueError, match="overlapping"):
            EventSchedule(events, (), 20)

    def test_rejects_duplicate_jumps(self):
        with pytest.raises(ValueError, match="duplicate"):
            EventSchedule((), (JumpEvent(5, 1e-9), JumpEvent(5, 2e-9)), 20)

    def test_rejects_events_outside_run(self):
        with pytest.raises(ValueError, match="outside"):
            EventSchedule((AttackEvent(0, 25, 1e-9, 1),), (), 20)
        with pytest.raises(ValueError, match="outside"):
            EventSchedule((), (JumpEvent(-1, 1e-9),), 20)

    def test_lookup_methods(self):
        sched = EventSchedule(
            (AttackEvent(0, 2, 3e-9, 2), AttackEvent(2, 5, -1e-9, 1)),
            (JumpEvent(7, 1e-9),),
            10,
        )
        assert sched.attack_on(0, 2) == 3e-9
        assert sched.attack_on(0, 3) == 3e-9
        assert sched.attack_on(0, 4) == 0.0
        assert sched.attack_on(1, 2) == 0.0
        assert sched.jump_on(7) == 1e-9
        assert sched.jump_on(6) == 0.0
        assert sched.attack_epochs == {2, 3, 5}
        assert sched.jump_epochs == {7}
        assert sched.attacked_paths(2) == (0,)
        assert sched.attacked_paths(5) == (2,)
        assert sched.attacked_paths(9) == ()

    def test_attack_matrix_agrees_with_the_lookups(self):
        sched = EventSchedule(
            (AttackEvent(0, 2, 3e-9, 2), AttackEvent(2, 5, -1e-9, 1), AttackEvent(1, 9, 2e-9, 4)),
            (),
            10,
        )
        matrix = sched.attack_matrix(3)
        assert matrix.shape == (10, 3)
        assert matrix.tolist() == [[sched.attack_on(p, e) for p in range(3)] for e in range(10)]
        with pytest.raises(ValueError, match="path 2"):
            sched.attack_matrix(2)


def scalar_draws(noise, rngs, n_epochs):
    """Every epoch's draws in the order step_clock and observe_path make them."""
    clock, link, meas = [], [], []
    for _ in range(n_epochs):
        clock.append(
            [rngs.clock.normal(0.0, noise.sigma_offset), rngs.clock.normal(0.0, noise.sigma_drift)]
        )
        link.append([])
        meas.append([])
        for i in range(noise.n_paths):
            link[-1].append(rngs.path(i).normal(0.0, noise.sigma_link[i]))
            meas[-1].append(rngs.path(i).normal(0.0, noise.sigma_meas[i]))
    return clock, link, meas


def same_bits(a, b) -> bool:
    """Equal as IEEE doubles, so 0.0 and -0.0 differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDrawNoise:
    # zero sigmas included: rng.normal(0.0, 0.0) is +0.0 whatever the draw's sign
    NOISE = NoiseConfig(0.0, 1e-12, (10e-12, 0.0, 3.0), (0.0, 25e-12, 1e-12), tau=1.0)

    def test_equals_the_per_epoch_draws(self):
        clock, link, meas = draw_noise(self.NOISE, RngStreams(5, 3), 200)
        expected = scalar_draws(self.NOISE, RngStreams(5, 3), 200)
        assert clock.shape == (200, 2) and link.shape == meas.shape == (200, 3)
        for got, want in zip((clock, link, meas), expected):
            assert same_bits(got, want)

    def test_chunks_continue_the_streams(self):
        rngs = RngStreams(8, 3)
        chunks = [draw_noise(self.NOISE, rngs, k) for k in (1, 64, 0, 135)]
        whole = draw_noise(self.NOISE, RngStreams(8, 3), 200)
        for part, want in enumerate(whole):
            assert same_bits(np.concatenate([c[part] for c in chunks]), want)


class TestBuildSchedule:
    def test_periodic_expansion(self):
        sched = build_schedule(
            jump_rules=[PeriodicJumpRule(period_s=30.0, phase_s=30.0, magnitude_s=1e-9)],
            n_epochs=301,
            tau=1.0,
        )
        assert sorted(sched.jump_epochs) == list(range(30, 301, 30))
        assert len(sched.jump_epochs) == 10

    def test_staggered_attack_rules(self):
        # Five paths, shared 50 s period, phases 10 s apart: 40 events each
        # over 2000 epochs, interleaved so one path is hit at a time.
        rules = [
            PeriodicAttackRule((i,), period_s=50.0, phase_s=10.0 * (i + 1), magnitude_s=1e-8)
            for i in range(5)
        ]
        sched = build_schedule(attack_rules=rules, n_epochs=2000, tau=1.0)
        for i in range(5):
            epochs = [e.epoch for e in sched.attacks if e.path == i]
            # the path whose phase equals the period fits one fewer hit
            assert len(epochs) == (39 if i == 4 else 40)
            assert epochs[0] == 10 * (i + 1)
            assert all(b - a == 50 for a, b in zip(epochs, epochs[1:]))
        for e in sorted(sched.attack_epochs):
            assert len(sched.attacked_paths(e)) == 1

    def test_group_rule_hits_all_listed_paths(self):
        rule = PeriodicAttackRule((1, 3), period_s=100.0, phase_s=0.0, magnitude_s=1e-8)
        sched = build_schedule(attack_rules=[rule], n_epochs=250, tau=1.0)
        assert sched.attacked_paths(0) == (1, 3)
        assert sched.attacked_paths(100) == (1, 3)
        assert sched.attacked_paths(200) == (1, 3)

    def test_jump_colliding_with_attack_is_postponed(self):
        sched = build_schedule(
            attack_rules=[PeriodicAttackRule((0,), period_s=50.0, phase_s=10.0, magnitude_s=1e-8)],
            jump_rules=[PeriodicJumpRule(period_s=30.0, phase_s=30.0, magnitude_s=1e-9)],
            n_epochs=101,
            tau=1.0,
        )
        # the attack at epoch 60 displaces that jump to 61
        assert 60 not in sched.jump_epochs
        assert 61 in sched.jump_epochs
        assert 30 in sched.jump_epochs and 90 in sched.jump_epochs

    def test_jump_pushed_past_end_is_dropped(self):
        sched = build_schedule(
            attack_rules=[PeriodicAttackRule((0,), period_s=100.0, phase_s=9.0, magnitude_s=1e-8)],
            jump_rules=[PeriodicJumpRule(period_s=9.0, phase_s=9.0, magnitude_s=1e-9)],
            n_epochs=10,
            tau=1.0,
        )
        assert sched.jump_epochs == set()

    def test_fractional_epoch_rules_rejected(self):
        with pytest.raises(ValueError, match="whole numbers"):
            build_schedule(
                jump_rules=[PeriodicJumpRule(period_s=2.5, phase_s=0.0, magnitude_s=1e-9)],
                n_epochs=10,
                tau=1.0,
            )
