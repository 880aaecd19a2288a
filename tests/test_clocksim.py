"""Tests for the two-state clock model, noise streams, and event schedules."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timefuse import (
    PRESET_NAMES,
    ClockState,
    NoiseConfig,
    PeriodicAttackRule,
    PeriodicJumpRule,
    RngStreams,
    Scenario,
    ScenarioError,
    build_schedule,
    observe_path,
    preset,
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


def empty_schedule(n_epochs=10, n_paths=2):
    return build_schedule((), (), n_epochs, n_paths, 1.0)


def one_attack(path, epoch, magnitude, duration=1, n_epochs=10, n_paths=2):
    """A schedule with a single attack on ``path`` from ``epoch``."""
    rule = PeriodicAttackRule((path,), 1000.0, float(epoch), magnitude, duration)
    return build_schedule((rule,), (), n_epochs, n_paths, 1.0)


class TestNoiseConfig:
    """``NoiseConfig`` checks nothing: ``Scenario.noise()`` builds it from checked fields."""

    def test_path_count(self):
        assert TABLE_NOISE.n_paths == 5

    def test_rejects_negative_sigma(self):
        for field in ("sigma_offset", "sigma_drift", "sigma_link", "sigma_meas"):
            with pytest.raises(ScenarioError, match=field):
                Scenario(name="x", n_paths=2, n_epochs=10, **{field: -1e-12})
        with pytest.raises(ScenarioError, match="sigma_link"):
            Scenario(name="x", n_paths=2, n_epochs=10, sigma_link=(0.0, -1e-12))

    def test_rejects_single_path(self):
        with pytest.raises(ScenarioError, match="n_paths"):
            Scenario(name="x", n_paths=1, n_epochs=10, sigma_link=(0.0,), sigma_meas=(0.0,))

    def test_rejects_mismatched_path_arrays(self):
        with pytest.raises(ScenarioError, match="sigma_meas: got 3 values for 2 paths"):
            Scenario(name="x", n_paths=2, n_epochs=10, sigma_meas=(0.0, 0.0, 0.0))

    def test_rejects_nonpositive_tau(self):
        for tau in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ScenarioError, match="tau"):
                Scenario(name="x", n_paths=2, n_epochs=10, tau=tau)


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
        sched = one_attack(1, 3, 7e-9)
        rng = np.random.default_rng(0)
        clean = observe_path(2e-9, 0, 3, QUIET, sched, rng)
        biased = observe_path(2e-9, 1, 3, QUIET, sched, rng)
        assert clean.measured_offset == 2e-9
        assert clean.attack_truth == 0.0
        assert biased.measured_offset == 2e-9 + 7e-9
        assert biased.attack_truth == 7e-9

    def test_duration_extends_the_bias(self):
        sched = one_attack(0, 2, 5e-9, duration=3)
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
    def test_arrays_are_read_only(self):
        sched = one_attack(1, 3, 7e-9)
        for array in (sched.attacks, sched.jumps):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_lookup_methods(self):
        sched = build_schedule(
            (
                PeriodicAttackRule((0,), 100.0, 2.0, 3e-9, duration_epochs=2),
                PeriodicAttackRule((2,), 100.0, 5.0, -1e-9),
            ),
            (PeriodicJumpRule(100.0, 7.0, 1e-9),),
            10,
            3,
            1.0,
        )
        assert sched.attacks[2, 0] == sched.attacks[3, 0] == 3e-9
        assert sched.attacks[4, 0] == 0.0
        assert sched.attacks[2, 1] == 0.0
        assert sched.jumps[7] == 1e-9
        assert sched.jumps[6] == 0.0
        assert np.flatnonzero(sched.attacks.any(axis=1)).tolist() == [2, 3, 5]
        assert sched.jump_epochs == {7}
        assert np.flatnonzero(sched.attacks[2]).tolist() == [0]
        assert np.flatnonzero(sched.attacks[5]).tolist() == [2]
        assert not sched.attacks[9].any()

    def test_attack_matrix_agrees_with_the_lookups(self):
        rules = (
            PeriodicAttackRule((0,), 100.0, 2.0, 3e-9, duration_epochs=2),
            PeriodicAttackRule((2,), 100.0, 5.0, -1e-9),
            PeriodicAttackRule((1,), 100.0, 9.0, 2e-9, duration_epochs=4),
        )
        sched = build_schedule(rules, (), 10, 3, 1.0)
        attacks, _ = reference_schedule(rules, (), 10, 3, 1.0)
        assert sched.attacks.shape == (10, 3)
        assert sched.attacks.tolist() == attacks

    def test_rejects_overlapping_attacks_on_one_path(self):
        rules = (
            PeriodicAttackRule((0,), 100.0, 5.0, 1e-9, duration_epochs=3),
            PeriodicAttackRule((0,), 100.0, 6.0, 1e-9),
        )
        with pytest.raises(ValueError, match="overlapping attack events on path 0 at epoch 6"):
            build_schedule(rules, (), 20, 2, 1.0)

    def test_rejects_events_outside_run(self):
        # epochs past the end are cut (test_period_or_phase_beyond_the_run); paths are not
        for paths, outside in (((0, 2), [2]), ((-1,), [-1])):
            rule = PeriodicAttackRule(paths, 10.0, 3.0, 1e-8)
            with pytest.raises(ValueError, match=re.escape(f"paths {outside} outside 0..1")):
                build_schedule((rule,), (), 20, 2, 1.0)

    def test_rejects_duplicate_jumps(self):
        rules = (PeriodicJumpRule(100.0, 5.0, 1e-9), PeriodicJumpRule(100.0, 5.0, 2e-9))
        with pytest.raises(ValueError, match="duplicate jump events at epoch 5"):
            build_schedule((), rules, 20, 2, 1.0)


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


def attacked_epochs_of(sched, path):
    return np.flatnonzero(sched.attacks[:, path]).tolist()


class TestBuildSchedule:
    def test_periodic_expansion(self):
        sched = build_schedule(
            (), (PeriodicJumpRule(period_s=30.0, phase_s=30.0, magnitude_s=1e-9),), 301, 2, 1.0
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
        sched = build_schedule(rules, (), 2000, 5, 1.0)
        for i in range(5):
            epochs = attacked_epochs_of(sched, i)
            # the path whose phase equals the period fits one fewer hit
            assert len(epochs) == (39 if i == 4 else 40)
            assert epochs[0] == 10 * (i + 1)
            assert all(b - a == 50 for a, b in zip(epochs, epochs[1:]))
        assert (np.count_nonzero(sched.attacks, axis=1) <= 1).all()

    def test_group_rule_hits_all_listed_paths(self):
        rule = PeriodicAttackRule((1, 3), period_s=100.0, phase_s=0.0, magnitude_s=1e-8)
        sched = build_schedule((rule,), (), 250, 4, 1.0)
        for epoch in (0, 100, 200):
            assert np.flatnonzero(sched.attacks[epoch]).tolist() == [1, 3]
        assert np.count_nonzero(sched.attacks) == 6

    def test_jump_colliding_with_attack_is_postponed(self):
        sched = build_schedule(
            (PeriodicAttackRule((0,), period_s=50.0, phase_s=10.0, magnitude_s=1e-8),),
            (PeriodicJumpRule(period_s=30.0, phase_s=30.0, magnitude_s=1e-9),),
            101,
            2,
            1.0,
        )
        # the attack at epoch 60 displaces that jump to 61
        assert sched.jump_epochs == {30, 61, 90}
        assert sched.jumps[61] == 1e-9

    def test_jump_pushed_past_end_is_dropped(self):
        sched = build_schedule(
            (PeriodicAttackRule((0,), period_s=100.0, phase_s=9.0, magnitude_s=1e-8),),
            (PeriodicJumpRule(period_s=9.0, phase_s=9.0, magnitude_s=1e-9),),
            10,
            2,
            1.0,
        )
        assert sched.jump_epochs == set()
        assert not sched.jumps.any()

    def test_period_or_phase_beyond_the_run(self):
        sched = build_schedule(
            (PeriodicAttackRule((0,), 1e300, 3.0, 1e-8),),
            (PeriodicJumpRule(1.0, 1e300, 1e-9),),
            10,
            2,
            1.0,
        )
        assert attacked_epochs_of(sched, 0) == [3]
        assert sched.jump_epochs == set()

    @pytest.mark.parametrize(
        "attack_rules, jump_rules, match",
        [
            ((PeriodicAttackRule((0,), 1.5, 0.0, 1e-8),), (), "whole numbers"),
            ((), (PeriodicJumpRule(0.0, 0.0, 1e-9),), "positive"),
            ((), (PeriodicJumpRule(1e-12, 0.0, 1e-9),), "positive"),
            ((PeriodicAttackRule((0,), -5.0, 0.0, 1e-8),), (), "positive"),
            ((), (PeriodicJumpRule(5.0, -1.0, 1e-9),), "non-negative"),
            ((), (PeriodicJumpRule(math.nan, 0.0, 1e-9),), "finite"),
            ((PeriodicAttackRule((0,), 5.0, math.inf, 1e-8),), (), "finite"),
            ((PeriodicAttackRule((0,), 5.0, -math.inf, 1e-8),), (), "finite"),
            (
                (
                    PeriodicAttackRule((0, 1), 10.0, 0.0, 1e-8),
                    PeriodicAttackRule((1,), 10.0, 0.0, 2e-8),
                ),
                (),
                "overlapping attack events on path 1 at epoch 0",
            ),
            ((PeriodicAttackRule((1, 1), 10.0, 3.0, 1e-8),), (), "path 1 at epoch 3"),
            ((PeriodicAttackRule((0,), 2.0, 0.0, 1e-8, duration_epochs=3),), (), "overlapping"),
            (
                (),
                (PeriodicJumpRule(10.0, 0.0, 1e-9), PeriodicJumpRule(20.0, 0.0, 2e-9)),
                "duplicate jump events at epoch 0",
            ),
            (
                (PeriodicAttackRule((0,), 100.0, 5.0, 1e-8, duration_epochs=2),),
                (PeriodicJumpRule(100.0, 5.0, 1e-9), PeriodicJumpRule(100.0, 7.0, 1e-9)),
                "duplicate jump events at epoch 7",
            ),
        ],
    )
    def test_rejects_bad_rules(self, attack_rules, jump_rules, match):
        with pytest.raises(ValueError, match=match):
            build_schedule(attack_rules, jump_rules, 20, 2, 1.0)

    def test_fractional_epoch_rules_rejected(self):
        with pytest.raises(ValueError, match="whole numbers"):
            build_schedule((), (PeriodicJumpRule(2.5, 0.0, 1e-9),), 10, 2, 1.0)
        # the same rule is whole at a half-second epoch
        sched = build_schedule((), (PeriodicJumpRule(2.5, 0.0, 1e-9),), 10, 2, 0.5)
        assert sched.jump_epochs == {0, 5}


def reference_schedule(attack_rules, jump_rules, n_epochs, n_paths, tau):
    """``(attacks, jumps)`` as nested lists, expanded one event at a time.

    This is the expansion the arrays replaced: a dict entry per attacked
    (path, epoch) cell and per jump epoch, jumps postponed one epoch at a
    time while any attack event covers their epoch.  For finite rules on
    paths inside the run it raises :class:`ValueError` where the arrays do.
    """

    def rule_epochs(period_s, phase_s):
        if period_s <= 0.0:
            raise ValueError("rule period must be positive")
        if phase_s < 0.0:
            raise ValueError("rule phase must be non-negative")
        period = period_s / tau
        phase = phase_s / tau
        if abs(period - round(period)) > 1e-9 or abs(phase - round(phase)) > 1e-9:
            raise ValueError("rule period and phase must be whole numbers of epochs")
        return range(int(round(phase)), n_epochs, int(round(period)))

    events = []  # (epoch, path, magnitude, duration)
    for rule in attack_rules:
        for e in rule_epochs(rule.period_s, rule.phase_s):
            for p in rule.paths:
                events.append((e, p, rule.magnitude_s, rule.duration_epochs))
    events.sort(key=lambda ev: (ev[0], ev[1]))
    attacked_epochs = set()
    for epoch, _, _, duration in events:
        attacked_epochs.update(range(epoch, epoch + duration))
    jump_events = []
    for rule in jump_rules:
        for e in rule_epochs(rule.period_s, rule.phase_s):
            while e in attacked_epochs:
                e += 1
            if e < n_epochs:
                jump_events.append((e, rule.magnitude_s))
    jump_events.sort(key=lambda ev: ev[0])

    attack_map = {}
    for epoch, path, magnitude, duration in events:
        for e in range(epoch, min(epoch + duration, n_epochs)):
            if (path, e) in attack_map:
                raise ValueError(f"overlapping attack events on path {path} at epoch {e}")
            attack_map[(path, e)] = magnitude
    jump_map = {}
    for epoch, magnitude in jump_events:
        if epoch in jump_map:
            raise ValueError(f"duplicate jump events at epoch {epoch}")
        jump_map[epoch] = magnitude
    attacks = [[attack_map.get((p, e), 0.0) for p in range(n_paths)] for e in range(n_epochs)]
    return attacks, [jump_map.get(e, 0.0) for e in range(n_epochs)]


def assert_expansions_agree(attack_rules, jump_rules, n_epochs, n_paths, tau):
    try:
        attacks, jumps = reference_schedule(attack_rules, jump_rules, n_epochs, n_paths, tau)
    except ValueError:
        with pytest.raises(ValueError):
            build_schedule(attack_rules, jump_rules, n_epochs, n_paths, tau)
        return False
    sched = build_schedule(attack_rules, jump_rules, n_epochs, n_paths, tau)
    assert same_bits(sched.attacks, attacks)
    assert same_bits(sched.jumps, jumps)
    assert sched.jump_epochs == {e for e, j in enumerate(jumps) if j}
    return True


SCHEDULE_MAGNITUDES = (10e-9, -2e-9, 1.25e-9, -0.0, 5e-324)


@st.composite
def schedule_rules(draw):
    """Random rules over a few paths: shared and repeated paths, long attacks, stray periods."""
    n_paths = draw(st.integers(1, 5))
    n_epochs = draw(st.integers(1, 90))
    tau = draw(st.sampled_from([1.0, 0.5, 2.0, 0.1]))

    attacks = [
        PeriodicAttackRule(
            paths=tuple(draw(st.lists(st.integers(0, n_paths - 1), min_size=1, max_size=3))),
            period_s=draw(st.integers(1, 40)) * tau,
            phase_s=draw(st.integers(0, n_epochs + 5)) * tau,
            magnitude_s=draw(st.sampled_from(SCHEDULE_MAGNITUDES)),
            duration_epochs=draw(st.integers(1, 4)),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    # jumps share the attacks' periods and phases now and then, so they collide
    periods = [r.period_s for r in attacks] + [draw(st.integers(1, 50)) * tau]
    phases = [r.phase_s for r in attacks] + [draw(st.integers(0, n_epochs + 5)) * tau]
    jumps = [
        PeriodicJumpRule(
            period_s=draw(st.sampled_from(periods)),
            phase_s=draw(st.sampled_from(phases)),
            magnitude_s=draw(st.sampled_from(SCHEDULE_MAGNITUDES)),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    # now and then one stray period or phase, which both must reject
    rules = attacks + jumps
    if rules and draw(st.integers(0, 3)) == 2:
        k = draw(st.integers(0, len(rules) - 1))
        field = draw(st.sampled_from(["period_s", "phase_s"]))
        value = draw(st.sampled_from([0.0, -tau, 2.5 * tau, 1e-12]))
        rules[k] = replace(rules[k], **{field: value})
        attacks, jumps = rules[: len(attacks)], rules[len(attacks) :]
    return attacks, jumps, n_epochs, n_paths, tau


@settings(max_examples=1000, deadline=None)
@given(schedule_rules())
def test_expansion_matches_the_event_by_event_reference(rules):
    assert_expansions_agree(*rules)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_expansions_match_the_reference(name):
    sc = preset(name)
    for n_epochs in (1, sc.n_epochs, 21_600):
        assert assert_expansions_agree(sc.attack_rules, sc.jump_rules, n_epochs, sc.n_paths, sc.tau)
