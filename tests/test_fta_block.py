"""The FTA block step against the per-epoch reference loop.

``baselines.fta_block`` computes a block's first offset exactly from the
state before it and guesses every later one; ``_util.settle`` then
solves the steering recurrence in vectorised fixed-point rounds of
``baselines.fta_corrections``.  A fixed point whose first offset is
exact is the per-epoch loop's trajectory, and each round makes at least
one more offset exact, so any guess -- NaN and infinities included --
may cost rounds but never a bit, and a block of L epochs takes at most L
rounds.  The engine never calls :func:`fta_update`.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine import assert_engines_agree, reference_run, same_bits

from timefuse import (
    PeriodicAttackRule,
    PeriodicJumpRule,
    Scenario,
    ScenarioError,
    preset,
    run_scenario,
)
from timefuse import baselines
from timefuse._util import left_sum, settle
from timefuse.harness import _BLOCK_EPOCHS


def fta_scenario(n_paths, n_epochs, **kwargs):
    """An FTA run with an attack across the first block edge and a clock jump every 30 s."""
    return Scenario(
        name="fta",
        n_paths=n_paths,
        n_epochs=n_epochs,
        method="FTA",
        seed=3,
        attack_rules=(
            PeriodicAttackRule((1,), float(_BLOCK_EPOCHS), float(_BLOCK_EPOCHS - 2), 10e-9, 4),
        ),
        jump_rules=(PeriodicJumpRule(30.0, 30.0, -1e-9),),
        **kwargs,
    )


@pytest.fixture
def fta_update_calls(monkeypatch):
    """The rows the engine hands to ``fta_update``: none, however wrong its guess."""
    calls = []

    def counted(offsets):
        calls.append(offsets)
        return fta_update(offsets)

    fta_update = baselines.fta_update
    monkeypatch.setattr(baselines, "fta_update", counted)
    return calls


#: Guesses no offset could take, cycled over the epochs a test corrupts;
#: 5e-324 is one ulp above the block's own guess of 0.0.
HOSTILE = (np.nan, np.inf, -np.inf, -0.0, 5e-324)


def counted_rounds(monkeypatch, corrupt=slice(0, 0)):
    """``[(epochs, rounds)]`` of every block ``fta_block`` settles, once the test has run.

    ``rounds`` counts the block's ``correction_of`` calls.  ``corrupt``
    picks the epochs, after the exact first one, whose guess is replaced
    by the values of :data:`HOSTILE` in turn.
    """
    blocks = []

    def counted(offsets, steps, correction_of):
        epochs = np.arange(1, len(offsets))[corrupt]
        offsets[epochs] = np.resize(HOSTILE, len(epochs))
        calls = []

        def correction_counted(values, at):
            calls.append(len(at))
            return correction_of(values, at)

        corrections = solve(offsets, steps, correction_counted)
        blocks.append((len(offsets), len(calls)))
        return corrections

    solve = baselines.settle
    monkeypatch.setattr(baselines, "settle", counted)
    return blocks


@pytest.mark.parametrize("n_paths", [3, 5])
def test_a_guess_wrong_on_some_epochs_costs_no_bit(n_paths, fta_update_calls, monkeypatch):
    blocks = counted_rounds(monkeypatch, slice(None, None, 7))
    assert_engines_agree(fta_scenario(n_paths, _BLOCK_EPOCHS + 300))
    assert fta_update_calls == []
    assert [epochs for epochs, _ in blocks] == [_BLOCK_EPOCHS, 300]
    assert all(rounds <= epochs for epochs, rounds in blocks)


@pytest.mark.parametrize("n_paths", [3, 4, 6])
def test_a_guess_wrong_on_every_epoch_costs_no_bit(n_paths, fta_update_calls, monkeypatch):
    blocks = counted_rounds(monkeypatch, slice(None))
    scenario = fta_scenario(n_paths, 280)
    reference = reference_run(scenario)
    assert_engines_agree(scenario, reference)
    assert fta_update_calls == []
    # a NaN guess at epoch 1 is carried forward a round at a time: the bound is reached
    assert blocks == [(280, 280)]


def test_reports_tied_at_zero_take_the_corrections_of_fta_update(fta_update_calls):
    # no noise and no drift: the reports tie at 0.0 until the jumps and the attack
    # separate them, and the corrections are -0.0 where fta_update gives -0.0
    scenario = fta_scenario(
        5, _BLOCK_EPOCHS + 60, sigma_offset=0.0, sigma_drift=0.0, sigma_link=0.0, sigma_meas=0.0
    )
    result = run_scenario(scenario)
    assert fta_update_calls == []
    exact = [baselines.fta_update(row) for row in result.measured.tolist()]
    assert same_bits(result.corrections, exact)
    assert np.signbit(result.corrections).any() and (result.measured == 0.0).any()
    assert_engines_agree(scenario)


def test_six_hour_fig5d_blocks_settle_in_at_most_32_rounds(monkeypatch):
    # the guess of 0.0 is one round from ulp-close; more rounds mean a worse guess
    blocks = counted_rounds(monkeypatch)
    for seed in range(1, 11):
        run_scenario(dataclasses.replace(preset("fig5d", "FTA", seed), n_epochs=21_600))
    assert len(blocks) == 10 * len(range(0, 21_600, _BLOCK_EPOCHS))
    assert max(rounds for _, rounds in blocks) <= 32


# ---------------------------------------------------------------------------
# settle against a plain scalar loop of the same recurrence


def calm_corrections(paths, offsets, at):
    """A DS calm epoch's correction, minus the mean of all its reports, row by row."""
    link, meas, attacks = (c[at] for c in paths)
    reports = ((offsets[:, None] + link) + meas) + attacks
    total = np.zeros(len(at))
    for column in reports.T:
        total += column
    return -total / reports.shape[1]


CORRECTIONS = {
    "fta": (baselines.fta_corrections, baselines.fta_update),
    "calm": (calm_corrections, lambda reports: -left_sum(reports) / len(reports)),
}


def scalar_loop(first, steps, paths, correct):
    """``(offsets, corrections)`` of the recurrence, one epoch at a time in Python floats."""
    dt, noise, jumps = (c.tolist() for c in steps)
    offsets, corrections = [first], []
    for k, rows in enumerate(zip(*(c.tolist() for c in paths))):
        if k:
            offsets.append(offsets[-1] + corrections[-1] + dt[k] + noise[k] + jumps[k])
        corrections.append(correct([offsets[-1] + w + v + a for w, v, a in zip(*rows)]))
    return offsets, corrections


@st.composite
def recurrences(draw):
    """``(first, steps, paths, rng)`` of a block: increments, jumps and attacks with signed zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_epochs = draw(st.integers(1, 60))
    n_paths = draw(st.integers(3, 6))
    zeros = draw(st.sampled_from([0.0, 0.2, 0.9]))

    def column(values, shape=()):
        shape = (n_epochs,) + shape
        xs = rng.choice(values, size=shape) if isinstance(values, list) else values(shape)
        signed_zeros = rng.random(shape) < zeros
        xs[signed_zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[signed_zeros]
        return xs

    def noise(shape):
        # scale 0.0 keeps the normals' signs: zeros of both signs
        return rng.normal(size=shape) * draw(st.sampled_from([0.0, 1e-12, 1e-9]))

    steps = (column(noise), column(noise), column([0.0, 0.0, 0.0, 1e-9, -1e-9, 1e-3]))
    attacks = column([0.0, 0.0, 0.0, 10e-9, -2e-9], (n_paths,))
    paths = (column(noise, (n_paths,)), column(noise, (n_paths,)), attacks)
    first = draw(st.sampled_from([0.0, -0.0, 1e-9, -3e-4]))
    return first, steps, paths, rng


@settings(max_examples=300, deadline=None)
@given(
    recurrences(),
    st.sampled_from(sorted(CORRECTIONS)),
    st.sampled_from(["zero", "nan", "inf", "-inf", "-0.0", "nudge", "mixed"]),
)
def test_settle_is_the_scalar_loop_for_any_guess(recurrence, correction, guess):
    first, steps, paths, rng = recurrence
    vectorised, scalar = CORRECTIONS[correction]
    offsets, corrections = scalar_loop(first, steps, paths, scalar)
    exact = np.array(offsets)
    solved = exact.copy()
    if guess == "nudge":
        # one ulp off on every seventh epoch, exact elsewhere
        solved[1::7] = np.nextafter(solved[1::7], np.inf)
    elif guess == "mixed":
        # each epoch hostile, 0.0, one ulp below or exact
        picks = rng.integers(0, len(HOSTILE) + 3, size=len(solved))
        for k, pick in enumerate(picks.tolist()):
            if pick < len(HOSTILE):
                solved[k] = HOSTILE[pick]
            elif pick == len(HOSTILE):
                solved[k] = 0.0
            elif pick == len(HOSTILE) + 1:
                solved[k] = np.nextafter(exact[k], -np.inf)
    else:
        solved[:] = 0.0 if guess == "zero" else float(guess)
    solved[0] = first
    calls = []

    def counted(values, at):
        calls.append(len(at))
        return vectorised(paths, values, at)

    with np.errstate(invalid="ignore"):
        settled = settle(solved, steps, counted)
    assert same_bits(solved, offsets)
    assert same_bits(settled, corrections)
    assert len(calls) <= len(offsets)
    assert calls[0] == len(offsets)


def test_settle_recomputes_only_the_epochs_whose_guess_moved():
    rng = np.random.default_rng(4)
    n_epochs = 200
    steps = tuple(rng.normal(size=n_epochs) * 1e-11 for _ in range(3))
    paths = tuple(rng.normal(size=(n_epochs, 5)) * 1e-11 for _ in range(3))
    offsets, corrections = scalar_loop(1e-9, steps, paths, baselines.fta_update)
    solved = np.array(offsets)
    calls = []

    def counted(values, at):
        calls.append(at.tolist())
        return baselines.fta_corrections(paths, values, at)

    assert same_bits(settle(solved.copy(), steps, counted), corrections)
    # an exact guess costs one pass over the block and no round
    assert calls == [list(range(n_epochs))]
    calls.clear()
    solved[50] = np.nextafter(solved[50], np.inf)
    assert same_bits(settle(solved, steps, counted), corrections)
    # a nudged epoch is recomputed from its exact predecessor, and nothing before it
    assert calls[0] == list(range(n_epochs)) and calls[1][0] == 50
    assert same_bits(solved, offsets)


HUGE = 1.7e308


@pytest.mark.parametrize(
    "n_paths, attack_rules",
    [
        # FTA would keep a 1.7e308 report and steer the clock by it
        (3, (PeriodicAttackRule((0, 1), 10.0, 3.0, HUGE),)),
        (5, (PeriodicAttackRule((0, 1), 7.0, 3.0, HUGE, duration_epochs=3),)),
        # the clock steered to about -1.1e308, then a -1.7e308 attack on one path
        (
            5,
            (
                PeriodicAttackRule((0, 1, 2), 1e6, 3.0, HUGE),
                PeriodicAttackRule((3,), 1e6, 4.0, -HUGE),
            ),
        ),
        (
            5,
            (
                PeriodicAttackRule((0, 1, 2), 1e6, float(_BLOCK_EPOCHS + 3), -HUGE),
                PeriodicAttackRule((3,), 1e6, float(_BLOCK_EPOCHS + 4), HUGE),
            ),
        ),
    ],
)
def test_a_huge_attack_is_rejected_at_construction(n_paths, attack_rules):
    with pytest.raises(ScenarioError, match="attack_rules: magnitude_s"):
        Scenario(
            name="huge",
            n_paths=n_paths,
            n_epochs=_BLOCK_EPOCHS + 60,
            method="FTA",
            seed=2,
            attack_rules=attack_rules,
        )
