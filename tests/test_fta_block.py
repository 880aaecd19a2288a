"""The FTA block step against the per-epoch reference loop.

``baselines.fta_block`` forms only the reports that
``baselines.fta_kept_order`` guesses FTA keeps, then checks every
epoch's correction against :func:`fta_update` in one pass and runs the
block again from the first epoch whose correction differs.  A wrong
guess may cost time but never a bit.
"""

import numpy as np
import pytest
from test_engine import assert_engines_agree, reference_run, same_bits

from timefuse import PeriodicAttackRule, PeriodicJumpRule, Scenario, ScenarioError, run_scenario
from timefuse import baselines
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
def exact_calls(monkeypatch):
    """The rows the block hands to ``fta_update``, each a list of one epoch's reports."""
    calls = []

    def counted(offsets):
        calls.append(offsets)
        return fta_update(offsets)

    fta_update = baselines.fta_update
    monkeypatch.setattr(baselines, "fta_update", counted)
    return calls


@pytest.mark.parametrize("n_paths", [3, 5])
def test_a_guess_wrong_on_some_epochs_costs_no_bit(n_paths, exact_calls, monkeypatch):
    kept_order = baselines.fta_kept_order

    def wrong_every_seventh(link, meas, attacks):
        # from a block's first epoch, every seventh keeps the smallest report in place of
        # the first kept one; from its fourth, every seventh the largest in place of the last
        order = kept_order(link, meas, attacks)
        full = np.argsort(link + meas + attacks, axis=1, kind="stable")
        order[::7, 0] = full[::7, 0]
        order[3::7, -1] = full[3::7, -1]
        return order

    monkeypatch.setattr(baselines, "fta_kept_order", wrong_every_seventh)
    blocks = (_BLOCK_EPOCHS, 300)
    assert_engines_agree(fta_scenario(n_paths, sum(blocks)))
    # the block redid each epoch whose guess was wrong, and only those
    assert len(exact_calls) == sum(len(range(0, b, 7)) + len(range(3, b, 7)) for b in blocks)


@pytest.mark.parametrize("n_paths", [3, 4, 6])
def test_a_guess_wrong_on_every_epoch_costs_no_bit(n_paths, exact_calls, monkeypatch):
    def the_smallest(link, meas, attacks):
        return np.argsort(link + meas + attacks, axis=1, kind="stable")[:, : n_paths - 2]

    monkeypatch.setattr(baselines, "fta_kept_order", the_smallest)
    scenario = fta_scenario(n_paths, 280)
    reference = reference_run(scenario)
    assert_engines_agree(scenario, reference)
    # no epoch's smallest reports average to the kept ones, so every epoch was redone
    assert len(exact_calls) == scenario.n_epochs


def test_reports_tied_at_zero_take_the_corrections_of_fta_update(exact_calls):
    # no noise and no drift: the reports tie at 0.0 until the jumps and the attack
    # separate them, and the corrections are -0.0 where fta_update gives -0.0
    scenario = fta_scenario(
        5, _BLOCK_EPOCHS + 60, sigma_offset=0.0, sigma_drift=0.0, sigma_link=0.0, sigma_meas=0.0
    )
    result = run_scenario(scenario)
    assert exact_calls == []
    exact = [baselines.fta_update(row) for row in result.measured.tolist()]
    assert same_bits(result.corrections, exact)
    assert np.signbit(result.corrections).any() and (result.measured == 0.0).any()
    assert_engines_agree(scenario)


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
