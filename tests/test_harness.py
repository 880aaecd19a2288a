"""Tests for scenario configuration, the epoch loop, CSV emission, and sweeps."""

import builtins
import hashlib
import json
import math
from dataclasses import fields, replace
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest

from timefuse import (
    PeriodicAttackRule,
    PeriodicJumpRule,
    PRESET_NAMES,
    Scenario,
    ScenarioError,
    preset,
    run_scenario,
)
from timefuse import _util, baselines, clocksim, evidence, fusion, harness, metrics
from timefuse.harness import (
    emit,
    format_sweep_table,
    parse_run_csv,
    parsed_stats,
    plotdata_text,
    run_csv_text,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_json,
    summarize_parsed,
    summarize_run,
    sweep,
    write_run_csv,
)


@pytest.fixture(scope="module")
def mini():
    return Scenario(
        name="mini",
        n_paths=3,
        n_epochs=60,
        method="DS2",
        seed=7,
        attack_rules=(PeriodicAttackRule((1,), 20.0, 15.0, 1e-8),),
    )


@pytest.fixture(scope="module")
def mini_result(mini):
    return run_scenario(mini)


#: Rules that passed ``Scenario(...)`` and then failed the run, one per kind.
BAD_EVENT_RULES = {
    "zero period": {"jump_rules": (PeriodicJumpRule(0.0, 0.0, 1e-9),)},
    "period of 1.5 epochs": {"jump_rules": (PeriodicJumpRule(1.5, 0.0, 1e-9),)},
    "negative phase": {"attack_rules": (PeriodicAttackRule((0,), 10.0, -1.0, 1e-8),)},
    "nan period": {"attack_rules": (PeriodicAttackRule((0,), math.nan, 0.0, 1e-8),)},
    "overlapping attacks": {
        "attack_rules": (
            PeriodicAttackRule((0,), 10.0, 0.0, 1e-8, duration_epochs=3),
            PeriodicAttackRule((0,), 10.0, 2.0, 1e-8),
        )
    },
    "path listed twice": {"attack_rules": (PeriodicAttackRule((1, 1), 10.0, 0.0, 1e-8),)},
    "two jumps on one epoch": {
        "jump_rules": (PeriodicJumpRule(10.0, 0.0, 1e-9), PeriodicJumpRule(5.0, 0.0, 2e-9))
    },
    "infinite phase": {"jump_rules": (PeriodicJumpRule(10.0, math.inf, 1e-9),)},
}


#: Noise that leaves a detector channel without a positive, finite sigma;
#: each passed ``Scenario(...)`` and then failed the run's calibration.
BAD_DETECTOR_NOISE = {
    "DS2 cross channel of two quiet paths": {
        "method": "DS2",
        "sigma_link": (0.0, 0.0, 1e-11),
        "sigma_meas": 0.0,
    },
    "Single on a quiet path 1": {
        "method": "Single",
        "sigma_offset": 0.0,
        "sigma_link": (0.0, 1e-11, 1e-11),
        "sigma_meas": 0.0,
    },
    "DS1 sigma overflowing its square": {"method": "DS1", "sigma_link": 1e200},
}


class TestScenarioValidation:
    def test_needs_two_paths(self):
        with pytest.raises(ScenarioError, match="n_paths"):
            Scenario(name="x", n_paths=1, n_epochs=10)

    def test_fta_needs_three_paths(self):
        with pytest.raises(ScenarioError, match="3 paths"):
            Scenario(name="x", n_paths=2, n_epochs=10, method="FTA")

    def test_name_charset(self):
        with pytest.raises(ScenarioError, match="name"):
            Scenario(name="bad name!", n_paths=3, n_epochs=10)

    def test_unknown_method(self):
        with pytest.raises(ScenarioError, match="method"):
            Scenario(name="x", n_paths=3, n_epochs=10, method="vote")

    def test_method_spelling_is_canonicalised(self):
        assert Scenario(name="x", n_paths=3, n_epochs=10, method="ds2").method == "DS2"
        assert Scenario(name="x", n_paths=3, n_epochs=10, method="single").method == "Single"
        assert Scenario(name="x", n_paths=3, n_epochs=10, method="fta").method == "FTA"

    def test_mass_bounds(self):
        with pytest.raises(ScenarioError, match="mass_floor"):
            Scenario(name="x", n_paths=3, n_epochs=10, mass_floor=0.6)

    def test_rate_bounds(self):
        with pytest.raises(ScenarioError, match="p_false_alarm"):
            Scenario(name="x", n_paths=3, n_epochs=10, p_false_alarm=0.5)

    def test_window_bounds(self):
        with pytest.raises(ScenarioError, match="window"):
            Scenario(name="x", n_paths=3, n_epochs=10, window=1)

    def test_rule_paths_must_exist(self):
        with pytest.raises(ScenarioError, match="paths"):
            Scenario(
                name="x",
                n_paths=3,
                n_epochs=10,
                attack_rules=(PeriodicAttackRule((5,), 50.0, 0.0, 1e-8),),
            )

    def test_rule_magnitude_must_be_nonzero(self):
        with pytest.raises(ScenarioError, match="magnitude"):
            Scenario(
                name="x",
                n_paths=3,
                n_epochs=10,
                jump_rules=(PeriodicJumpRule(30.0, 30.0, 0.0),),
            )

    @pytest.mark.parametrize("case", sorted(BAD_EVENT_RULES))
    def test_event_rules_are_checked_at_construction(self, case):
        with pytest.raises(ScenarioError, match="event rules: "):
            Scenario(name="x", n_paths=3, n_epochs=40, **BAD_EVENT_RULES[case])

    @pytest.mark.parametrize("duration", [2.0, True, "2"])
    def test_attack_duration_must_be_an_integer(self, duration):
        rule = PeriodicAttackRule((0,), 10.0, 0.0, 1e-8, duration_epochs=duration)
        with pytest.raises(ScenarioError, match="duration_epochs must be an integer"):
            Scenario(name="x", n_paths=3, n_epochs=40, attack_rules=(rule,))

    @pytest.mark.parametrize("case", sorted(BAD_DETECTOR_NOISE))
    def test_detector_noise_is_checked_at_construction(self, case):
        with pytest.raises(ScenarioError, match="noise: .*sigma"):
            Scenario(name="x", n_paths=3, n_epochs=40, **BAD_DETECTOR_NOISE[case])

    @pytest.mark.parametrize("method", ["DS2", "Single"])
    def test_one_quiet_path_is_enough_noise_for_a_detector(self, method):
        sc = Scenario(
            name="x",
            n_paths=3,
            n_epochs=40,
            method=method,
            sigma_link=(1e-11, 0.0, 1e-11),
            sigma_meas=(2e-11, 0.0, 2e-11),
        )
        assert run_scenario(sc).counts.false_positives == 0

    def test_replace_checks_the_rules_again(self):
        sc = preset("fig5d")
        assert replace(sc, tau=2.0).schedule().jumps.any()
        with pytest.raises(ScenarioError, match="whole numbers"):
            replace(sc, tau=0.7)

    def test_scenario_keeps_no_expanded_schedule(self):
        sc = preset("fig5d")
        assert set(vars(sc)) == {f.name for f in fields(sc)}
        assert not any(isinstance(v, np.ndarray) for v in vars(sc).values())
        assert replace(sc) == sc and hash(replace(sc)) == hash(sc)
        assert replace(sc, seed=2) != sc

    def test_warmup_never_exceeds_the_run(self):
        short = Scenario(name="x", n_paths=3, n_epochs=10)
        assert short.warmup == 10
        assert Scenario(name="x", n_paths=3, n_epochs=100).warmup == 30


class TestScenarioSerialisation:
    def test_dict_round_trip(self):
        sc = preset("fig3", method="DS1", seed=4)
        assert scenario_from_dict(sc.to_dict()) == sc

    def test_json_round_trip(self):
        sc = preset("fig5d")
        assert scenario_from_json(scenario_to_json(sc)) == sc

    def test_unknown_keys_rejected(self):
        data = preset("fig3").to_dict()
        data["bogus"] = 1
        with pytest.raises(ScenarioError, match="unknown"):
            scenario_from_dict(data)

    def test_unknown_nested_keys_rejected(self):
        data = preset("fig3").to_dict()
        data["detector"]["bogus"] = 1
        with pytest.raises(ScenarioError, match="unknown"):
            scenario_from_dict(data)

    def test_missing_required_key_rejected(self):
        with pytest.raises(ScenarioError, match="n_paths"):
            scenario_from_dict({"name": "x", "n_epochs": 10})

    def test_minimal_dict_uses_defaults(self):
        sc = scenario_from_dict({"name": "mini", "n_paths": 3, "n_epochs": 50})
        assert sc.method == "DS2"
        assert sc.seed == 1
        assert sc.sigma_meas == 2.5e-11
        assert sc.window == 30
        assert sc.attack_rules == ()


def attacked_paths(attacks, epoch):
    return np.flatnonzero(attacks[epoch]).tolist()


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESET_NAMES:
            sc = preset(name)
            assert sc.name == name
            sched = sc.schedule()
            assert sched.attacks.shape == (sc.n_epochs, sc.n_paths)
            assert sched.jumps.shape == (sc.n_epochs,)

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="preset"):
            preset("fig9")

    def test_staggered_single_path_attacks(self):
        sc = preset("fig3")
        assert sc.n_paths == 5 and sc.n_epochs == 2000
        attacks = sc.schedule().attacks
        for i in range(5):
            epochs = np.flatnonzero(attacks[:, i]).tolist()
            assert len(epochs) == 40
            assert epochs[0] == 10 * i
        assert (np.count_nonzero(attacks, axis=1) <= 1).all()

    def test_grouped_attacks(self):
        attacks = preset("fig4").schedule().attacks
        assert attacked_paths(attacks, 0) == [0, 1]
        assert attacked_paths(attacks, 20) == [2, 3]
        assert attacked_paths(attacks, 40) == [4]

    def test_clean_condition_has_no_events(self):
        sched = preset("fig5a").schedule()
        assert not sched.attacks.any() and not sched.jumps.any()

    def test_jump_condition(self):
        sched = preset("fig5c").schedule()
        assert not sched.attacks.any()
        assert sorted(sched.jump_epochs) == list(range(30, 3000, 30))

    def test_combined_condition_postpones_colliding_jumps(self):
        sched = preset("fig5d").schedule()
        attacked = set(np.flatnonzero(sched.attacks.any(axis=1)).tolist())
        assert attacked and sched.jump_epochs
        assert not (sched.jump_epochs & attacked)
        # the periodic collision at multiples of 150 lands one epoch late
        assert 150 not in sched.jump_epochs
        assert 151 in sched.jump_epochs

    def test_three_path_variant(self):
        sc = preset("exp3")
        assert sc.n_paths == 3
        assert sc.attack_rules[0].magnitude_s == 1.25e-9
        assert sc.jump_rules[0].magnitude_s == 1e-9

    def test_method_and_seed_pass_through(self):
        sc = preset("fig3", method="fta", seed=9)
        assert sc.method == "FTA" and sc.seed == 9


class TestRunScenario:
    def test_shape_and_determinism(self, mini, mini_result):
        again = run_scenario(mini)
        assert len(mini_result.records) == mini.n_epochs
        assert len(mini_result.sync_errors) == mini.n_epochs
        assert np.array_equal(again.sync_errors, mini_result.sync_errors)
        assert run_csv_text(mini, again.records) == run_csv_text(mini, mini_result.records)

    def test_detects_the_scheduled_attacks(self, mini_result):
        counts = mini_result.counts
        assert counts.true_positives == 2
        assert counts.false_positives == 0
        assert counts.false_negatives == 0

    def test_noise_free_run_is_steered_to_zero(self):
        quiet = Scenario(
            name="quiet",
            n_paths=3,
            n_epochs=20,
            method="FTA",
            sigma_offset=0.0,
            sigma_drift=0.0,
            sigma_link=0.0,
            sigma_meas=0.0,
        )
        result = run_scenario(quiet)
        assert all(rec.true_offset == 0.0 for rec in result.records)
        assert all(e == 0.0 for e in result.sync_errors)

    def test_detector_methods_need_positive_noise(self):
        with pytest.raises(ScenarioError, match="sigma"):
            Scenario(
                name="quiet",
                n_paths=3,
                n_epochs=20,
                method="DS2",
                sigma_offset=0.0,
                sigma_drift=0.0,
                sigma_link=0.0,
                sigma_meas=0.0,
            )

    def test_single_method_watches_the_first_path(self):
        sc = Scenario(
            name="solo",
            n_paths=3,
            n_epochs=80,
            method="Single",
            seed=3,
            attack_rules=(PeriodicAttackRule((0,), 40.0, 35.0, 1e-8),),
        )
        result = run_scenario(sc)
        flagged = {
            (rec.epoch, v.path_id)
            for rec in result.records
            for v in rec.verdicts
            if v.flagged
        }
        assert flagged and all(path == 0 for _, path in flagged)

    def test_clock_leaving_the_float_range_is_an_error(self):
        # the single-path detector coasts through each huge jump, so they add up
        sc = Scenario(
            name="blowup",
            n_paths=3,
            n_epochs=10,
            method="Single",
            jump_rules=(PeriodicJumpRule(1.0, 0.0, 1.7e308),),
        )
        with pytest.raises(ValueError, match="finite"):
            run_scenario(sc)

    def test_a_clock_leaving_the_float_range_fails_in_its_first_block(self, monkeypatch):
        sc = Scenario(
            name="blowup",
            n_paths=3,
            n_epochs=4 * harness._BLOCK_EPOCHS,
            method="Single",
            jump_rules=(PeriodicJumpRule(1.0, 0.0, 1.7e308),),
        )
        drawn = []

        def draw_noise(noise, rngs, n_epochs):
            drawn.append(n_epochs)
            return clocksim.draw_noise(noise, rngs, n_epochs)

        monkeypatch.setattr(harness, "draw_noise", draw_noise)
        with pytest.raises(ValueError, match="clock state must be finite"):
            run_scenario(sc)
        assert drawn == [harness._BLOCK_EPOCHS]

    def test_a_coasting_ds0_clock_leaving_the_float_range_is_an_error(self):
        # DS0 flags every path at the first huge jump and coasts, so the jumps
        # add up; infinite reports are never loud, so the evidence kernel sees
        # them and rejects them, with no numpy warning about inf - inf first
        sc = Scenario(
            name="blowup",
            n_paths=3,
            n_epochs=10,
            method="DS0",
            jump_rules=(PeriodicJumpRule(1.0, 0.0, 1.7e308),),
        )
        with pytest.raises(ValueError, match="residuals must be finite"):
            run_scenario(sc)

    def test_short_run_has_no_deviation_curve(self):
        sc = Scenario(name="blip", n_paths=3, n_epochs=5, method="FTA")
        result = run_scenario(sc)
        assert result.tdev is None

    def test_saturated_unclamped_evidence_runs_to_completion(self):
        # at this steepness the logistic of many residuals rounds to exactly
        # 0 or 1, which folding masses with Dempster's rule cannot combine
        sc = replace(preset("fig3", method="DS0"), steepness_log_odds=800.0)
        result = run_scenario(sc)
        assert len(result.records) == sc.n_epochs
        assert result.counts.false_negatives == 0

    def test_quarantine_keeps_a_flagged_path_out_for_k_epochs(self):
        k = 3
        sc = Scenario(
            name="quarantine",
            n_paths=5,
            n_epochs=200,
            seed=2,
            quarantine=k,
            attack_rules=(PeriodicAttackRule((2,), 100.0, 60.0, 10e-9),),
        )
        records = run_scenario(sc).records
        flagged = [[v.flagged for v in r.verdicts] for r in records]
        assert [(e, i) for e, row in enumerate(flagged) for i, f in enumerate(row) if f] == [
            (60, 2),
            (160, 2),
        ]

        def steered_by(epoch):
            """Paths the correction of ``epoch`` is the negated mean of."""
            offsets = [o.measured_offset for o in records[epoch].observations]
            matches = [
                paths
                for paths in (range(5), [0, 1, 3, 4])
                if records[epoch].correction
                == -reduce(add, (offsets[i] for i in paths), 0.0) / len(paths)
            ]
            assert len(matches) == 1
            return list(matches[0])

        for flag_epoch in (60, 160):
            for epoch in range(flag_epoch, flag_epoch + k + 1):
                assert steered_by(epoch) == [0, 1, 3, 4]
            assert steered_by(flag_epoch + k + 1) == [0, 1, 2, 3, 4]
            assert steered_by(flag_epoch - 1) == [0, 1, 2, 3, 4]


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.fixture(scope="module")
def golden_preset_runs():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["preset_sweep"]


@pytest.mark.parametrize("method", ["DS0", "DS1", "DS2"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_csv_bytes_match_the_committed_digests(name, method, golden_preset_runs):
    sc = preset(name, method=method, seed=1)
    text = run_csv_text(sc, run_scenario(sc).records)
    expected = golden_preset_runs[f"{name}_{method}_seed1"]["csv"]
    assert hashlib.sha256(text.encode()).hexdigest() == expected


@pytest.mark.parametrize("method", ["FTA", "Single"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_baseline_preset_artifacts_match_the_committed_digests(
    name, method, golden_preset_runs, tmp_path
):
    result = run_scenario(preset(name, method=method, seed=1))
    paths = emit(result, tmp_path)
    expected = golden_preset_runs[f"{name}_{method}_seed1"]
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
    assert digests == [expected["csv"], expected["summary"], expected["tdev"]]


@pytest.mark.parametrize("seed", range(2, 11))
@pytest.mark.parametrize(
    "name, method",
    [("fig5c", "DS0"), ("fig5d", "DS0"), ("exp3", "DS0"), ("fig3", "Single"), ("fig5b", "Single")],
)
def test_loud_and_fixed_axis_runs_match_the_digests_of_later_seeds(
    name, method, seed, golden_preset_runs, tmp_path
):
    # DS0 is loud on 99 % of the epochs of the presets with clock jumps, and
    # Single fits about 40 % of its fig3 and fig5b windows on the fixed axis
    paths = emit(run_scenario(preset(name, method=method, seed=seed)), tmp_path)
    expected = golden_preset_runs[f"{name}_{method}_seed{seed}"]
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
    assert digests == [expected["csv"], expected["summary"], expected["tdev"]]


@pytest.mark.parametrize("method", ["DS2", "DS0"])
def test_wide_run_artifacts_match_the_committed_digests(method, tmp_path):
    # perfbench's wide_paths runs at seed 1: path i attacked every 50 s at
    # 2i s.  With 20 paths numpy's row sum is pairwise, not a left fold.
    n = 20
    attacks = tuple(
        PeriodicAttackRule(paths=(i,), period_s=50.0, phase_s=2.0 * i, magnitude_s=10e-9)
        for i in range(n)
    )
    scenario = Scenario(
        name=f"wide{n}", n_paths=n, n_epochs=1000, method=method, seed=1, attack_rules=attacks
    )
    paths = emit(run_scenario(scenario), tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["wide_paths"]
    expected = golden[f"wide{n}_{method}_seed1"]
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
    assert digests == [expected["csv"], expected["summary"], expected["tdev"]]


def compensated_sum(items, start=0):
    """The builtin ``sum`` of Python 3.12 on: Neumaier-compensated over floats."""
    items = list(items)
    if start != 0 or not all(isinstance(x, float) for x in items):
        return builtins.sum(items, start)
    total = c = 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            c += (total - t) + x
        else:
            c += (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.mark.parametrize("method", ["DS2", "FTA", "Single"])
@pytest.mark.parametrize("name", ["fig3", "fig5a", "exp3"])
def test_runs_do_not_depend_on_the_builtin_float_sum(name, method, monkeypatch):
    def run_columns():
        r = run_scenario(preset(name, method=method, seed=1))
        columns = (r.corrections, r.log_odds, r.flags)
        return [None if c is None else np.asarray(c).tobytes() for c in columns]

    plain = run_columns()
    for module in (_util, baselines, clocksim, evidence, fusion, harness, metrics):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert run_columns() == plain


class TestCsvRoundTrip:
    def test_emit_writes_the_three_artifacts(self, mini_result, tmp_path):
        files = emit(mini_result, tmp_path)
        assert [f.name for f in files] == [
            "mini_DS2_seed7.csv",
            "mini_DS2_seed7_summary.txt",
            "mini_DS2_seed7_tdev.csv",
        ]
        for f in files:
            assert f.exists()

    def test_emit_format_selection(self, mini_result, tmp_path):
        files = emit(mini_result, tmp_path, formats=("csv",))
        assert [f.name for f in files] == ["mini_DS2_seed7.csv"]
        with pytest.raises(ValueError, match="format"):
            emit(mini_result, tmp_path, formats=("yaml",))

    def test_parse_recovers_run_metadata(self, mini, mini_result, tmp_path):
        parsed = parse_run_csv(write_run_csv(mini_result, tmp_path / "run.csv"))
        assert parsed.name == "mini"
        assert parsed.method == "DS2"
        assert parsed.seed == 7
        assert parsed.tau == 1.0
        assert parsed.window == 30
        assert parsed.n_paths == 3
        assert np.array_equal(parsed.epochs, np.arange(60))
        assert parsed.warmup == 30

    def test_parse_recovers_the_statistics(self, mini_result, tmp_path):
        parsed = parse_run_csv(write_run_csv(mini_result, tmp_path / "run.csv"))
        counts, per_path, curve = parsed_stats(parsed)
        assert counts == mini_result.counts
        assert per_path == mini_result.path_counts
        assert curve is not None and mini_result.tdev is not None
        for a, b in zip(curve.deviations, mini_result.tdev.deviations):
            assert a == pytest.approx(b, rel=1e-4)

    def test_round_trip_sync_errors_match_to_csv_resolution(self, mini_result, tmp_path):
        parsed = parse_run_csv(write_run_csv(mini_result, tmp_path / "run.csv"))
        for recovered, original in zip(parsed.sync_errors, mini_result.sync_errors):
            assert recovered == pytest.approx(original, abs=2e-15)

    def test_header_only_output_for_empty_records(self, mini):
        text = run_csv_text(mini, ())
        lines = text.splitlines()
        assert lines[0] == "# name=mini"
        assert lines[-1].startswith("epoch,true_theta_ps,")
        assert len(lines) == 7

    def test_parse_rejects_missing_preamble(self, mini_result, tmp_path):
        good = write_run_csv(mini_result, tmp_path / "run.csv")
        lines = good.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(line for line in lines if not line.startswith("# tau_s")) + "\n")
        with pytest.raises(ValueError, match="tau_s"):
            parse_run_csv(bad)

    def test_parse_rejects_wrong_header(self, mini_result, tmp_path):
        good = write_run_csv(mini_result, tmp_path / "run.csv")
        lines = good.read_text().splitlines()
        lines[6] = lines[6].replace("true_theta_ps", "theta_true_ps")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="header"):
            parse_run_csv(bad)

    def test_parse_rejects_bad_flag_cell(self, mini_result, tmp_path):
        good = write_run_csv(mini_result, tmp_path / "run.csv")
        lines = good.read_text().splitlines()
        cells = lines[7].split(",")
        cells[5] = "2"
        lines[7] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="flag"):
            parse_run_csv(bad)


class TestReporting:
    def test_summary_contents(self, mini_result):
        text = summarize_run(mini_result)
        assert "run mini" in text
        assert "method=DS2" in text
        assert "precision" in text and "recall" in text
        assert "tdev_ps" in text
        assert "rms=" in text

    def test_summary_from_csv_matches_summary_from_run(self, mini_result, tmp_path):
        parsed = parse_run_csv(write_run_csv(mini_result, tmp_path / "run.csv"))
        direct = summarize_run(mini_result)
        recovered = summarize_parsed(parsed)
        # identical shape and identical detection table; deviations may
        # differ in the last digit from CSV rounding
        assert recovered.splitlines()[0] == direct.splitlines()[0]
        assert [l for l in recovered.splitlines() if "%" in l] == [
            l for l in direct.splitlines() if "%" in l
        ]

    def test_plotdata_lists_the_curve(self, mini_result):
        text = plotdata_text(mini_result.tdev)
        lines = text.splitlines()
        assert lines[0] == "tau_s,tdev_ps"
        assert len(lines) == 1 + len(mini_result.tdev.taus)

    def test_sweep_rows(self):
        rows = sweep(["fig3"], ["DS2", "FTA"], [1])
        assert [r["method"] for r in rows] == ["DS2", "FTA"]
        for row in rows:
            assert row["preset"] == "fig3"
            assert row["seeds"] == 1
            assert 0.0 <= row["precision"] <= 1.0
            assert 0.0 <= row["recall"] <= 1.0
            assert set(row["tdev_ps"]) == {1, 10, 100}
        table = format_sweep_table(rows)
        assert "fig3" in table and "FTA" in table