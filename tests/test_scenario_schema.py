"""Tests for the scenario schema: one table checks, writes and reads every setting."""

import copy
import hashlib
import json
import math
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timefuse import PeriodicAttackRule, PeriodicJumpRule, Scenario, ScenarioError
from timefuse.harness import (
    _SCENARIO_KEYS,
    ATTACK_MIN,
    MAGNITUDE_MAX,
    METHODS,
    PRESET_NAMES,
    RATE_MIN,
    SIGMA_MAX,
    STEEPNESS_MAX,
    TAU_MAX,
    TAU_MIN,
    parse_run_csv,
    preset,
    run_csv_text,
    run_scenario,
    scenario_from_dict,
    scenario_from_json,
    scenario_to_json,
    write_run_csv,
)

#: A valid scenario file with one rule of each kind.
BASE = {
    "name": "base",
    "n_paths": 3,
    "n_epochs": 40,
    "attacks": [
        {"paths": [0], "period_s": 10.0, "phase_s": 0.0, "magnitude_s": 1e-8, "duration_epochs": 1}
    ],
    "jumps": [{"period_s": 15.0, "phase_s": 5.0, "magnitude_s": 1e-9}],
}

#: Values of the wrong type for most settings; each case skips the one its setting takes.
WRONG = [None, "1", ["1"], True]


def wrong_values(kind):
    return [v for v in WRONG if not (kind == "str" and v == "1" or kind == "bool" and v is True)]


SETTING_CASES = [
    pytest.param(section, key, fname, bad, id=f"{key}={bad!r}")
    for section, key, fname, kind in _SCENARIO_KEYS
    if isinstance(kind, str)
    for bad in wrong_values(kind)
]

RULE_CASES = [
    pytest.param(key, fname, f.name, bad, id=f"{key}.{f.name}={bad!r}")
    for _, key, fname, kind in _SCENARIO_KEYS
    if not isinstance(kind, str)
    for f in fields(kind)
    for bad in WRONG
]


@pytest.fixture(scope="module")
def base():
    return scenario_from_dict(BASE)


class TestWrongTypes:
    @pytest.mark.parametrize("section, key, fname, bad", SETTING_CASES)
    def test_a_wrong_typed_setting_is_a_scenario_error(self, section, key, fname, bad, base):
        with pytest.raises(ScenarioError, match=re.escape(fname)):
            replace(base, **{fname: bad})
        data = copy.deepcopy(BASE)
        (data if section is None else data.setdefault(section, {}))[key] = bad
        with pytest.raises(ScenarioError, match=re.escape(fname)):
            scenario_from_dict(data)

    @pytest.mark.parametrize("key, fname, field, bad", RULE_CASES)
    def test_a_wrong_typed_rule_field_is_a_scenario_error(self, key, fname, field, bad, base):
        rule = replace(getattr(base, fname)[0], **{field: bad})
        with pytest.raises(ScenarioError, match=re.escape(f"{fname}[0].{field}")):
            replace(base, **{fname: (rule,)})
        data = copy.deepcopy(BASE)
        data[key][0][field] = bad
        with pytest.raises(ScenarioError, match=re.escape(f"{fname}[0].{field}")):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"attack_rules": 5}, "attack_rules must be a list of PeriodicAttackRule"),
            (
                {"attack_rules": (PeriodicJumpRule(30.0, 0.0, 1e-9),)},
                "attack_rules[0] must be a PeriodicAttackRule",
            ),
            (
                {"jump_rules": (PeriodicAttackRule((0,), 30.0, 0.0, 1e-9),)},
                "jump_rules[0] must be a PeriodicJumpRule",
            ),
            ({"two_sided": "yes"}, "two_sided must be true or false"),
            ({"sigma_link": "12"}, "sigma_link must be a number or one number per path"),
            ({"tau": 10**400}, "tau is beyond the float range"),
        ],
    )
    def test_a_wrong_typed_field_fails_with_its_name(self, change, message, base):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            replace(base, **change)

    @pytest.mark.parametrize("path", [1.7, "2", True, None])
    def test_attack_paths_must_be_integers(self, path):
        rule = PeriodicAttackRule((path,), 10.0, 0.0, 1e-8)
        with pytest.raises(ScenarioError, match=re.escape("attack_rules[0].paths[0]")):
            Scenario(name="x", n_paths=3, n_epochs=40, attack_rules=(rule,))

    def test_numpy_integers_are_integers(self):
        rule = PeriodicAttackRule((np.int64(1),), 10.0, 0.0, 1e-8, duration_epochs=np.int32(2))
        sc = Scenario(name="x", n_paths=3, n_epochs=40, seed=np.uint8(4), attack_rules=[rule])
        (stored,) = sc.attack_rules
        assert stored.paths == (1,) and type(stored.paths[0]) is int
        assert type(stored.duration_epochs) is int and type(sc.seed) is int
        assert scenario_from_json(scenario_to_json(sc)) == sc

    def test_a_name_with_a_trailing_newline_is_rejected(self):
        with pytest.raises(ScenarioError, match="name"):
            Scenario(name="x\n", n_paths=3, n_epochs=40)


class TestNumbersAreStoredAsFloats:
    def test_an_int_tau_writes_the_same_files_as_a_float_tau(self):
        runs = [Scenario(name="t", n_paths=3, n_epochs=40, method="FTA", tau=t) for t in (1, 1.0)]
        assert type(runs[0].tau) is float
        texts = [run_csv_text(sc, run_scenario(sc).records) for sc in runs]
        assert texts[0] == texts[1]
        assert scenario_to_json(runs[0]) == scenario_to_json(runs[1])

    def test_int_sigmas_and_rule_times_are_floats(self):
        sc = Scenario(
            name="x",
            n_paths=3,
            n_epochs=40,
            method="FTA",
            sigma_offset=0,
            sigma_link=[0, 1e-11, 0],
            jump_rules=[PeriodicJumpRule(15, 5, 1e-9)],
        )
        assert sc.sigma_offset == 0.0 and type(sc.sigma_offset) is float
        assert sc.sigma_link == (0.0, 1e-11, 0.0)
        assert all(type(s) is float for s in sc.sigma_link)
        assert sc.jump_rules == (PeriodicJumpRule(15.0, 5.0, 1e-9),)
        assert type(sc.jump_rules[0].period_s) is float
        assert scenario_from_json(scenario_to_json(sc)) == sc

    def test_whole_number_floats_in_a_file_are_read_as_ints(self):
        data = copy.deepcopy(BASE)
        data["n_paths"] = 3.0
        data.setdefault("detector", {})["window_epochs"] = 20.0
        data["attacks"][0]["paths"] = [1.0]
        sc = scenario_from_dict(data)
        assert (sc.n_paths, sc.window, sc.attack_rules[0].paths) == (3, 20, (1,))


#: sha256 of ``scenario_to_json`` of every preset x method at seeds 1 and 7,
#: concatenated in that loop order.
PRESET_JSON_SHA256 = "3acfe0710379d3774a316df24aa090bbcb71ec004caf7166d454b06d58fb72c7"


def test_preset_json_matches_the_committed_digest():
    text = "".join(
        scenario_to_json(preset(name, method=method, seed=seed))
        for name in PRESET_NAMES
        for method in METHODS
        for seed in (1, 7)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_JSON_SHA256


def json_values():
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)

    def nested(inner):
        return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)

    return st.recursive(scalars, nested, max_leaves=6)


def leaves(tree, path=()):
    """Key paths of every value in ``tree`` that is not a non-empty list or mapping."""
    if isinstance(tree, dict) and tree:
        for key, value in tree.items():
            yield from leaves(value, path + (key,))
    elif isinstance(tree, list) and tree:
        for k, value in enumerate(tree):
            yield from leaves(value, path + (k,))
    else:
        yield path


#: Upper bounds on the numbers drawn for these keys, so that no example
#: builds a large calibration table or schedule.
SIZE_KEYS = {"n_paths": 8, "n_epochs": 200}


def not_a_number(value):
    return isinstance(value, bool) or not isinstance(value, (int, float))


#: Each range bound of a setting and the next double past it, in both signs.
BOUND_VALUES = sorted(
    {
        sign * v
        for low, high in (
            (TAU_MIN, TAU_MAX),
            (RATE_MIN, 0.5),
            (0.0, SIGMA_MAX),
            (ATTACK_MIN, MAGNITUDE_MAX),
            (0.0, STEEPNESS_MAX),
        )
        for v in (low, math.nextafter(low, -math.inf), high, math.nextafter(high, math.inf))
        for sign in (1.0, -1.0)
    }
)

#: The columns of a run that hold offsets, in seconds.
OFFSET_COLUMNS = ("true_offsets", "corrections", "measured", "attacks")

#: Epochs a loaded scenario runs for.
RUN_EPOCHS = 200


def assert_runs_and_reads_back(sc):
    """``sc`` runs to finite columns, and its CSV reads back.

    pytest turns warnings into errors, so the run must also raise no
    numpy warning.  Epochs, flags and counts read back equal; an offset
    reads back within the CSV's resolution of 0.0005 ps and the rounding
    of its conversions to picoseconds and back.
    """
    run = run_scenario(sc)
    columns = OFFSET_COLUMNS + (() if run.log_odds is None else ("log_odds", "drift_taus"))
    for key in columns:
        assert np.isfinite(getattr(run, key)).all(), key
    with tempfile.TemporaryDirectory() as tmp:
        back = parse_run_csv(write_run_csv(run, Path(tmp) / "run.csv"))
    assert np.array_equal(back.epochs, run.epochs)
    assert np.array_equal(back.flags, run.flags)
    assert back.counts == run.counts and back.path_counts == run.path_counts
    for key in OFFSET_COLUMNS:
        want = getattr(run, key)
        slack = 0.5e-15 + 4.0 * np.spacing(np.abs(want))
        assert (np.abs(getattr(back, key) - want) <= slack).all(), key


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(PRESET_NAMES), st.sampled_from(METHODS))
def test_a_preset_with_one_value_replaced_loads_back_or_is_rejected(data, name, method):
    """A preset with one value replaced loads back, runs and writes a CSV that reads back.

    Or it is rejected, with a :class:`ScenarioError`.
    """
    tree = preset(name, method=method).to_dict()
    path = data.draw(st.sampled_from(list(leaves(tree))))
    if path[-1] in SIZE_KEYS:
        bound = SIZE_KEYS[path[-1]]
        value = data.draw(
            st.integers(max_value=bound)
            | st.floats(max_value=bound)
            | st.just(math.nan)
            | json_values().filter(not_a_number)
        )
    else:
        value = data.draw(json_values() | st.sampled_from(BOUND_VALUES))
    place = tree
    for key in path[:-1]:
        place = place[key]
    place[path[-1]] = value
    try:
        sc = scenario_from_dict(tree)
    except ScenarioError:
        return
    text = scenario_to_json(sc)
    assert scenario_from_dict(sc.to_dict()) == sc
    again = scenario_from_json(text)
    assert again == sc and scenario_to_json(again) == text
    assert json.loads(text) == sc.to_dict()
    assert_runs_and_reads_back(replace(sc, n_epochs=min(sc.n_epochs, RUN_EPOCHS)))


@pytest.mark.parametrize("tau", [TAU_MIN, TAU_MAX])
@pytest.mark.parametrize("method", METHODS)
def test_a_run_with_every_setting_at_its_bound_runs_and_reads_back(method, tau):
    # paths 1 and 2 attacked at the largest magnitudes, path 3 at the smallest,
    # every other epoch, and the clock jumping at the largest in between
    attacks = ((0, MAGNITUDE_MAX), (1, -MAGNITUDE_MAX), (2, ATTACK_MIN))
    sc = Scenario(
        name="bounds",
        n_paths=3,
        n_epochs=2500,
        method=method,
        tau=tau,
        sigma_offset=SIGMA_MAX,
        sigma_drift=SIGMA_MAX,
        sigma_link=SIGMA_MAX,
        sigma_meas=SIGMA_MAX,
        attack_rules=tuple(PeriodicAttackRule((p,), 2 * tau, 0.0, m) for p, m in attacks),
        jump_rules=(PeriodicJumpRule(2 * tau, tau, MAGNITUDE_MAX),),
        p_false_alarm=RATE_MIN,
        p_missed=RATE_MIN,
        steepness_log_odds=STEEPNESS_MAX,
    )
    assert_runs_and_reads_back(sc)
