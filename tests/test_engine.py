"""The columnar run engine against the object-per-epoch loop it replaced.

``reference_run`` below is that loop: one ``step_clock`` and N
``observe_path`` calls per epoch, verdict objects from ``classify_paths``,
the steering correction from ``compute_update``, and the CSV written
record by record.  ``run_scenario`` draws its noise up front and keeps the
run as columns; on every scenario the two must agree bit for bit.
"""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from timefuse import (
    METHODS,
    VACUOUS,
    VARIANTS,
    DetectionCounts,
    EpochRecord,
    PeriodicAttackRule,
    PeriodicJumpRule,
    RngStreams,
    Scenario,
    ScenarioError,
    Verdict,
    classify_paths,
    compute_update,
    estimate_frequency,
    fta_update,
    make_single_state,
    observe_path,
    run_csv_text,
    run_scenario,
    single_update,
    step_clock,
    tdev_curve,
)
from timefuse.clocksim import ClockState
from timefuse.fusion import fused_log_odds
from timefuse.harness import _BLOCK_EPOCHS


def reference_run(scenario):
    """``(records, sync_errors, log_odds)`` of ``scenario``, one object per path and epoch.

    ``log_odds`` holds each epoch's :func:`fused_log_odds` for the DS
    methods and is ``None`` for the others.
    """
    noise = scenario.noise()
    schedule = scenario.schedule()
    jumps = schedule.jumps.tolist()
    rngs = RngStreams(scenario.seed, scenario.n_paths)
    n = scenario.n_paths
    tau = scenario.tau
    method = scenario.method
    calibs = scenario.calibrations() if method in VARIANTS else None
    single = (
        make_single_state(noise, scenario.p_false_alarm, scenario.two_sided, scenario.window)
        if method == "Single"
        else None
    )
    state = ClockState(0.0, 0.0)
    correction = 0.0
    cum_correction = 0.0
    z_history = []
    quarantine_left = [0] * n
    records = []
    sync_errors = []
    log_odds = [] if calibs is not None else None
    for epoch in range(scenario.n_epochs):
        state = step_clock(state, correction, noise, rngs.clock, jump=jumps[epoch])
        observations = tuple(
            observe_path(state.offset, i, epoch, noise, schedule, rngs.path(i)) for i in range(n)
        )
        offsets = [o.measured_offset for o in observations]
        if calibs is not None:
            freq = estimate_frequency(z_history, tau, scenario.window)
            log_odds.append(fused_log_odds(offsets, calibs, freq.drift, tau, method))
            verdicts = tuple(classify_paths(offsets, calibs, freq.drift, tau, method, epoch))
            quarantined = [i for i in range(n) if quarantine_left[i] > 0]
            correction = compute_update(offsets, verdicts, freq.drift, tau, quarantined)
            for i, v in enumerate(verdicts):
                if v.flagged:
                    quarantine_left[i] = scenario.quarantine
                elif quarantine_left[i]:
                    quarantine_left[i] -= 1
        elif method == "FTA":
            correction = fta_update(offsets)
            verdicts = tuple(Verdict(i, epoch, VACUOUS, False) for i in range(n))
        else:
            correction, flagged, single = single_update(offsets[0], single, tau)
            verdicts = (Verdict(0, epoch, VACUOUS, flagged),) + tuple(
                Verdict(i, epoch, VACUOUS, False) for i in range(1, n)
            )
        z_history.append(-correction - cum_correction)
        cum_correction += correction
        sync_errors.append(state.offset + correction)
        records.append(
            EpochRecord(epoch, state.offset, observations, verdicts, correction, method)
        )
    return records, sync_errors, log_odds


def reference_counts(records, start_epoch):
    """Per-path confusion counts, tallied cell by cell."""
    n = len(records[0].verdicts)
    tallies = [[0, 0, 0, 0] for _ in range(n)]  # tp, fp, fn, tn
    for r in records[start_epoch:]:
        for i, (o, v) in enumerate(zip(r.observations, r.verdicts)):
            attacked = o.attack_truth != 0.0
            tallies[i][(0 if attacked else 1) if v.flagged else (2 if attacked else 3)] += 1
    return tuple(DetectionCounts(*t) for t in tallies)


def reference_csv(scenario, records):
    """The CSV written one record and one f-string cell at a time."""
    n = scenario.n_paths
    out = io.StringIO()
    for key, value in (
        ("name", scenario.name),
        ("method", scenario.method),
        ("seed", scenario.seed),
        ("tau_s", repr(scenario.tau)),
        ("window_epochs", scenario.window),
        ("n_paths", n),
    ):
        out.write(f"# {key}={value}\n")
    header = (
        ["epoch", "true_theta_ps"]
        + [f"theta_m_{i + 1}_ps" for i in range(n)]
        + [f"flag_{i + 1}" for i in range(n)]
        + ["u_theta_ps"]
        + [f"attack_{i + 1}_ps" for i in range(n)]
    )
    out.write(",".join(header) + "\n")
    for r in records:
        cells = [str(r.epoch), f"{r.true_offset * 1e12:.3f}"]
        cells += [f"{o.measured_offset * 1e12:.3f}" for o in r.observations]
        cells += ["1" if v.flagged else "0" for v in r.verdicts]
        cells.append(f"{r.correction * 1e12:.3f}")
        cells += [f"{o.attack_truth * 1e12:.3f}" for o in r.observations]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def same_bits(a, b) -> bool:
    """Equal as IEEE doubles, so 0.0 and -0.0 differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_engines_agree(scenario):
    try:
        records, sync_errors, log_odds = reference_run(scenario)
    except ValueError as exc:  # a scenario both engines must refuse alike
        with pytest.raises(type(exc)) as refused:
            run_scenario(scenario)
        assert str(refused.value) == str(exc)
        return
    result = run_scenario(scenario)
    assert list(result.records) == records
    assert result.flags.tolist() == [[v.flagged for v in r.verdicts] for r in records]
    assert same_bits(result.true_offsets, [r.true_offset for r in records])
    assert same_bits(result.corrections, [r.correction for r in records])
    measured = [[o.measured_offset for o in r.observations] for r in records]
    assert same_bits(result.measured, measured)
    assert same_bits(result.sync_errors, sync_errors)
    if log_odds is None:
        assert result.log_odds is None
    else:
        assert same_bits(result.log_odds, log_odds)
    warm = scenario.warmup
    path_counts = reference_counts(records, warm)
    assert result.path_counts == path_counts
    assert result.counts == sum(path_counts, DetectionCounts(0, 0, 0, 0))
    post = sync_errors[warm:]
    assert result.tdev == (tdev_curve(post, scenario.tau) if len(post) >= 4 else None)
    assert run_csv_text(scenario, result.records) == reference_csv(scenario, records)


MAGNITUDES = (10e-9, -2e-9, 1.25e-9, 300e-12, -60e-12)
SIGMAS = (0.0, 5e-12, 10e-12, 25e-12, 60e-12)


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 12))
    tau = draw(st.sampled_from([1.0, 0.5, 2.0]))
    n_epochs = draw(st.integers(1, 120))
    # each attack rule hits its own paths, at most once per period: rules never overlap
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(1, n), max_size=3, unique=True)))
    attacks = []
    for lo, hi in zip([0] + cuts, cuts):
        period = draw(st.integers(1, 40))
        attacks.append(
            PeriodicAttackRule(
                paths=tuple(order[lo:hi]),
                period_s=period * tau,
                phase_s=draw(st.integers(0, 60)) * tau,
                magnitude_s=draw(st.sampled_from(MAGNITUDES)),
                duration_epochs=draw(st.integers(1, min(3, period))),
            )
        )
    jumps = [
        PeriodicJumpRule(
            period_s=draw(st.integers(1, 50)) * tau,
            phase_s=draw(st.integers(0, 60)) * tau,
            magnitude_s=draw(st.sampled_from(MAGNITUDES)),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    ceiling, floor = draw(st.sampled_from([(0.74, 0.26), (0.9, 0.1), (1.0, 0.26), (0.74, 0.0)]))
    try:
        return Scenario(
            name="diff",
            n_paths=n,
            n_epochs=n_epochs,
            method=draw(st.sampled_from([m for m in METHODS if n >= 3 or m != "FTA"])),
            seed=draw(st.integers(0, 2**32)),
            tau=tau,
            sigma_offset=draw(st.sampled_from([0.0, 1e-12, 10e-12])),
            sigma_drift=draw(st.sampled_from([0.0, 1e-12])),
            sigma_link=tuple(draw(st.lists(st.sampled_from(SIGMAS), min_size=n, max_size=n))),
            sigma_meas=tuple(draw(st.lists(st.sampled_from(SIGMAS), min_size=n, max_size=n))),
            attack_rules=tuple(attacks),
            jump_rules=tuple(jumps),
            p_false_alarm=draw(st.sampled_from([1e-6, 1e-3, 0.05])),
            mass_ceiling=ceiling,
            mass_floor=floor,
            two_sided=draw(st.booleans()),
            window=draw(st.integers(2, 40)),
            quarantine=draw(st.integers(0, 3)),
        )
    except ScenarioError:  # two jump rules land on one epoch, or a detector lacks noise
        reject()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_engine_matches_the_per_epoch_reference(scenario):
    assert_engines_agree(scenario)


@pytest.mark.parametrize("method", ["DS2", "FTA", "Single"])
def test_long_run_crosses_row_blocks(method):
    scenario = Scenario(
        name="long",
        n_paths=3,
        n_epochs=2 * _BLOCK_EPOCHS + 7,
        method=method,
        seed=4,
        quarantine=2,
        attack_rules=(PeriodicAttackRule((1,), 50.0, 10.0, 10e-9),),
        jump_rules=(PeriodicJumpRule(30.0, 30.0, 1e-9),),
    )
    assert_engines_agree(scenario)
