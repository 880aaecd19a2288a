"""The columnar run engine against the object-per-epoch loop it replaced.

``reference_run`` below is that loop: one ``step_clock`` and N
``observe_path`` calls per epoch, verdict objects from ``classify_paths``,
the steering correction from ``compute_update``, and the CSV written
record by record.  ``run_scenario`` draws its noise a block of epochs at
a time and keeps the run as columns; on every scenario the two must
agree bit for bit.
"""

import io
import math
import re

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
from timefuse import harness
from timefuse._util import centred_axis, slope_on_axis, slopes_on_axis, window_sums
from timefuse.clocksim import ClockState
from timefuse.fusion import LogOddsKernel, fused_log_odds
from timefuse.harness import _BLOCK_EPOCHS


def reference_run(scenario):
    """``(records, sync_errors, log_odds, drift_taus)`` of ``scenario``, objects per path and epoch.

    ``log_odds`` holds each epoch's :func:`fused_log_odds` and
    ``drift_taus`` each epoch's ``freq.drift * tau`` for the DS methods;
    both are ``None`` for the others.
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
    drift_taus = [] if calibs is not None else None
    for epoch in range(scenario.n_epochs):
        state = step_clock(state, correction, noise, rngs.clock, jump=jumps[epoch])
        observations = tuple(
            observe_path(state.offset, i, epoch, noise, schedule, rngs.path(i)) for i in range(n)
        )
        offsets = [o.measured_offset for o in observations]
        if calibs is not None:
            freq = estimate_frequency(z_history, tau, scenario.window)
            log_odds.append(fused_log_odds(offsets, calibs, freq.drift, tau, method))
            drift_taus.append(freq.drift * tau)
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
    return records, sync_errors, log_odds, drift_taus


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


def assert_engines_agree(scenario, reference=None):
    """``run_scenario`` against ``reference``, by default ``reference_run(scenario)``."""
    records, sync_errors, log_odds, drift_taus = reference or reference_run(scenario)
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
        assert result.drift_taus is None
    else:
        assert same_bits(result.log_odds, log_odds)
        assert same_bits(result.drift_taus, drift_taus)
        kernel = LogOddsKernel(scenario.calibrations(), scenario.method)
        assert same_bits(kernel(result.measured, result.drift_taus), result.log_odds)
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


def block_edge_scenario(n_epochs, method):
    """A 3-path run with an attack across each block edge and a jump pushed over it."""
    b = _BLOCK_EPOCHS
    return Scenario(
        name="edges",
        n_paths=3,
        n_epochs=n_epochs,
        method=method,
        seed=5,
        quarantine=2,
        attack_rules=(
            # path 2 from two epochs before each edge up to the edge itself
            PeriodicAttackRule((1,), float(b), float(b - 2), 10e-9, duration_epochs=3),
            # path 1, the one Single watches, every 50 s: gaps in its windows
            PeriodicAttackRule((0,), 50.0, 10.0, 10e-9),
        ),
        # due on the last epoch of a block, where path 2 is attacked, so each
        # jump lands one epoch into the next block
        jump_rules=(PeriodicJumpRule(float(b), float(b - 1), 1e-9),),
    )


@pytest.mark.parametrize("method", ["DS2", "DS0", "FTA", "Single"])
@pytest.mark.parametrize(
    "n_epochs",
    [1, _BLOCK_EPOCHS - 1, _BLOCK_EPOCHS, _BLOCK_EPOCHS + 1, 2 * _BLOCK_EPOCHS + 7],
)
def test_runs_ending_at_and_around_block_edges_match_the_reference(n_epochs, method):
    scenario = block_edge_scenario(n_epochs, method)
    schedule = scenario.schedule()
    if n_epochs > _BLOCK_EPOCHS:
        assert schedule.attacks[_BLOCK_EPOCHS - 2 : _BLOCK_EPOCHS + 1, 1].all()
    if n_epochs > _BLOCK_EPOCHS + 1:
        assert schedule.jump_epochs == {_BLOCK_EPOCHS + 1} | {2 * _BLOCK_EPOCHS + 1} & set(
            range(n_epochs)
        )
    assert_engines_agree(scenario)


@pytest.mark.parametrize("method", ["DS2", "DS0", "FTA", "Single"])
@pytest.mark.parametrize("block", [1, 7, 64])
def test_small_blocks_hand_each_method_state_over_at_every_edge(block, method, monkeypatch):
    # each block edge hands the method's state, and the true drift, to the next block
    monkeypatch.setattr(harness, "_BLOCK_EPOCHS", block)
    scenario = Scenario(
        name="small_blocks",
        n_paths=3,
        n_epochs=300,
        method=method,
        seed=6,
        quarantine=2,
        attack_rules=(
            PeriodicAttackRule((1,), 40.0, 5.0, 10e-9, duration_epochs=3),
            # path 1, the one Single watches: gaps in its windows
            PeriodicAttackRule((0,), 50.0, 20.0, 10e-9),
        ),
        jump_rules=(PeriodicJumpRule(30.0, 29.0, 1e-9),),
    )
    assert_engines_agree(scenario)


@given(st.integers(0, 2**40 - 1), st.integers(2, 64))
def test_a_window_of_consecutive_epochs_has_the_fixed_axis(e0, k):
    # the Single detector fits a gap-free window at tau 1.0 on the axis of 0 .. k - 1
    dts, sxx = centred_axis([float(e) for e in range(e0, e0 + k)])
    fixed_dts, fixed_sxx = centred_axis([float(j) for j in range(k)])
    assert same_bits(dts, fixed_dts)
    assert same_bits(sxx, fixed_sxx)


def series(kind, rng, k):
    """``k`` values of one kind, with exact zeros of both signs among them."""
    if kind == "mixed":  # magnitudes from 1e-15 to 1e2 side by side
        xs = rng.normal(size=k) * 10.0 ** rng.integers(-15, 3, size=k)
    elif kind == "ramp":  # a steered clock's accumulated offsets
        xs = np.cumsum(rng.normal(size=k) * 1e-11) + np.arange(k) * 1e-9
    elif kind == "ties":  # sums on and next to binary ties
        xs = np.round(rng.normal(size=k) * 64) / 64 * 2.0 ** int(rng.integers(-60, 60))
    elif kind == "halfway":  # sums halfway between doubles near 2**53
        xs = np.round(rng.normal(size=k) * 2.0**52) + rng.choice([0.5, 0.25, 0.0], size=k)
    elif kind == "huge":  # windows whose partial sums may leave the float range
        xs = rng.choice([-1.0, 1.0], size=k, p=[0.3, 0.7]) * rng.uniform(1e307, 1.7e308, size=k)
    elif kind == "tiny":  # units far below the normal range, and subnormal sums
        xs = np.round(rng.normal(size=k) * 2.0**60) * 2.0 ** -int(rng.integers(1020, 1080))
    elif kind == "special":
        xs = rng.normal(size=k)
        xs[rng.random(k) < 0.05] = rng.choice([math.inf, -math.inf, math.nan])
    else:
        xs = np.zeros(k)
    signed_zeros = rng.random(k) < 0.2
    xs[signed_zeros] = np.where(rng.random(k) < 0.5, 0.0, -0.0)[signed_zeros]
    return xs


def fsum_or_error(values):
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 64),
    st.sampled_from(["mixed", "ramp", "ties", "halfway", "huge", "tiny", "special", "zeros"]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_window_sums_are_fsum(w, kind, seed, data):
    xs = series(kind, np.random.default_rng(seed), data.draw(st.integers(w, w + 60), label="k"))
    starts = np.arange(len(xs) - w + 1)
    expected = [fsum_or_error(xs[s : s + w].tolist()) for s in starts.tolist()]
    errors = [e for e in expected if isinstance(e, Exception)]
    if errors:  # the first window that fsum refuses, in order
        with pytest.raises(type(errors[0]), match=re.escape(str(errors[0]))):
            window_sums(xs, w, starts)
    else:
        assert same_bits(window_sums(xs, w, starts), expected)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 64),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.sampled_from(["mixed", "ramp", "ties", "zeros"]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_the_vectorised_window_fit_is_slope_on_axis(w, tau, kind, seed, data):
    # the engine fits a block's calm epochs at once; each must get the loop's slope
    xs = series(kind, np.random.default_rng(seed), data.draw(st.integers(w, w + 40), label="k"))
    starts = data.draw(st.lists(st.integers(0, len(xs) - w), max_size=20), label="starts")
    axis = centred_axis([j * tau for j in range(w)])
    expected = [slope_on_axis(axis, xs[s : s + w].tolist()) for s in starts]
    assert same_bits(slopes_on_axis(axis, xs, np.array(starts, dtype=np.intp)), expected)


def test_single_windows_with_and_without_gaps_cross_row_blocks():
    # path 0, the one Single watches, is attacked every 50 s, and every
    # attacked epoch leaves a gap in the next 30 windows
    scenario = Scenario(
        name="long",
        n_paths=3,
        n_epochs=2 * _BLOCK_EPOCHS + 7,
        method="Single",
        seed=4,
        attack_rules=(PeriodicAttackRule((0,), 50.0, 10.0, 10e-9),),
    )
    assert scenario.tau == 1.0 and scenario.window == 30
    flagged = np.flatnonzero(run_scenario(scenario).flags[:, 0])
    # `before` is the last attack before the first block edge: the windows
    # ending from the edge to before + 30 hold its gap, those ending from
    # before + 31 up to the next attack are gap-free, and those ending before
    # the edge + 29 reach back past it
    before = max(range(10, _BLOCK_EPOCHS, 50))
    assert before + 30 >= _BLOCK_EPOCHS and before + 31 < _BLOCK_EPOCHS + 29
    assert before in flagged and before + 50 in flagged
    assert not np.any((flagged > before) & (flagged < before + 50))
    assert_engines_agree(scenario)


def test_single_refits_a_window_of_every_other_epoch_at_tau_one_half():
    # path 0 is attacked on every odd epoch, so a full window of 30 accepted
    # epochs spans 29 s, as a gap-free one does at tau 1.0, on other times
    scenario = Scenario(
        name="sparse",
        n_paths=3,
        n_epochs=300,
        method="Single",
        seed=4,
        tau=0.5,
        attack_rules=(PeriodicAttackRule((0,), 1.0, 0.5, 10e-9),),
    )
    assert run_scenario(scenario).flags[:, 0].tolist() == [e % 2 == 1 for e in range(300)]
    assert_engines_agree(scenario)


def misprediction_scenario(method, quarantine):
    """A 3-path DS run of two blocks and more whose calm epochs are often flagged.

    Its detectors are designed for the default 1 ps/s frequency walk and a
    5 % false-alarm rate; at 20 ps/s the drift estimate lags, so epochs
    with no attack and a clean epoch before them are flagged now and then.
    Path 2 is attacked from three epochs before each block edge to two
    after it.
    """
    b = _BLOCK_EPOCHS
    return Scenario(
        name="mispredicted",
        n_paths=3,
        n_epochs=2 * b + 300,
        method=method,
        seed=1,
        sigma_drift=20e-12,
        p_false_alarm=0.05,
        quarantine=quarantine,
        attack_rules=(
            PeriodicAttackRule((1,), float(b), float(b - 3), 10e-9, duration_epochs=6),
        ),
    )


def flagged_calm_blocks(scenario, records) -> set:
    """Blocks of the run in ``records`` holding a flagged epoch that the engine steers as calm.

    An epoch is calm past the warm-up window when no path is attacked, the
    clock does not jump, and no path was flagged in the epoch before or in
    the ``quarantine`` epochs before.
    """
    jumps = scenario.schedule().jumps
    flagged = [any(v.flagged for v in r.verdicts) for r in records]
    back = max(scenario.quarantine, 1)
    return {
        r.epoch // _BLOCK_EPOCHS
        for r in records[scenario.window :]
        if flagged[r.epoch]
        and not any(o.attack_truth for o in r.observations)
        and jumps[r.epoch] == 0.0
        and not any(flagged[max(r.epoch - back, 0) : r.epoch])
    }


@pytest.mark.parametrize("quarantine", [0, 2])
@pytest.mark.parametrize("method", ["DS2", "DS0"])
def test_blocks_with_flagged_calm_epochs_rerun_on_the_exact_path(method, quarantine):
    scenario = misprediction_scenario(method, quarantine)
    reference = reference_run(scenario)
    assert len(flagged_calm_blocks(scenario, reference[0])) >= 2
    assert_engines_agree(scenario, reference)
