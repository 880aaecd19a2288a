"""Tests for per-path residual evidence, verdicts, steering, and drift tracking."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from timefuse import (
    VACUOUS,
    VARIANTS,
    EpochRecord,
    FrequencyEstimate,
    MassPair,
    NoiseConfig,
    Verdict,
    bpa_from_residual,
    build_calibration_set,
    classify_paths,
    combine_all,
    compute_update,
    estimate_frequency,
    residual_sigmas,
    residuals_for_path,
)
from timefuse.fusion import _BLOCK_CELLS, LogOddsKernel, _logit, fused_log_odds

Z_1E6 = 4.753424308817089  # Gaussian quantile at 1 - 1e-6

NOISE5 = NoiseConfig(10e-12, 1e-12, (10e-12,) * 5, (25e-12,) * 5, tau=1.0)
NOISE3 = NoiseConfig(10e-12, 1e-12, (10e-12,) * 3, (25e-12,) * 3, tau=1.0)


@pytest.fixture(scope="module")
def calib5():
    return build_calibration_set(NOISE5, 1e-6, 1e-6, mass_ceiling=0.74, mass_floor=0.26)


@pytest.fixture(scope="module")
def calib3():
    return build_calibration_set(NOISE3, 1e-6, 1e-6, mass_ceiling=0.74, mass_floor=0.26)


class TestResidualSigmas:
    def test_homogeneous_five_paths(self):
        self_sigmas, cross_sigmas = residual_sigmas(NOISE5)
        # per-path link+measurement power 725 ps^2; prediction channel adds
        # the phase walk and the averaged ensemble term 5*725/25
        expect_self = math.sqrt(725.0 + 100.0 + 5 * 725.0 / 25.0) * 1e-12
        assert self_sigmas == (pytest.approx(expect_self, rel=1e-12),) * 5
        expect_cross = math.sqrt(2 * 725.0) * 1e-12
        assert set(cross_sigmas) == {(i, j) for i in range(5) for j in range(i + 1, 5)}
        for value in cross_sigmas.values():
            assert value == pytest.approx(expect_cross, rel=1e-12)

    def test_homogeneous_three_paths(self):
        self_sigmas, _ = residual_sigmas(NOISE3)
        expect = math.sqrt(825.0 + 3 * 725.0 / 9.0) * 1e-12
        assert self_sigmas[0] == pytest.approx(expect, rel=1e-12)

    def test_heterogeneous_paths(self):
        noise = NoiseConfig(10e-12, 1e-12, (10e-12,) * 3, (25e-12, 30e-12, 35e-12), tau=1.0)
        self_sigmas, cross_sigmas = residual_sigmas(noise)
        ensemble = (725.0 + 1000.0 + 1325.0) / 9.0
        assert self_sigmas[0] == pytest.approx(math.sqrt(825.0 + ensemble) * 1e-12, rel=1e-12)
        assert self_sigmas[1] == pytest.approx(math.sqrt(1100.0 + ensemble) * 1e-12, rel=1e-12)
        assert self_sigmas[2] == pytest.approx(math.sqrt(1425.0 + ensemble) * 1e-12, rel=1e-12)
        assert cross_sigmas[(0, 1)] == pytest.approx(math.sqrt(1725.0) * 1e-12, rel=1e-12)
        assert cross_sigmas[(0, 2)] == pytest.approx(math.sqrt(2050.0) * 1e-12, rel=1e-12)
        assert cross_sigmas[(1, 2)] == pytest.approx(math.sqrt(2325.0) * 1e-12, rel=1e-12)


class TestCalibrationSet:
    def test_midpoints_match_channel_sigmas(self, calib5):
        # midpoint = sigma * quantile(1 - 1e-6) for symmetric rates
        assert calib5.self_cal[0].midpoint * 1e12 == pytest.approx(
            math.sqrt(970.0) * Z_1E6, rel=1e-12
        )
        assert calib5.for_pair(0, 1).midpoint * 1e12 == pytest.approx(
            math.sqrt(1450.0) * Z_1E6, rel=1e-12
        )

    def test_pair_lookup_is_order_free(self, calib5):
        assert calib5.for_pair(3, 1) is calib5.for_pair(1, 3)

    def test_clamps_carried_through(self, calib5):
        assert calib5.self_cal[0].mass_ceiling == 0.74
        assert calib5.self_cal[0].mass_floor == 0.26

    @pytest.mark.parametrize("n", range(2, 21))
    def test_tables_match_the_per_cell_construction(self, n):
        noise = NoiseConfig(
            10e-12,
            1e-12,
            tuple((10.0 + i) * 1e-12 for i in range(n)),
            tuple((25.0 + 3.0 * i) * 1e-12 for i in range(n)),
            tau=1.0,
        )
        calib = build_calibration_set(noise, 1e-6, 1e-6, mass_ceiling=0.74, mass_floor=0.26)
        assert len(set(calib.self_cal)) == n  # distinct per-path sigmas
        channels = [
            [calib.self_cal[i] if i == j else calib.for_pair(i, j) for j in range(n)]
            for i in range(n)
        ]
        for name, value in (
            ("steepness", lambda c: c.steepness),
            ("midpoint", lambda c: c.midpoint),
            ("log_ceiling", lambda c: _logit(c.mass_ceiling)),
            ("log_floor", lambda c: _logit(c.mass_floor)),
        ):
            want = np.array([[value(c) for c in row] for row in channels], dtype=float)
            got = getattr(calib, name)
            assert got.shape == (n, n) and got.dtype == np.float64, name
            assert got.tobytes() == want.tobytes(), name


class TestResidualsForPath:
    def test_prediction_then_cross_channels(self):
        offsets = [5e-9, 2e-9, -1e-9]
        rs = residuals_for_path(1, offsets, drift=1e-12, tau=2.0)
        assert rs[0] == abs(2e-9 - 1e-12 * 2.0)
        assert rs[1] == abs(2e-9 - 5e-9)
        assert rs[2] == abs(2e-9 - (-1e-9))
        assert len(rs) == 3

    def test_path_id_out_of_range(self):
        with pytest.raises(ValueError, match="path_id"):
            residuals_for_path(5, [0.0, 0.0], 0.0, 1.0)


class TestClassifyPaths:
    def test_single_corrupted_path_is_flagged(self, calib5):
        offsets = [0.0, 0.0, 0.0, 10e-9, 0.0]
        verdicts = classify_paths(offsets, calib5, drift=0.0, tau=1.0, variant="DS2")
        assert [v.flagged for v in verdicts] == [False, False, False, True, False]
        assert verdicts[3].fused.attack > 0.9
        for v in verdicts[:3]:
            assert v.fused.attack < 0.5

    def test_common_mode_step_is_not_flagged(self, calib5, calib3):
        # a jump moves every path identically: self channels fire but the
        # cross channels all vouch, so no path crosses the flag line
        for offsets, calib in ([[1e-9] * 5, calib5], [[1e-9] * 3, calib3]):
            verdicts = classify_paths(offsets, calib, 0.0, 1.0, "DS2")
            assert not any(v.flagged for v in verdicts)

    def test_three_path_common_mode_lands_on_floor(self, calib3):
        # one ceiling vote against two floor votes nets exactly one floor
        verdicts = classify_paths([1e-9] * 3, calib3, 0.0, 1.0, "DS2")
        for v in verdicts:
            assert v.fused.attack == pytest.approx(0.26, abs=1e-12)

    def test_verdict_bookkeeping(self, calib5):
        verdicts = classify_paths([0.0] * 5, calib5, 0.0, 1.0, "DS2", epoch=17)
        assert [v.path_id for v in verdicts] == [0, 1, 2, 3, 4]
        assert all(v.epoch == 17 for v in verdicts)

    def test_unknown_variant_rejected(self, calib5):
        with pytest.raises(ValueError):
            classify_paths([0.0] * 5, calib5, 0.0, 1.0, variant="majority")

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(min_value=-5e-8, max_value=5e-8), min_size=5, max_size=5),
        st.permutations(list(range(5))),
    )
    def test_relabelling_paths_permutes_verdicts(self, offsets, perm):
        calib = build_calibration_set(NOISE5, 1e-6, 1e-6, mass_ceiling=0.74, mass_floor=0.26)
        base = classify_paths(offsets, calib, 0.0, 1.0, "DS2")
        shuffled = classify_paths([offsets[p] for p in perm], calib, 0.0, 1.0, "DS2")
        for new_id, old_id in enumerate(perm):
            assert shuffled[new_id].flagged == base[old_id].flagged
            assert shuffled[new_id].fused.attack == pytest.approx(
                base[old_id].fused.attack, abs=1e-9
            )


def scalar_channel_masses(offsets, calibrations, drift, tau, variant):
    """Reference per-cell evidence: one mass per channel, self first, then partners."""
    n = len(offsets)
    masses = []
    for i in range(n):
        residuals = residuals_for_path(i, offsets, drift, tau)
        partners = [j for j in range(n) if j != i]
        row = [bpa_from_residual(residuals[0], calibrations.self_cal[i], variant)]
        row += [
            bpa_from_residual(r, calibrations.for_pair(i, j), variant)
            for r, j in zip(residuals[1:], partners)
        ]
        masses.append(row)
    return masses


#: Mass clamps (ceiling, floor); 1.0 and 0.0 leave that side unclipped.
CLAMPS = [(0.74, 0.26), (0.9, 0.1), (1.0, 0.26), (0.74, 0.0), (1.0, 0.0)]


@st.composite
def detector_inputs(draw):
    n = draw(st.integers(2, 12))
    sigmas = st.lists(st.floats(5e-12, 60e-12), min_size=n, max_size=n)
    noise = NoiseConfig(10e-12, 1e-12, tuple(draw(sigmas)), tuple(draw(sigmas)), tau=1.0)
    rate = draw(st.sampled_from([1e-6, 1e-3, 0.05]))
    ceiling, floor = draw(st.sampled_from(CLAMPS))
    calib = build_calibration_set(noise, rate, rate, mass_ceiling=ceiling, mass_floor=floor)
    offsets = draw(st.lists(st.floats(-3e-10, 3e-10), min_size=n, max_size=n))
    drift = draw(st.floats(-1e-10, 1e-10))
    return offsets, calib, drift, draw(st.sampled_from(VARIANTS))


class TestKernelMatchesScalarReference:
    """The log-odds kernel against Dempster's rule folded over per-cell masses."""

    @settings(max_examples=300)
    @given(detector_inputs())
    def test_flags_and_fused_mass(self, inputs):
        offsets, calib, drift, variant = inputs
        masses = scalar_channel_masses(offsets, calib, drift, 1.0, variant)
        # Saturated cells make the product rule undefined or degenerate, and
        # near saturation its ``1 - m`` keeps only ~1e-16 / (1 - m) relative
        # precision; a margin of 1e-6 bounds the reference's own error on a
        # fused mass by 12 * 1.1e-10 / 4, below the 1e-9 tolerance.  A fused
        # mass at one half is a rounding coin toss.
        assume(all(1e-6 < m.attack < 1.0 - 1e-6 for row in masses for m in row))
        fused = [combine_all(row) for row in masses]
        assume(all(abs(f.attack - 0.5) > 1e-9 for f in fused))
        verdicts = classify_paths(offsets, calib, drift, 1.0, variant)
        assert [v.flagged for v in verdicts] == [f.attack > 0.5 for f in fused]
        for v, f in zip(verdicts, fused):
            assert v.fused.attack == pytest.approx(f.attack, abs=1e-9)


class TestKernelRowsStandAlone:
    """A row's log-odds do not depend on the batch it is computed in.

    The engine runs the kernel one block of epochs at a time, and steers
    an exact epoch by :meth:`LogOddsKernel.epoch_sums`; both must give
    the row that a call on the whole run gives.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 33),
        st.sampled_from(VARIANTS),
        st.sampled_from(CLAMPS),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_any_slice_and_each_epoch_give_the_same_rows(self, n, variant, clamps, seed, data):
        rng = np.random.default_rng(seed)
        link, meas = rng.uniform(5e-12, 60e-12, (2, n)).tolist()
        noise = NoiseConfig(10e-12, 1e-12, tuple(link), tuple(meas), tau=1.0)
        ceiling, floor = clamps
        calib = build_calibration_set(noise, 0.05, 0.05, mass_ceiling=ceiling, mass_floor=floor)
        kernel = LogOddsKernel(calib, variant)
        # a few rows, or one to two chunks of a batch call and a few rows more
        step = max(1, _BLOCK_CELLS // (n * n))
        b = data.draw(st.integers(1, 5) | st.integers(step, 2 * step + 3), label="rows")
        # rows of quiet, borderline and loud residuals, with exact zeros of both signs
        x = rng.normal(size=(b, n)) * 10.0 ** rng.integers(-12, -8, size=(b, 1))
        x[rng.random((b, n)) < 0.1] = 0.0
        x[rng.random((b, n)) < 0.1] = -0.0
        drift_tau = rng.normal(size=b) * 1e-10
        sums = kernel(x, drift_tau)
        lo = data.draw(st.integers(0, b - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, b), label="hi")
        assert kernel(x[lo:hi], drift_tau[lo:hi]).tobytes() == sums[lo:hi].tobytes()
        with np.errstate(invalid="ignore", over="ignore"):
            for row in range(b):
                epoch = np.array(kernel.epoch_sums(x[row].tolist(), drift_tau[row].item()))
                assert epoch.tobytes() == sums[row].tobytes()

    def test_unknown_variant_rejected(self, calib3):
        with pytest.raises(ValueError, match="variant"):
            LogOddsKernel(calib3, "majority")

    def test_an_infinite_cross_residual_reaches_the_kernel(self, calib3):
        kernel = LogOddsKernel(calib3, "DS0")
        # the self residuals are finite; x[0] - x[1] is not
        x = [sys.float_info.max, -sys.float_info.max, 0.0]
        # neither the one-epoch nor the batch kernel warns before it raises
        with pytest.raises(ValueError, match="residuals must be finite"):
            fused_log_odds(x, calib3, 1.0, 1.0, "DS0")
        with pytest.raises(ValueError, match="residuals must be finite"):
            kernel(np.array([x]), np.array([1.0]))



class TestComputeUpdate:
    def test_negated_mean_of_clean_paths(self):
        verdicts = [Verdict(i, 0, VACUOUS, False) for i in range(3)]
        u = compute_update([3e-9, 6e-9, 9e-9], verdicts, drift=0.0, tau=1.0)
        assert u == pytest.approx(-6e-9, rel=1e-15)

    def test_flagged_paths_are_excluded(self):
        verdicts = [
            Verdict(0, 0, VACUOUS, False),
            Verdict(1, 0, MassPair(0.9, 0.1), True),
            Verdict(2, 0, VACUOUS, False),
        ]
        u = compute_update([2e-9, 50e-9, 4e-9], verdicts, 0.0, 1.0)
        assert u == pytest.approx(-3e-9, rel=1e-15)

    def test_quarantined_paths_are_excluded(self):
        verdicts = [Verdict(i, 0, VACUOUS, False) for i in range(3)]
        u = compute_update([9e-9, 1e-9, 3e-9], verdicts, 0.0, 1.0, quarantined=(0,))
        assert u == pytest.approx(-2e-9, rel=1e-15)

    def test_all_excluded_falls_back_to_holdover(self):
        verdicts = [Verdict(i, 0, MassPair(0.9, 0.1), True) for i in range(2)]
        assert compute_update([1e-9, 1e-9], verdicts, drift=2e-12, tau=3.0) == -6e-12

    def test_requires_one_verdict_per_offset(self):
        with pytest.raises(ValueError, match="verdict per offset"):
            compute_update([1e-9, 2e-9], [Verdict(0, 0, VACUOUS, False)], 0.0, 1.0)


class TestEstimateFrequency:
    def test_exact_ramp(self):
        history = [k * 3e-12 for k in range(40)]
        est = estimate_frequency(history, tau=1.0, window=30)
        assert est.drift == pytest.approx(3e-12, rel=1e-12)
        assert est.window == 30

    def test_only_the_trailing_window_matters(self):
        history = [1e-6, -1e-6, 5e-7] + [k * 2e-12 for k in range(30)]
        est = estimate_frequency(history, tau=1.0, window=30)
        assert est.drift == pytest.approx(2e-12, rel=1e-12)

    def test_tau_scales_the_slope(self):
        history = [k * 8e-12 for k in range(30)]
        est = estimate_frequency(history, tau=4.0, window=30)
        assert est.drift == pytest.approx(2e-12, rel=1e-12)

    def test_short_history_reports_zero(self):
        assert estimate_frequency([], 1.0) == FrequencyEstimate(0.0, 0)
        assert estimate_frequency([5e-9], 1.0) == FrequencyEstimate(0.0, 0)

    def test_partial_window_uses_what_exists(self):
        history = [k * 1e-12 for k in range(5)]
        est = estimate_frequency(history, tau=1.0, window=30)
        assert est.drift == pytest.approx(1e-12, rel=1e-12)
        assert est.window == 5

    def test_white_noise_slope_stays_small(self):
        # white noise at the measurement level: the fitted slope should sit
        # well inside three standard errors of zero
        rng = np.random.default_rng(1)
        history = rng.normal(0.0, 25e-12, size=30).tolist()
        est = estimate_frequency(history, tau=1.0, window=30)
        bound = 3 * 25e-12 * math.sqrt(12.0 / (30 * (30 ** 2 - 1)))
        assert abs(est.drift) < bound

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            estimate_frequency([1.0, 2.0], 1.0, window=1)
        with pytest.raises(ValueError, match="tau"):
            estimate_frequency([1.0, 2.0], 0.0)


class TestEpochRecord:
    def test_requires_matching_observation_and_verdict_counts(self):
        with pytest.raises(ValueError):
            EpochRecord(
                epoch=0,
                true_offset=0.0,
                observations=(1e-9, 2e-9),
                verdicts=(Verdict(0, 0, VACUOUS, False),),
                correction=0.0,
                method="DS2",
            )
