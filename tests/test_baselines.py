"""Tests for the trimmed-mean ensemble and the single-path gated detector."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from timefuse import NoiseConfig, fta_update, make_single_state, single_update

Z_1E6 = 4.753424308817089

NOISE5 = NoiseConfig(10e-12, 1e-12, (10e-12,) * 5, (25e-12,) * 5, tau=1.0)


class TestFtaUpdate:
    def test_extremes_are_trimmed(self):
        # the outlier 100 is dropped together with the minimum
        assert fta_update([1.0, 2.0, 3.0, 4.0, 100.0]) == pytest.approx(-3.0)

    def test_three_paths_keep_the_median(self):
        assert fta_update([5e-9, 1e-9, 9e-9]) == pytest.approx(-5e-9)

    def test_ties_trim_one_each(self):
        assert fta_update([1.0, 1.0, 1.0, 1.0]) == pytest.approx(-1.0)

    def test_requires_three_paths(self):
        with pytest.raises(ValueError, match="three"):
            fta_update([1.0, 2.0])

    @given(st.lists(st.floats(-1e-6, 1e-6), min_size=3, max_size=8))
    def test_order_invariant(self, xs):
        assert fta_update(list(reversed(xs))) == fta_update(xs)

    @given(st.lists(st.floats(-1e-6, 1e-6), min_size=3, max_size=8))
    def test_update_bounded_by_inner_values(self, xs):
        kept = sorted(xs)[1:-1]
        assert min(kept) <= -fta_update(xs) <= max(kept)

    def test_mean_of_equal_inner_values_does_not_round_past_them(self):
        # the plain mean of these three equal floats rounds one ulp up
        x = 6.76107254608936e-07
        assert -fta_update([0.0, x, x, x, x]) == x


class TestMakeSingleState:
    def test_threshold_from_path_noise(self):
        # watched channel sees two link/measurement draws per residual plus
        # the phase walk: sqrt(2*725 + 100) ps scaled by the 1e-6 quantile
        state = make_single_state(NOISE5, 1e-6)
        expect = math.sqrt(1550.0) * Z_1E6 * 1e-12
        assert state.threshold == pytest.approx(expect, rel=1e-12)
        assert state.window == ()
        assert state.drift == 0.0
        assert state.window_len == 30

    def test_selectable_path(self):
        noise = NoiseConfig(10e-12, 1e-12, (10e-12,) * 3, (25e-12, 30e-12, 35e-12), tau=1.0)
        a = make_single_state(noise, 1e-6, path=0)
        b = make_single_state(noise, 1e-6, path=2)
        assert b.threshold > a.threshold


class TestSingleUpdate:
    def test_accepted_measurement_is_steered_out(self):
        state = make_single_state(NOISE5, 1e-6)
        correction, flagged, new = single_update(30e-12, state, tau=1.0)
        assert correction == -30e-12
        assert not flagged
        assert new.epoch == 1
        assert new.cum_correction == -30e-12
        assert new.window == ((0.0, 30e-12),)

    def test_accumulated_series_feeds_the_drift_fit(self):
        state = make_single_state(NOISE5, 1e-6)
        _, _, state = single_update(30e-12, state, tau=1.0)
        _, flagged, state = single_update(40e-12, state, tau=1.0)
        assert not flagged
        # second tracking point is the offset minus the correction already
        # applied: 40 ps - (-30 ps) = 70 ps, so the fitted slope is 40 ps/s
        assert state.window[-1][1] == pytest.approx(70e-12, rel=1e-12)
        assert state.drift == pytest.approx(40e-12, rel=1e-12)

    def test_steady_drift_is_learned_and_tracked(self):
        gamma = 5e-12
        state = make_single_state(NOISE5, 1e-6)
        for _ in range(10):
            correction, flagged, state = single_update(gamma * 1.0, state, tau=1.0)
            assert not flagged
            assert correction == -gamma
        assert state.drift == pytest.approx(gamma, rel=1e-9)

    def test_outlier_triggers_holdover(self):
        state = make_single_state(NOISE5, 1e-6)
        _, _, state = single_update(30e-12, state, tau=1.0)
        _, _, state = single_update(40e-12, state, tau=1.0)
        before = state
        correction, flagged, after = single_update(1e-9, state, tau=1.0)
        assert flagged
        assert correction == pytest.approx(-before.drift * 1.0, rel=1e-12)
        assert after.window == before.window
        assert after.drift == before.drift
        assert after.epoch == before.epoch + 1
        assert after.cum_correction == pytest.approx(
            before.cum_correction + correction, rel=1e-12
        )

    def test_persistent_step_never_readmitted(self):
        # a permanent 1 ns step keeps every later residual above the gate,
        # so the detector stays in holdover and the window never grows
        state = make_single_state(NOISE5, 1e-6)
        _, _, state = single_update(0.0, state, tau=1.0)
        _, _, state = single_update(0.0, state, tau=1.0)
        frozen = state.window
        for _ in range(5):
            _, flagged, state = single_update(1e-9, state, tau=1.0)
            assert flagged
            assert state.window == frozen

    def test_window_is_bounded(self):
        state = make_single_state(NOISE5, 1e-6, window=4)
        for k in range(10):
            _, _, state = single_update(k * 1e-12, state, tau=1.0)
        assert len(state.window) == 4

    def test_rejects_nonpositive_tau(self):
        state = make_single_state(NOISE5, 1e-6)
        with pytest.raises(ValueError, match="tau"):
            single_update(0.0, state, tau=0.0)
