"""Tests for time-deviation statistics and detection bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timefuse import (
    DetectionCounts,
    TdevCurve,
    per_path_counts,
    precision_recall,
    tdev,
    tdev_curve,
)


def tdev_reference(x, n, tau0):
    """Direct-summation time deviation, written independently of the library.

    Averages the squared n-point sums of second differences over every
    admissible start index, with no vectorisation tricks.
    """
    count = len(x) - 3 * n + 1
    total = 0.0
    for j in range(count):
        s = 0.0
        for i in range(j, j + n):
            s += x[i + 2 * n] - 2.0 * x[i + n] + x[i]
        total += s * s
    return math.sqrt(total / (6.0 * n * n * count))


def tdev_exact(x, n):
    """Time deviation in exact integer arithmetic, without numpy.

    Every sample is scaled to an integer on one power-of-two grid (exact,
    via ``float.as_integer_ratio``), so the second differences, their
    running sum and the block sums are exact; only the final mean square
    is rounded to a float.
    """
    ratios = [float(v).as_integer_ratio() for v in x]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    running = [0]
    for i in range(len(ints) - 2 * n):
        running.append(running[-1] + ints[i + 2 * n] - 2 * ints[i + n] + ints[i])
    blocks = [b - a for a, b in zip(running, running[n:])]
    square_sum = sum(b * b for b in blocks)
    return math.sqrt(square_sum / (scale * scale * 6 * n * n * len(blocks)))


def long_series():
    """20,000-point phase series in seconds, long enough for factors up to 5,000."""
    rng = np.random.default_rng(2008)
    size = 20_000
    noise = rng.normal(0.0, 25e-12, size=size)
    return {
        "white noise": noise,
        "noise on a 1 us bias": 1e-6 + noise,
        "random walk": np.cumsum(rng.normal(0.0, 1e-12, size=size)),
        "1 ns step": noise + np.where(np.arange(size) >= size // 2, 1e-9, 0.0),
    }


class TestTdev:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 50])
    def test_matches_direct_summation(self, n):
        rng = np.random.default_rng(123)
        x = rng.normal(0.0, 25e-12, size=1000)
        got = tdev(x, n, 1.0)
        want = tdev_reference(x, n, 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_constant_series_is_exactly_zero(self):
        x = np.full(100, 3.5e-9)
        for n in (1, 2, 5, 10):
            assert tdev(x, n, 1.0) == 0.0

    def test_linear_ramp_is_exactly_zero(self):
        # slope and intercept are powers of two so every sample is exact
        # and the second differences cancel bit-for-bit
        x = 2.0 ** -42 * np.arange(100) + 2.0 ** -37
        for n in (1, 2, 5, 10):
            assert tdev(x, n, 1.0) == 0.0

    @pytest.mark.parametrize("name", sorted(long_series()))
    def test_ladder_matches_exact_arithmetic(self, name):
        x = long_series()[name]
        curve = tdev_curve(x, 1.0)
        assert curve.taus[-1] == 5000.0
        for tau, got in zip(curve.taus, curve.deviations):
            assert got == pytest.approx(tdev_exact(x.tolist(), int(tau)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "x",
        [np.full(20_000, 3.5e-9), 2.0**-42 * np.arange(20_000) + 2.0**-37],
        ids=["constant", "power-of-two ramp"],
    )
    def test_exact_zeros_hold_up_to_the_largest_factor(self, x):
        curve = tdev_curve(x, 1.0)
        assert curve.taus[-1] == 5000.0
        for tau, got in zip(curve.taus, curve.deviations):
            assert tdev_exact(x.tolist(), int(tau)) == 0.0
            assert got == 0.0

    def test_white_noise_level(self):
        # for white phase noise the deviation at the base interval equals
        # the noise standard deviation
        x = np.random.default_rng(5).normal(0.0, 25e-12, size=20000)
        assert tdev(x, 1, 1.0) == pytest.approx(25e-12, rel=0.05)

    def test_minimum_length_boundary(self):
        assert tdev(np.arange(7.0), 2, 1.0) == 0.0
        with pytest.raises(ValueError, match="7 points"):
            tdev(np.arange(6.0), 2, 1.0)

    def test_validation(self):
        x = np.zeros(10)
        with pytest.raises(ValueError, match="averaging factor"):
            tdev(x, 0, 1.0)
        with pytest.raises(ValueError, match="tau0"):
            tdev(x, 1, 0.0)
        with pytest.raises(ValueError, match="one-dimensional"):
            tdev(np.zeros((4, 4)), 1, 1.0)

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=50),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_shift_invariance(self, xs, shift):
        base = tdev(np.asarray(xs), 1, 1.0)
        moved = tdev(np.asarray(xs) + shift, 1, 1.0)
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)

    @settings(max_examples=50)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=50))
    def test_scale_equivariance(self, xs):
        x = np.asarray(xs)
        assert tdev(3.0 * x, 1, 1.0) == pytest.approx(3.0 * tdev(x, 1, 1.0), rel=1e-9, abs=0.0)


class TestTdevCurve:
    def test_default_ladder_follows_1_2_5_decades(self):
        x = np.random.default_rng(0).normal(size=1000)
        curve = tdev_curve(x, 1.0)
        assert list(curve.taus) == [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0]

    def test_ladder_respects_series_length_and_tau0(self):
        x = np.random.default_rng(0).normal(size=100)
        curve = tdev_curve(x, 2.0)
        assert list(curve.taus) == [2.0, 4.0, 10.0, 20.0, 40.0]

    def test_explicit_factors(self):
        x = np.random.default_rng(0).normal(size=100)
        curve = tdev_curve(x, 1.0, factors=(1, 3, 7))
        assert list(curve.taus) == [1.0, 3.0, 7.0]
        for factor, value in zip((1, 3, 7), curve.deviations):
            assert value == tdev(x, factor, 1.0)

    def test_lookup_by_tau(self):
        x = np.random.default_rng(0).normal(size=100)
        curve = tdev_curve(x, 1.0)
        assert curve.at(10.0) == tdev(x, 10, 1.0)
        with pytest.raises(KeyError):
            curve.at(3.0)

    def test_factor_validation(self):
        x = np.zeros(100)
        with pytest.raises(ValueError, match="non-empty"):
            tdev_curve(x, 1.0, factors=())
        with pytest.raises(ValueError, match="strictly increasing"):
            tdev_curve(x, 1.0, factors=(2, 1))
        with pytest.raises(ValueError, match="needs"):
            tdev_curve(x, 1.0, factors=(40,))

    def test_curve_invariants(self):
        with pytest.raises(ValueError):
            TdevCurve(taus=(2.0, 1.0), deviations=(0.0, 0.0))


class TestDetectionCounts:
    def test_rates(self):
        c = DetectionCounts(true_positives=8, false_positives=2, false_negatives=4, true_negatives=6)
        assert c.precision == pytest.approx(0.8)
        assert c.recall == pytest.approx(8 / 12)

    def test_empty_denominators_count_as_perfect(self):
        quiet = DetectionCounts(0, 0, 0, 100)
        assert quiet.precision == 1.0
        assert quiet.recall == 1.0

    def test_addition(self):
        a = DetectionCounts(1, 0, 2, 3)
        b = DetectionCounts(0, 1, 0, 1)
        assert a + b == DetectionCounts(1, 1, 2, 4)


class TestPerPathCounts:
    FLAGS = [[True, False], [False, False], [True, True]]
    ATTACKS = [[1e-9, 0.0], [0.0, 0.0], [2e-9, 1e-9]]

    def test_counts_by_path(self):
        first, second = per_path_counts(self.FLAGS, self.ATTACKS)
        assert first == DetectionCounts(2, 0, 0, 1)
        assert second == DetectionCounts(1, 0, 0, 2)

    def test_summed_counts(self):
        assert precision_recall(self.FLAGS, self.ATTACKS) == DetectionCounts(3, 0, 0, 3)

    def test_warmup_epochs_can_be_skipped(self):
        assert precision_recall(self.FLAGS, self.ATTACKS, start_epoch=1) == DetectionCounts(
            2, 0, 0, 2
        )

    def test_false_positive_and_miss(self):
        flags = [[True, False]]
        attacks = [[0.0, 5e-9]]
        counts = precision_recall(flags, attacks)
        assert counts == DetectionCounts(0, 1, 1, 0)
        assert counts.precision == 0.0
        assert counts.recall == 0.0

    def test_negative_bias_counts_as_attack(self):
        counts = precision_recall([[True, False]], [[-1e-9, 0.0]])
        assert counts.true_positives == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="same epochs"):
            per_path_counts([[True]], [[0.0], [0.0]])
        with pytest.raises(ValueError, match="ragged"):
            per_path_counts([[True], [False, True]], [[0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="start_epoch"):
            precision_recall(self.FLAGS, self.ATTACKS, start_epoch=10)
