"""Tests for the scalar bandwidth estimator of the seed oracle.

The production :class:`repro.transport.CohortBandwidthEstimator` is held
bit-identical to it by the session equivalence suites.
"""

import numpy as np
import pytest

from repro.errors import TransportError

from tests.reference import BandwidthEstimator


class TestBandwidthEstimator:
    def test_starts_unset(self):
        assert BandwidthEstimator().estimate_bytes_per_s is None

    def test_first_observation_sets_estimate(self, rng):
        estimator = BandwidthEstimator(noise_std_fraction=0.0)
        value = estimator.observe_window(1000.0, 0.1, rng)
        assert value == pytest.approx(10_000.0)

    def test_ewma_smoothing(self, rng):
        estimator = BandwidthEstimator(smoothing=0.5, noise_std_fraction=0.0)
        estimator.observe_window(1000.0, 1.0, rng)
        value = estimator.observe_window(2000.0, 1.0, rng)
        assert value == pytest.approx(1500.0)

    def test_tracks_drops(self, rng):
        estimator = BandwidthEstimator(smoothing=1.0, noise_std_fraction=0.0)
        estimator.observe_window(10_000.0, 1.0, rng)
        after = estimator.observe_window(1000.0, 1.0, rng)
        assert after == pytest.approx(1000.0)

    def test_fraction_interface(self, rng):
        estimator = BandwidthEstimator(smoothing=1.0, noise_std_fraction=0.0)
        value = estimator.observe_fraction(0.8, rng)
        assert value == pytest.approx(0.8)

    def test_fraction_out_of_range_rejected(self, rng):
        with pytest.raises(TransportError):
            BandwidthEstimator().observe_fraction(1.5, rng)

    def test_reset(self, rng):
        estimator = BandwidthEstimator()
        estimator.observe_window(1000.0, 1.0, rng)
        estimator.reset()
        assert estimator.estimate_bytes_per_s is None

    def test_noise_keeps_estimate_positive(self):
        estimator = BandwidthEstimator(noise_std_fraction=1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            value = estimator.observe_window(100.0, 1.0, rng)
            assert value > 0

    def test_bad_parameters_rejected(self, rng):
        with pytest.raises(TransportError):
            BandwidthEstimator(smoothing=0.0)
        with pytest.raises(TransportError):
            BandwidthEstimator().observe_window(100.0, 0.0, rng)
