"""Tests for repro.ml.svr."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.ml.svr import KernelSVR


@pytest.fixture
def sine_data(rng):
    features = np.sort(rng.uniform(-2, 2, size=50)).reshape(-1, 1)
    targets = np.sin(2.0 * features[:, 0])
    return features, targets


class TestKernelSVR:
    def test_fits_smooth_function(self, sine_data):
        features, targets = sine_data
        model = KernelSVR(C=50.0, epsilon=0.01, max_iterations=800).fit(features, targets)
        assert model.score(features, targets) > 0.8

    def test_median_heuristic_length_scale(self, sine_data):
        features, targets = sine_data
        model = KernelSVR(length_scale=None).fit(features, targets)
        assert model._fitted_length_scale > 0

    def test_explicit_length_scale_used(self, sine_data):
        features, targets = sine_data
        model = KernelSVR(length_scale=0.7).fit(features, targets)
        assert model._fitted_length_scale == pytest.approx(0.7)

    def test_support_vector_count(self, sine_data):
        features, targets = sine_data
        model = KernelSVR().fit(features, targets)
        assert 0 < model.support_vector_count() <= len(targets)

    def test_constant_targets(self):
        features = np.arange(8, dtype=float).reshape(-1, 1)
        model = KernelSVR().fit(features, np.full(8, 4.0))
        np.testing.assert_allclose(model.predict([[2.5]]), [4.0], atol=0.2)

    def test_predict_before_fit_raises(self):
        with pytest.raises(ModelError):
            KernelSVR().predict([[0.0]])

    def test_support_vectors_before_fit_raise(self):
        with pytest.raises(ModelError):
            KernelSVR().support_vector_count()

    def test_invalid_hyperparameters(self):
        with pytest.raises(ModelError):
            KernelSVR(C=0.0)
        with pytest.raises(ModelError):
            KernelSVR(epsilon=-0.1)
        with pytest.raises(ModelError):
            KernelSVR(length_scale=0.0)

    def test_clone_preserves_settings(self):
        clone = KernelSVR(C=3.0, epsilon=0.2).clone()
        assert clone.C == 3.0
        assert clone.epsilon == 0.2
        assert not clone.is_fitted
