"""Tests for the native optimizers (SPSA, finite-difference gradient descent)."""

import numpy as np
import pytest

from repro.optimizers.gradient_descent import FiniteDifferenceGradientDescent
from repro.optimizers.spsa import SPSAOptimizer


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def shifted_quadratic(x):
    x = np.asarray(x)
    return float((x[0] - 0.5) ** 2 + 2.0 * (x[1] + 0.25) ** 2)


class TestSPSA:
    def test_improves_objective(self):
        start = [2.0, -2.0]
        result = SPSAOptimizer(max_iterations=200, seed=1).minimize(sphere, start)
        assert result.optimal_value < sphere(start)
        assert result.optimal_value < 0.5

    def test_deterministic_with_seed(self):
        a = SPSAOptimizer(max_iterations=50, seed=3).minimize(sphere, [1.0, 1.0])
        b = SPSAOptimizer(max_iterations=50, seed=3).minimize(sphere, [1.0, 1.0])
        np.testing.assert_allclose(a.optimal_parameters, b.optimal_parameters)

    def test_two_evaluations_per_iteration_plus_overhead(self):
        result = SPSAOptimizer(max_iterations=30, seed=0).minimize(sphere, [1.0, 1.0])
        # initial eval + 2 per iteration + final eval
        assert result.num_function_calls <= 2 * 30 + 2

    def test_respects_bounds(self):
        result = SPSAOptimizer(max_iterations=50, seed=2).minimize(
            sphere, [2.0], bounds=[(1.0, 3.0)]
        )
        assert 1.0 - 1e-9 <= result.optimal_parameters[0] <= 3.0 + 1e-9


class TestGradientDescent:
    def test_finds_minimum(self):
        result = FiniteDifferenceGradientDescent(
            learning_rate=0.2, max_iterations=200
        ).minimize(shifted_quadratic, [2.0, 2.0])
        np.testing.assert_allclose(result.optimal_parameters, [0.5, -0.25], atol=1e-2)

    def test_call_count_scales_with_dimension(self):
        low_dim = FiniteDifferenceGradientDescent(max_iterations=10).minimize(
            sphere, [1.0, 1.0]
        )
        high_dim = FiniteDifferenceGradientDescent(max_iterations=10).minimize(
            sphere, [1.0] * 8
        )
        assert high_dim.num_function_calls > low_dim.num_function_calls

    def test_respects_bounds(self):
        result = FiniteDifferenceGradientDescent(max_iterations=50).minimize(
            sphere, [2.0], bounds=[(1.0, 3.0)]
        )
        assert result.optimal_parameters[0] >= 1.0 - 1e-9

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            FiniteDifferenceGradientDescent(learning_rate=0.0)
        with pytest.raises(ValueError):
            FiniteDifferenceGradientDescent(finite_difference_step=0.0)
