"""Tests for repro.optimizers.base."""

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optimizers.base import CountingObjective, OptimizationResult, Optimizer


def quadratic(x):
    return float(np.sum((np.asarray(x) - 1.0) ** 2))


class TestCountingObjective:
    def test_counts_evaluations(self):
        objective = CountingObjective(quadratic)
        objective([0.0])
        objective([1.0])
        assert objective.num_evaluations == 2

    def test_tracks_best(self):
        objective = CountingObjective(quadratic)
        objective([3.0])
        objective([1.5])
        objective([2.0])
        assert objective.best_value == pytest.approx(0.25)
        np.testing.assert_allclose(objective.best_point, [1.5])

    def test_reset(self):
        objective = CountingObjective(quadratic)
        objective([0.0])
        objective.reset()
        assert objective.num_evaluations == 0
        assert objective.best_value is None

    def test_non_callable_rejected(self):
        with pytest.raises(OptimizationError):
            CountingObjective(42)


class TestOptimizationResult:
    def test_parameters_coerced_to_array(self):
        result = OptimizationResult(
            optimal_parameters=[1.0, 2.0],
            optimal_value=0.5,
            num_function_calls=10,
            num_iterations=3,
            converged=True,
            optimizer_name="test",
        )
        assert isinstance(result.optimal_parameters, np.ndarray)
        assert result.num_parameters == 2


class _GridSearch(Optimizer):
    """Minimal optimizer used to exercise the base-class plumbing."""

    def _minimize(self, objective, initial_point, bounds):
        best_point = initial_point
        best_value = objective(initial_point)
        for delta in np.linspace(-2, 2, 21):
            candidate = initial_point + delta
            value = objective(candidate)
            if value < best_value:
                best_value, best_point = value, candidate
        return OptimizationResult(
            optimal_parameters=best_point,
            optimal_value=best_value,
            num_function_calls=objective.num_evaluations,
            num_iterations=21,
            converged=True,
            optimizer_name=self.name,
        )


class TestOptimizerBase:
    def test_minimize_calls_subclass(self):
        optimizer = _GridSearch("grid")
        result = optimizer.minimize(quadratic, [0.0])
        assert result.optimal_value == pytest.approx(0.0, abs=1e-6)
        assert result.num_function_calls == 22

    def test_maximize_flips_sign(self):
        optimizer = _GridSearch("grid")
        result = optimizer.maximize(lambda x: -quadratic(x), [0.0])
        assert result.optimal_value == pytest.approx(0.0, abs=1e-6)

    def test_invalid_initial_point(self):
        optimizer = _GridSearch("grid")
        with pytest.raises(OptimizationError):
            optimizer.minimize(quadratic, [])
        with pytest.raises(OptimizationError):
            optimizer.minimize(quadratic, [[1.0, 2.0]])

    def test_bounds_validation(self):
        optimizer = _GridSearch("grid")
        with pytest.raises(OptimizationError):
            optimizer.minimize(quadratic, [0.0], bounds=[(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(OptimizationError):
            optimizer.minimize(quadratic, [0.0], bounds=[(1.0, 0.0)])

    def test_invalid_construction(self):
        with pytest.raises(OptimizationError):
            _GridSearch("grid", tolerance=-1.0)
        with pytest.raises(OptimizationError):
            _GridSearch("grid", max_iterations=0)
