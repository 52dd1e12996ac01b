"""Tests for the SciPy-backed optimizers used in the paper's Table I."""

import numpy as np
import pytest

from repro.optimizers.scipy_optimizers import (
    CobylaOptimizer,
    LBFGSBOptimizer,
    NelderMeadOptimizer,
    SLSQPOptimizer,
)

ALL_OPTIMIZERS = [LBFGSBOptimizer, NelderMeadOptimizer, SLSQPOptimizer, CobylaOptimizer]


def rosenbrock(x):
    x = np.asarray(x)
    return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


class TestConvergence:
    @pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
    def test_sphere_minimum(self, cls):
        optimizer = cls(tolerance=1e-8, max_iterations=2000)
        result = optimizer.minimize(sphere, [1.0, -1.5, 0.5])
        assert result.optimal_value == pytest.approx(0.0, abs=1e-3)

    def test_lbfgsb_rosenbrock(self):
        result = LBFGSBOptimizer(tolerance=1e-10).minimize(rosenbrock, [-1.0, 1.0])
        np.testing.assert_allclose(result.optimal_parameters, [1.0, 1.0], atol=1e-3)

    @pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
    def test_function_calls_counted(self, cls):
        optimizer = cls()
        result = optimizer.minimize(sphere, [2.0, 2.0])
        assert result.num_function_calls > 0
        assert result.optimizer_name == cls.method

    @pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
    def test_maximize(self, cls):
        result = cls().maximize(lambda x: -sphere(x), [1.0, 1.0])
        assert result.optimal_value == pytest.approx(0.0, abs=1e-3)


class TestBoundsAndOptions:
    def test_lbfgsb_respects_bounds(self):
        result = LBFGSBOptimizer().minimize(
            sphere, [2.0, 2.0], bounds=[(1.0, 3.0), (1.0, 3.0)]
        )
        assert np.all(result.optimal_parameters >= 1.0 - 1e-9)

    def test_cobyla_ignores_bounds_without_error(self):
        result = CobylaOptimizer().minimize(sphere, [2.0], bounds=[(1.0, 3.0)])
        assert result.num_function_calls > 0

    def test_max_iterations_limits_calls(self):
        limited = NelderMeadOptimizer(max_iterations=5).minimize(
            rosenbrock, [5.0, -3.0]
        )
        unlimited = NelderMeadOptimizer(max_iterations=2000).minimize(
            rosenbrock, [5.0, -3.0]
        )
        assert limited.num_function_calls < unlimited.num_function_calls

    def test_reported_value_is_best_seen(self):
        optimizer = CobylaOptimizer(tolerance=1e-4)
        result = optimizer.minimize(sphere, [3.0, 3.0])
        # The reported optimum can never be worse than any evaluated point.
        assert result.optimal_value <= sphere([3.0, 3.0])

    def test_base_class_requires_method(self):
        from repro.exceptions import OptimizationError
        from repro.optimizers.scipy_optimizers import ScipyOptimizer

        with pytest.raises(OptimizationError):
            ScipyOptimizer()
