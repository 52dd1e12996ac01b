"""Finite-difference gradient descent with backtracking line search.

A deliberately simple reference optimizer: it makes the relationship between
parameter dimensionality and function-call count fully transparent (each
gradient estimate costs ``2 * num_parameters`` evaluations), which is the
mechanism behind the paper's observation that higher-depth QAOA instances
need more loop iterations.
"""

from __future__ import annotations

import numpy as np

from repro.optimizers.base import Bounds, CountingObjective, OptimizationResult, Optimizer


class FiniteDifferenceGradientDescent(Optimizer):
    """Steepest descent using central finite differences."""

    def __init__(
        self,
        *,
        learning_rate: float = 0.1,
        finite_difference_step: float = 1e-4,
        tolerance: float = 1e-6,
        max_iterations: int = 500,
    ):
        super().__init__("GradientDescent", tolerance=tolerance, max_iterations=max_iterations)
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if finite_difference_step <= 0:
            raise ValueError(
                f"finite_difference_step must be positive, got {finite_difference_step}"
            )
        self._learning_rate = float(learning_rate)
        self._step = float(finite_difference_step)

    def _clip(self, point: np.ndarray, bounds: Bounds) -> np.ndarray:
        if bounds is None:
            return point
        lows = np.array([low for low, _ in bounds])
        highs = np.array([high for _, high in bounds])
        return np.clip(point, lows, highs)

    def _gradient(self, objective: CountingObjective, point: np.ndarray) -> np.ndarray:
        gradient = np.zeros_like(point)
        for axis in range(point.size):
            shift = np.zeros_like(point)
            shift[axis] = self._step
            gradient[axis] = (objective(point + shift) - objective(point - shift)) / (
                2.0 * self._step
            )
        return gradient

    def _minimize(
        self,
        objective: CountingObjective,
        initial_point: np.ndarray,
        bounds: Bounds,
    ) -> OptimizationResult:
        point = self._clip(initial_point.copy(), bounds)
        value = objective(point)
        converged = False
        iterations = 0

        for iterations in range(1, self._max_iterations + 1):
            gradient = self._gradient(objective, point)
            gradient_norm = float(np.linalg.norm(gradient))
            if gradient_norm <= self._tolerance:
                converged = True
                break

            # Backtracking line search on the learning rate.
            step_size = self._learning_rate
            improved = False
            for _ in range(20):
                candidate = self._clip(point - step_size * gradient, bounds)
                candidate_value = objective(candidate)
                if candidate_value < value:
                    improved = True
                    break
                step_size *= 0.5
            if not improved:
                converged = True
                break
            if abs(value - candidate_value) <= self._tolerance:
                point, value = candidate, candidate_value
                converged = True
                break
            point, value = candidate, candidate_value

        return OptimizationResult(
            optimal_parameters=point,
            optimal_value=float(value),
            num_function_calls=objective.num_evaluations,
            num_iterations=iterations,
            converged=converged,
            optimizer_name=self.name,
            message="converged" if converged else "iteration limit",
        )
