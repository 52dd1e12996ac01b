"""Simultaneous Perturbation Stochastic Approximation (SPSA).

SPSA estimates the gradient from only two objective evaluations per
iteration regardless of dimensionality, which makes it the de-facto optimizer
for noisy quantum hardware.  It extends the paper's optimizer set and is used
by the optimizer-agnosticism ablation bench.
"""

from __future__ import annotations


import numpy as np

from repro.optimizers.base import Bounds, CountingObjective, OptimizationResult, Optimizer
from repro.utils.rng import RandomState, ensure_rng


class SPSAOptimizer(Optimizer):
    """SPSA with the standard Spall gain sequences ``a_k`` and ``c_k``."""

    def __init__(
        self,
        *,
        max_iterations: int = 300,
        tolerance: float = 1e-6,
        a: float = 0.2,
        c: float = 0.1,
        alpha: float = 0.602,
        gamma: float = 0.101,
        stability: float = 10.0,
        seed: RandomState = None,
    ):
        super().__init__("SPSA", tolerance=tolerance, max_iterations=max_iterations)
        self._a = float(a)
        self._c = float(c)
        self._alpha = float(alpha)
        self._gamma = float(gamma)
        self._stability = float(stability)
        self._rng = ensure_rng(seed)

    def _clip(self, point: np.ndarray, bounds: Bounds) -> np.ndarray:
        if bounds is None:
            return point
        lows = np.array([low for low, _ in bounds])
        highs = np.array([high for _, high in bounds])
        return np.clip(point, lows, highs)

    def _minimize(
        self,
        objective: CountingObjective,
        initial_point: np.ndarray,
        bounds: Bounds,
    ) -> OptimizationResult:
        point = self._clip(initial_point.copy(), bounds)
        previous_value = objective(point)
        converged = False
        stall_count = 0

        for iteration in range(1, self._max_iterations + 1):
            a_k = self._a / (iteration + self._stability) ** self._alpha
            c_k = self._c / iteration**self._gamma
            delta = self._rng.choice([-1.0, 1.0], size=point.size)

            value_plus = objective(self._clip(point + c_k * delta, bounds))
            value_minus = objective(self._clip(point - c_k * delta, bounds))
            gradient = (value_plus - value_minus) / (2.0 * c_k) * delta

            point = self._clip(point - a_k * gradient, bounds)
            current_value = min(value_plus, value_minus)

            if abs(previous_value - current_value) <= self._tolerance:
                stall_count += 1
                if stall_count >= 5:
                    converged = True
                    break
            else:
                stall_count = 0
            previous_value = current_value

        final_value = objective(point)
        # SPSA is stochastic; report the best point ever sampled.
        best_value = objective.best_value
        best_point = objective.best_point
        if best_value is not None and best_value < final_value:
            final_value, point = best_value, best_point
        return OptimizationResult(
            optimal_parameters=point,
            optimal_value=float(final_value),
            num_function_calls=objective.num_evaluations,
            num_iterations=min(iteration, self._max_iterations),
            converged=converged,
            optimizer_name=self.name,
            message="stalled below tolerance" if converged else "iteration limit",
        )
