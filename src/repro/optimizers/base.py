"""Optimizer interface, result container and function-call accounting.

The paper's key run-time metric is the number of optimization-loop iterations
("function calls" / "QC calls"): every objective evaluation corresponds to one
execution of the quantum circuit.  :class:`CountingObjective` makes that
number an explicit, optimizer-independent measurement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import OptimizationError

Objective = Callable[[np.ndarray], float]
Bounds = Optional[Sequence[Tuple[float, float]]]


class CountingObjective:
    """Wrap an objective function and count its evaluations.

    Besides the count it keeps the best point seen, which optimizers that
    report their last iterate use to return the best sample instead.
    """

    def __init__(self, function: Objective):
        if not callable(function):
            raise OptimizationError("objective must be callable")
        self._function = function
        self._num_evaluations = 0
        self._best_value: Optional[float] = None
        self._best_point: Optional[np.ndarray] = None

    def __call__(self, point: Sequence[float]) -> float:
        point = np.asarray(point, dtype=float)
        value = float(self._function(point))
        self._num_evaluations += 1
        if self._best_value is None or value < self._best_value:
            self._best_value = value
            self._best_point = point.copy()
        return value

    @property
    def num_evaluations(self) -> int:
        """Number of objective evaluations performed so far."""
        return self._num_evaluations

    @property
    def best_value(self) -> Optional[float]:
        """Lowest value seen so far, or ``None`` before the first call."""
        return self._best_value

    @property
    def best_point(self) -> Optional[np.ndarray]:
        """Point achieving :attr:`best_value`."""
        return None if self._best_point is None else self._best_point.copy()

    def reset(self) -> None:
        """Forget the count and the best point."""
        self._num_evaluations = 0
        self._best_value = None
        self._best_point = None


@dataclass
class OptimizationResult:
    """Outcome of one local-optimizer run."""

    optimal_parameters: np.ndarray
    optimal_value: float
    num_function_calls: int
    num_iterations: int
    converged: bool
    optimizer_name: str
    message: str = ""

    def __post_init__(self) -> None:
        self.optimal_parameters = np.asarray(self.optimal_parameters, dtype=float)

    @property
    def num_parameters(self) -> int:
        """Dimensionality of the optimized parameter vector."""
        return int(self.optimal_parameters.size)

    def __repr__(self) -> str:
        return (
            f"OptimizationResult(optimizer={self.optimizer_name!r}, "
            f"value={self.optimal_value:.6f}, calls={self.num_function_calls}, "
            f"converged={self.converged})"
        )


class Optimizer(ABC):
    """Base class for local minimizers.

    Subclasses implement :meth:`_minimize`, receiving a
    :class:`CountingObjective` so that function-call accounting is uniform
    across SciPy-backed and native optimizers.
    """

    def __init__(
        self,
        name: str,
        *,
        tolerance: float = 1e-6,
        max_iterations: int = 10000,
    ):
        if tolerance <= 0:
            raise OptimizationError(f"tolerance must be positive, got {tolerance}")
        if max_iterations <= 0:
            raise OptimizationError(
                f"max_iterations must be positive, got {max_iterations}"
            )
        self._name = name
        self._tolerance = float(tolerance)
        self._max_iterations = int(max_iterations)

    @property
    def name(self) -> str:
        """The optimizer's display name (e.g. ``"L-BFGS-B"``)."""
        return self._name

    @property
    def tolerance(self) -> float:
        """Functional tolerance used as the convergence criterion."""
        return self._tolerance

    @property
    def max_iterations(self) -> int:
        """Upper bound on optimizer iterations."""
        return self._max_iterations

    def minimize(
        self,
        objective: Objective,
        initial_point: Sequence[float],
        bounds: Bounds = None,
    ) -> OptimizationResult:
        """Minimize *objective* starting from *initial_point*."""
        initial_point = np.asarray(initial_point, dtype=float)
        if initial_point.ndim != 1 or initial_point.size == 0:
            raise OptimizationError(
                f"initial_point must be a non-empty 1-D array, got shape "
                f"{initial_point.shape}"
            )
        if bounds is not None:
            bounds = [(float(low), float(high)) for low, high in bounds]
            if len(bounds) != initial_point.size:
                raise OptimizationError(
                    f"bounds length {len(bounds)} does not match the "
                    f"{initial_point.size}-dimensional initial point"
                )
            for low, high in bounds:
                if low > high:
                    raise OptimizationError(f"invalid bound ({low}, {high})")
        return self._minimize(CountingObjective(objective), initial_point, bounds)

    def maximize(
        self,
        objective: Objective,
        initial_point: Sequence[float],
        bounds: Bounds = None,
    ) -> OptimizationResult:
        """Maximize *objective* (minimizes its negation and flips the value)."""
        result = self.minimize(lambda x: -float(objective(x)), initial_point, bounds)
        result.optimal_value = -result.optimal_value
        return result

    @abstractmethod
    def _minimize(
        self,
        objective: CountingObjective,
        initial_point: np.ndarray,
        bounds: Bounds,
    ) -> OptimizationResult:
        """Optimizer-specific minimization."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self._name!r}, tol={self._tolerance:g}, "
            f"max_iterations={self._max_iterations})"
        )
