"""SciPy-backed local optimizers.

These are the four optimizers evaluated in Table I of the paper: the
gradient-based L-BFGS-B and SLSQP and the gradient-free Nelder-Mead and
COBYLA.  Gradients are obtained by SciPy's internal finite differencing, so
every gradient estimate also shows up in the function-call count — exactly as
it would on a real quantum processor.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
from scipy import optimize as scipy_optimize

from repro.exceptions import OptimizationError
from repro.optimizers.base import Bounds, CountingObjective, OptimizationResult, Optimizer


class ScipyOptimizer(Optimizer):
    """Adapter from :func:`scipy.optimize.minimize` to :class:`Optimizer`."""

    #: SciPy method name; subclasses override.
    method: str = None

    def __init__(
        self,
        *,
        tolerance: float = 1e-6,
        max_iterations: int = 10000,
        options: Dict = None,
    ):
        if self.method is None:
            raise OptimizationError(
                "ScipyOptimizer must be subclassed with a concrete method"
            )
        super().__init__(self.method, tolerance=tolerance, max_iterations=max_iterations)
        self._extra_options = dict(options or {})

    def _scipy_options(self) -> Dict:
        """Method-specific options implementing the functional tolerance."""
        options: Dict = {"maxiter": self._max_iterations}
        if self.method in ("L-BFGS-B", "SLSQP"):
            options["ftol"] = self._tolerance
        elif self.method == "Nelder-Mead":
            options["fatol"] = self._tolerance
            options["xatol"] = self._tolerance
        elif self.method == "COBYLA":
            # COBYLA's final trust-region radius plays the tolerance role.
            options["tol"] = self._tolerance
            options["maxiter"] = self._max_iterations
        options.update(self._extra_options)
        return options

    def _accepts_bounds(self) -> bool:
        return self.method in ("L-BFGS-B", "SLSQP", "Nelder-Mead")

    def _minimize(
        self,
        objective: CountingObjective,
        initial_point: np.ndarray,
        bounds: Bounds,
    ) -> OptimizationResult:
        options = self._scipy_options()
        kwargs = {}
        if bounds is not None and self._accepts_bounds():
            kwargs["bounds"] = bounds
        tol = self._tolerance if self.method == "COBYLA" else None
        try:
            scipy_result = scipy_optimize.minimize(
                objective,
                initial_point,
                method=self.method,
                tol=tol,
                options={k: v for k, v in options.items() if k != "tol"},
                **kwargs,
            )
        except Exception as exc:  # pragma: no cover - defensive
            raise OptimizationError(
                f"scipy optimizer {self.method!r} failed: {exc}"
            ) from exc

        # Prefer the best point actually evaluated: some methods report the
        # last iterate, which for a noisy / flat landscape can be slightly
        # worse than the best sample seen.
        best_value = objective.best_value
        best_point = objective.best_point
        reported_value = float(scipy_result.fun)
        if best_value is not None and best_value < reported_value:
            optimal_value, optimal_parameters = best_value, best_point
        else:
            optimal_value, optimal_parameters = reported_value, np.asarray(
                scipy_result.x, dtype=float
            )

        num_iterations = int(getattr(scipy_result, "nit", 0) or 0)
        return OptimizationResult(
            optimal_parameters=optimal_parameters,
            optimal_value=optimal_value,
            num_function_calls=objective.num_evaluations,
            num_iterations=num_iterations,
            converged=bool(scipy_result.success),
            optimizer_name=self.name,
            message=str(scipy_result.message),
        )


class LBFGSBOptimizer(ScipyOptimizer):
    """Quasi-Newton L-BFGS-B (gradient via finite differences)."""

    method = "L-BFGS-B"


class NelderMeadOptimizer(ScipyOptimizer):
    """Derivative-free Nelder-Mead simplex method."""

    method = "Nelder-Mead"


class SLSQPOptimizer(ScipyOptimizer):
    """Sequential least-squares programming."""

    method = "SLSQP"


class CobylaOptimizer(ScipyOptimizer):
    """Constrained optimization by linear approximation (derivative-free)."""

    method = "COBYLA"
