"""Kernelised support-vector regression (the paper's "RSVM" model).

The model minimises the epsilon-insensitive loss with an L2 penalty over a
kernel expansion

    f(x) = sum_i alpha_i k(x_i, x) + b
    obj(alpha, b) = 1/2 alpha^T K alpha + C sum_i L_eps(f(x_i) - y_i)

in the primal.  The epsilon-insensitive loss is smoothed with a small
``delta`` so the objective is differentiable and can be minimised reliably
with L-BFGS-B; as ``delta -> 0`` the solution approaches the exact SVR.  This
keeps the implementation self-contained (no QP solver) while retaining the
defining properties of SVR: insensitivity inside the epsilon tube and an
explicit regularisation / complexity trade-off via ``C``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import optimize as scipy_optimize

from repro.exceptions import ModelError
from repro.ml.base import Regressor
from repro.ml.kernels import RBFKernel


class KernelSVR(Regressor):
    """Epsilon-insensitive kernel regression trained in the primal.

    Parameters
    ----------
    C:
        Trade-off between data fit and smoothness (larger = fit harder).
    epsilon:
        Half-width of the insensitive tube.
    length_scale:
        RBF kernel length scale (``None`` selects the median heuristic).
    max_iterations, tolerance:
        L-BFGS-B iteration cap and convergence tolerance.
    smoothing:
        Smoothing width ``delta`` of the differentiable epsilon-insensitive
        loss approximation.
    """

    def __init__(
        self,
        C: float = 10.0,
        epsilon: float = 0.01,
        length_scale: Optional[float] = None,
        max_iterations: int = 500,
        tolerance: float = 1e-8,
        smoothing: float = 1e-3,
        normalize_targets: bool = True,
    ):
        super().__init__()
        if C <= 0:
            raise ModelError(f"C must be positive, got {C}")
        if epsilon < 0:
            raise ModelError(f"epsilon must be >= 0, got {epsilon}")
        if length_scale is not None and length_scale <= 0:
            raise ModelError(f"length_scale must be positive, got {length_scale}")
        if max_iterations <= 0:
            raise ModelError("max_iterations must be positive")
        if smoothing <= 0:
            raise ModelError("smoothing must be positive")
        self.C = float(C)
        self.epsilon = float(epsilon)
        self.length_scale = length_scale
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.smoothing = float(smoothing)
        self.normalize_targets = bool(normalize_targets)

        self._train_features: Optional[np.ndarray] = None
        self._dual_coefficients: Optional[np.ndarray] = None
        self._bias: float = 0.0
        self._fitted_length_scale: Optional[float] = None
        self._target_mean: float = 0.0
        self._target_scale: float = 1.0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def _median_heuristic(self, features: np.ndarray) -> float:
        from repro.ml.kernels import squared_distances

        distances = squared_distances(features, features)
        positive = distances[distances > 0]
        if positive.size == 0:
            return 1.0
        return float(np.sqrt(np.median(positive)))

    def _fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        if self.normalize_targets:
            self._target_mean = float(targets.mean())
            scale = float(targets.std())
            self._target_scale = scale if scale > 0 else 1.0
        else:
            self._target_mean, self._target_scale = 0.0, 1.0
        normalized = (targets - self._target_mean) / self._target_scale

        self._fitted_length_scale = (
            self.length_scale
            if self.length_scale is not None
            else self._median_heuristic(features)
        )
        kernel = RBFKernel(length_scale=self._fitted_length_scale)
        gram = kernel(features, features)

        num_samples = features.shape[0]
        delta = self.smoothing

        def loss_and_grad(residuals: np.ndarray) -> Tuple[float, np.ndarray]:
            # Smooth epsilon-insensitive loss: max(0, |r| - eps) with |.| and
            # max(0, .) replaced by their sqrt-smoothed counterparts.
            soft_abs = np.sqrt(residuals**2 + delta**2)
            slack = soft_abs - self.epsilon
            soft_max = 0.5 * (slack + np.sqrt(slack**2 + delta**2))
            d_softmax = 0.5 * (1.0 + slack / np.sqrt(slack**2 + delta**2))
            d_abs = residuals / soft_abs
            return float(np.sum(soft_max)), d_softmax * d_abs

        def objective(theta: np.ndarray) -> Tuple[float, np.ndarray]:
            alpha, bias = theta[:-1], theta[-1]
            kernel_alpha = gram @ alpha
            residuals = kernel_alpha + bias - normalized
            loss, loss_grad = loss_and_grad(residuals)
            value = 0.5 * float(alpha @ kernel_alpha) + self.C * loss
            grad_alpha = kernel_alpha + self.C * (gram @ loss_grad)
            grad_bias = self.C * float(np.sum(loss_grad))
            return value, np.concatenate([grad_alpha, [grad_bias]])

        result = scipy_optimize.minimize(
            objective,
            np.zeros(num_samples + 1),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iterations, "ftol": self.tolerance},
        )

        self._train_features = features.copy()
        self._dual_coefficients = np.asarray(result.x[:-1], dtype=float)
        self._bias = float(result.x[-1])

    # ------------------------------------------------------------------
    # Prediction / introspection
    # ------------------------------------------------------------------
    def _predict(self, features: np.ndarray) -> np.ndarray:
        kernel = RBFKernel(length_scale=self._fitted_length_scale)
        cross = kernel(features, self._train_features)
        normalized = cross @ self._dual_coefficients + self._bias
        return normalized * self._target_scale + self._target_mean

    def support_vector_count(self, atol: float = 1e-8) -> int:
        """Number of training points with non-negligible dual coefficient."""
        if self._dual_coefficients is None:
            raise ModelError("model is not fitted")
        return int(np.sum(np.abs(self._dual_coefficients) > atol))

    def get_params(self) -> dict:
        return {
            "C": self.C,
            "epsilon": self.epsilon,
            "length_scale": self.length_scale,
            "max_iterations": self.max_iterations,
            "tolerance": self.tolerance,
            "smoothing": self.smoothing,
            "normalize_targets": self.normalize_targets,
        }
