"""Depth-1 QAOA energy-landscape scanning.

For ``p = 1`` the cost expectation is a smooth function of only two angles,
so it can be scanned on a grid.  The scan is used by the quickstart example,
by the warm-start ablation bench, and by tests as an independent check that
the optimizer actually finds (a neighbourhood of) the global optimum of the
depth-1 landscape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.config import BETA_MAX, GAMMA_MAX
from repro.exceptions import ConfigurationError
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.fast_backend import FastMaxCutEvaluator
from repro.qaoa.parameters import QAOAParameters


@dataclass(frozen=True)
class LandscapeScan:
    """Grid scan of the depth-1 expectation surface."""

    gamma_values: np.ndarray
    beta_values: np.ndarray
    expectations: np.ndarray
    best_parameters: QAOAParameters
    best_expectation: float

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape ``(len(gamma_values), len(beta_values))``."""
        return self.expectations.shape


def depth_one_landscape(
    problem: MaxCutProblem,
    *,
    gamma_resolution: int = 32,
    beta_resolution: int = 32,
) -> LandscapeScan:
    """Scan the depth-1 expectation on a regular (gamma, beta) grid."""
    if gamma_resolution < 2 or beta_resolution < 2:
        raise ConfigurationError("grid resolutions must be at least 2")
    evaluator = FastMaxCutEvaluator(problem)
    gamma_values = np.linspace(0.0, GAMMA_MAX, gamma_resolution, endpoint=False)
    beta_values = np.linspace(0.0, BETA_MAX, beta_resolution, endpoint=False)
    # The whole grid is one (R*C, 2) parameter batch: every grid point rides
    # the same blocked sweeps instead of R*C scalar evaluations.
    gamma_grid, beta_grid = np.meshgrid(gamma_values, beta_values, indexing="ij")
    batch = np.column_stack([gamma_grid.ravel(), beta_grid.ravel()])
    expectations = evaluator.expectation_batch(batch).reshape(
        gamma_resolution, beta_resolution
    )
    best_index = np.unravel_index(np.argmax(expectations), expectations.shape)
    best_parameters = QAOAParameters(
        (float(gamma_values[best_index[0]]),), (float(beta_values[best_index[1]]),)
    )
    return LandscapeScan(
        gamma_values=gamma_values,
        beta_values=beta_values,
        expectations=expectations,
        best_parameters=best_parameters,
        best_expectation=float(expectations[best_index]),
    )
