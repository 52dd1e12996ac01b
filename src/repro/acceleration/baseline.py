"""The naive (random-initialization) QAOA flow — the paper's baseline.

The baseline of Fig. 1(a): the target-depth circuit is optimized directly
from random initial angles.  The paper runs 20 independent random
initializations per problem and reports the mean and standard deviation of
the approximation ratio and of the per-run function-call count, so
:class:`NaiveOutcome` exposes per-restart statistics rather than only the
best restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_NUM_RESTARTS, DEFAULT_TOLERANCE
from repro.execution.context import ContextLike
from repro.graphs.maxcut import MaxCutProblem
from repro.optimizers.base import Optimizer
from repro.qaoa.result import QAOAResult
from repro.qaoa.solver import QAOASolver
from repro.utils.rng import RandomState


@dataclass(frozen=True)
class NaiveOutcome:
    """Per-restart statistics of a naive random-initialization run."""

    problem_name: str
    optimizer_name: str
    target_depth: int
    approximation_ratios: tuple
    function_calls: tuple
    best_approximation_ratio: float
    result: QAOAResult

    @property
    def mean_approximation_ratio(self) -> float:
        """Mean AR over the random restarts (the paper's "Mean AR")."""
        return float(np.mean(self.approximation_ratios))

    @property
    def std_approximation_ratio(self) -> float:
        """Standard deviation of the AR over restarts."""
        return float(np.std(self.approximation_ratios))

    @property
    def mean_function_calls(self) -> float:
        """Mean function calls per restart (the paper's "Mean FC")."""
        return float(np.mean(self.function_calls))

    @property
    def std_function_calls(self) -> float:
        """Standard deviation of function calls over restarts."""
        return float(np.std(self.function_calls))

    @property
    def total_function_calls(self) -> int:
        """Total calls spent across all restarts."""
        return int(np.sum(self.function_calls))

    @property
    def total_shots(self) -> int:
        """Measurement shots consumed by the whole run (0 = exact oracle)."""
        return self.result.num_shots


class NaiveQAOARunner:
    """Run the random-initialization baseline flow.

    Accepts the same oracle configuration as
    :class:`~repro.qaoa.solver.QAOASolver` — one
    :class:`~repro.execution.context.ExecutionContext` (``context=``),
    including the stochastic finite-shot / noise knobs.
    """

    def __init__(
        self,
        optimizer: Union[str, Optimizer, None] = None,
        context: ContextLike = None,
        *,
        num_restarts: int = DEFAULT_NUM_RESTARTS,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = 10000,
        candidate_pool: Optional[int] = None,
        seed: RandomState = None,
    ):
        self._solver = QAOASolver(
            optimizer,
            context,
            num_restarts=num_restarts,
            tolerance=tolerance,
            max_iterations=max_iterations,
            candidate_pool=candidate_pool,
            seed=seed,
        )

    @property
    def solver(self) -> QAOASolver:
        """The underlying QAOA solver."""
        return self._solver

    def run(
        self,
        problem: MaxCutProblem,
        target_depth: int,
        *,
        num_restarts: int = None,
        seed: RandomState = None,
    ) -> NaiveOutcome:
        """Optimize *problem* at *target_depth* from random initializations."""
        result = self._solver.solve(
            problem, target_depth, num_restarts=num_restarts, seed=seed
        )
        max_cut = result.max_cut_value
        ratios = tuple(
            record.optimal_expectation / max_cut for record in result.restarts
        )
        calls = tuple(record.num_function_calls for record in result.restarts)
        return NaiveOutcome(
            problem_name=problem.name,
            optimizer_name=result.optimizer_name,
            target_depth=target_depth,
            approximation_ratios=ratios,
            function_calls=calls,
            best_approximation_ratio=result.approximation_ratio,
            result=result,
        )
