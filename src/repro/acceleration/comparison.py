"""Run-time comparison between the naive and the two-level flows.

This module produces the raw material of the paper's Table I: for every
(problem, optimizer, target depth) it measures the mean/SD approximation
ratio and function-call count of the random-initialization baseline and of
the ML-initialized two-level flow, and the resulting function-call reduction
percentage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.config import DEFAULT_NUM_RESTARTS, DEFAULT_TOLERANCE
from repro.exceptions import ConfigurationError
from repro.acceleration.baseline import NaiveQAOARunner
from repro.acceleration.two_level import TwoLevelQAOARunner
from repro.execution.context import ContextLike, as_execution_context
from repro.graphs.maxcut import MaxCutProblem
from repro.prediction.predictor import ParameterPredictor
from repro.utils.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class ComparisonRecord:
    """Naive-vs-two-level measurement for one (problem, optimizer, depth)."""

    problem_name: str
    optimizer_name: str
    target_depth: int
    naive_mean_ar: float
    naive_std_ar: float
    naive_mean_fc: float
    naive_std_fc: float
    two_level_ar: float
    two_level_fc: int
    level1_fc: int
    level2_fc: int
    #: Shot budgets consumed by each flow (0 when the oracle is exact).
    naive_total_shots: int = 0
    two_level_total_shots: int = 0
    #: ``ExecutionContext.to_dict()`` of the shared oracle configuration
    #: both flows ran against (``None`` for records built by hand).
    execution: Optional[Dict] = None

    @property
    def fc_reduction_percent(self) -> float:
        """Reduction of function calls achieved by the two-level flow."""
        if self.naive_mean_fc == 0:
            return 0.0
        return 100.0 * (1.0 - self.two_level_fc / self.naive_mean_fc)

    @property
    def ar_improvement(self) -> float:
        """AR difference (two-level minus naive mean)."""
        return self.two_level_ar - self.naive_mean_ar


@dataclass(frozen=True)
class ComparisonSummary:
    """Aggregate of many :class:`ComparisonRecord` (one Table-I row)."""

    optimizer_name: str
    target_depth: int
    num_problems: int
    naive_mean_ar: float
    naive_std_ar: float
    naive_mean_fc: float
    naive_std_fc: float
    two_level_mean_ar: float
    two_level_std_ar: float
    two_level_mean_fc: float
    two_level_std_fc: float
    mean_fc_reduction_percent: float
    naive_mean_shots: float = 0.0
    two_level_mean_shots: float = 0.0

    def as_dict(self) -> Dict:
        """Dictionary form for tabular rendering."""
        return {
            "optimizer": self.optimizer_name,
            "p": self.target_depth,
            "naive_mean_ar": self.naive_mean_ar,
            "naive_std_ar": self.naive_std_ar,
            "naive_mean_fc": self.naive_mean_fc,
            "naive_std_fc": self.naive_std_fc,
            "two_level_mean_ar": self.two_level_mean_ar,
            "two_level_std_ar": self.two_level_std_ar,
            "two_level_mean_fc": self.two_level_mean_fc,
            "two_level_std_fc": self.two_level_std_fc,
            "fc_reduction_percent": self.mean_fc_reduction_percent,
            "naive_mean_shots": self.naive_mean_shots,
            "two_level_mean_shots": self.two_level_mean_shots,
        }


def compare_on_problem(
    problem: MaxCutProblem,
    target_depth: int,
    predictor: ParameterPredictor,
    context: ContextLike = None,
    *,
    optimizer: Optional[str] = None,
    num_restarts: int = DEFAULT_NUM_RESTARTS,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = 10000,
    candidate_pool: Optional[int] = None,
    seed: RandomState = None,
) -> ComparisonRecord:
    """Measure the naive and two-level flows on one problem instance.

    *context* (an :class:`~repro.execution.context.ExecutionContext` or a
    backend-name shorthand) runs **both** flows against the same oracle
    configuration, and the record reports each flow's consumed shot budget
    alongside its function calls — plus the serialized context itself
    (:attr:`ComparisonRecord.execution`), so the artifact carries the exact
    execution settings that produced it.  *candidate_pool* (optional)
    enables the solver's batched restart screening for both flows; it is
    accounted for in the function-call totals, so the comparison stays
    apples-to-apples.
    """
    context = as_execution_context(context)
    rng = ensure_rng(seed)
    naive_runner = NaiveQAOARunner(
        optimizer,
        context,
        num_restarts=num_restarts,
        tolerance=tolerance,
        max_iterations=max_iterations,
        candidate_pool=candidate_pool,
        seed=rng,
    )
    two_level_runner = TwoLevelQAOARunner(
        predictor,
        optimizer,
        context,
        tolerance=tolerance,
        max_iterations=max_iterations,
        candidate_pool=candidate_pool,
        seed=rng,
    )
    naive = naive_runner.run(problem, target_depth)
    accelerated = two_level_runner.run(problem, target_depth)
    return ComparisonRecord(
        problem_name=problem.name,
        optimizer_name=naive.optimizer_name,
        target_depth=target_depth,
        naive_mean_ar=naive.mean_approximation_ratio,
        naive_std_ar=naive.std_approximation_ratio,
        naive_mean_fc=naive.mean_function_calls,
        naive_std_fc=naive.std_function_calls,
        two_level_ar=accelerated.approximation_ratio,
        two_level_fc=accelerated.total_function_calls,
        level1_fc=accelerated.level1_function_calls,
        level2_fc=accelerated.level2_function_calls,
        naive_total_shots=naive.total_shots,
        two_level_total_shots=accelerated.total_shots,
        execution=context.to_dict(),
    )


def aggregate_records(records: Iterable[ComparisonRecord]) -> ComparisonSummary:
    """Aggregate per-problem records for one (optimizer, depth) combination.

    All records must share the same optimizer and target depth; the summary
    reports graph-level means and standard deviations in the same shape as
    one row of the paper's Table I.
    """
    records = list(records)
    if not records:
        raise ConfigurationError("cannot aggregate an empty record list")
    optimizers = {record.optimizer_name for record in records}
    depths = {record.target_depth for record in records}
    if len(optimizers) != 1 or len(depths) != 1:
        raise ConfigurationError(
            "aggregate_records expects records from a single optimizer and depth, "
            f"got optimizers={sorted(optimizers)}, depths={sorted(depths)}"
        )
    naive_ar = np.array([record.naive_mean_ar for record in records])
    naive_fc = np.array([record.naive_mean_fc for record in records])
    two_ar = np.array([record.two_level_ar for record in records])
    two_fc = np.array([record.two_level_fc for record in records], dtype=float)
    reductions = np.array([record.fc_reduction_percent for record in records])
    naive_shots = np.array([record.naive_total_shots for record in records], dtype=float)
    two_shots = np.array([record.two_level_total_shots for record in records], dtype=float)
    return ComparisonSummary(
        optimizer_name=records[0].optimizer_name,
        target_depth=records[0].target_depth,
        num_problems=len(records),
        naive_mean_ar=float(naive_ar.mean()),
        naive_std_ar=float(naive_ar.std()),
        naive_mean_fc=float(naive_fc.mean()),
        naive_std_fc=float(naive_fc.std()),
        two_level_mean_ar=float(two_ar.mean()),
        two_level_std_ar=float(two_ar.std()),
        two_level_mean_fc=float(two_fc.mean()),
        two_level_std_fc=float(two_fc.std()),
        mean_fc_reduction_percent=float(reductions.mean()),
        naive_mean_shots=float(naive_shots.mean()),
        two_level_mean_shots=float(two_shots.mean()),
    )
