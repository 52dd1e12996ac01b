"""The two-level ML-accelerated QAOA flow (Fig. 4 of the paper).

Level 1: optimize the depth-1 instance of the problem from a random start
(cheap — only two angles).  Level 2: feed the depth-1 optimum and the target
depth to the trained :class:`~repro.prediction.predictor.ParameterPredictor`,
and run the target-depth optimization loop from the predicted angles.

The reported cost is the sum of the function calls of both levels, which is
exactly how the paper accounts for the two-level run-time (Sec. IV).  Both
levels can run against the stochastic finite-shot / Pauli-noise oracle
(``context=ExecutionContext(shots=..., noise_model=...)``), in which case
the outcome additionally reports the total shot budget.

Examples
--------
Train a deliberately tiny predictor and run the accelerated flow (for
reproduction-quality results use the default pipeline scale):

>>> from repro.acceleration.two_level import TwoLevelQAOARunner
>>> from repro.graphs import MaxCutProblem, erdos_renyi_graph
>>> from repro.prediction import PredictorPipelineConfig
>>> config = PredictorPipelineConfig(num_graphs=4, depths=(1, 2), num_restarts=1)
>>> runner = TwoLevelQAOARunner.with_default_predictor(pipeline_config=config, seed=7)
>>> outcome = runner.run(MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=1)), 2)
>>> outcome.target_depth, outcome.total_shots
(2, 0)
>>> outcome.total_function_calls == outcome.level1_function_calls + outcome.level2_function_calls
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.config import DEFAULT_TOLERANCE
from repro.exceptions import ConfigurationError
from repro.execution.context import ContextLike
from repro.graphs.maxcut import MaxCutProblem
from repro.optimizers.base import Optimizer
from repro.prediction.pipeline import PredictorPipelineConfig, train_default_predictor
from repro.prediction.predictor import ParameterPredictor
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.parameters import QAOAParameters, canonicalize_for_graph
from repro.qaoa.result import QAOAResult
from repro.qaoa.solver import QAOASolver
from repro.utils.rng import RandomState


@dataclass(frozen=True)
class TwoLevelOutcome:
    """Outcome of one two-level accelerated run."""

    problem_name: str
    optimizer_name: str
    target_depth: int
    level1_result: QAOAResult
    predicted_parameters: QAOAParameters
    predicted_expectation: float
    level2_result: QAOAResult

    @property
    def approximation_ratio(self) -> float:
        """Approximation ratio achieved by the level-2 (target-depth) run."""
        return self.level2_result.approximation_ratio

    @property
    def predicted_approximation_ratio(self) -> float:
        """AR of the ML-predicted warm start *before* any level-2 refinement.

        Quantifies how close the prediction alone gets to the optimum (the
        "prediction without refinement" ablation).
        """
        return self.predicted_expectation / self.level2_result.max_cut_value

    @property
    def level1_function_calls(self) -> int:
        """Calls spent optimizing the depth-1 instance."""
        return self.level1_result.num_function_calls

    @property
    def level2_function_calls(self) -> int:
        """Calls spent optimizing the target-depth instance from the warm start."""
        return self.level2_result.num_function_calls

    @property
    def total_function_calls(self) -> int:
        """The paper's two-level cost: level-1 calls + level-2 calls."""
        return self.level1_function_calls + self.level2_function_calls

    @property
    def total_shots(self) -> int:
        """Measurement shots consumed across both levels (0 = exact oracle)."""
        return self.level1_result.num_shots + self.level2_result.num_shots


class TwoLevelQAOARunner:
    """Run the ML-initialized two-level QAOA flow.

    Accepts the same oracle configuration as
    :class:`~repro.qaoa.solver.QAOASolver` — one
    :class:`~repro.execution.context.ExecutionContext` (``context=``) —
    shared by both levels.
    """

    def __init__(
        self,
        predictor: ParameterPredictor,
        optimizer: Union[str, Optimizer, None] = None,
        context: ContextLike = None,
        *,
        level1_restarts: int = 1,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = 10000,
        candidate_pool: Optional[int] = None,
        seed: RandomState = None,
    ):
        if not predictor.is_fitted:
            raise ConfigurationError(
                "the parameter predictor must be fitted before building the runner"
            )
        if level1_restarts < 1:
            raise ConfigurationError(
                f"level1_restarts must be >= 1, got {level1_restarts}"
            )
        self._predictor = predictor
        self._level1_restarts = int(level1_restarts)
        self._solver = QAOASolver(
            optimizer,
            context,
            num_restarts=level1_restarts,
            tolerance=tolerance,
            max_iterations=max_iterations,
            candidate_pool=candidate_pool,
            seed=seed,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def with_default_predictor(
        cls,
        *,
        optimizer: Union[str, Optimizer, None] = None,
        pipeline_config: PredictorPipelineConfig = None,
        seed: RandomState = 2020,
        **kwargs,
    ) -> "TwoLevelQAOARunner":
        """Train a small default predictor and wrap it in a runner.

        Convenient for examples and quick starts; for reproduction-quality
        experiments train the predictor explicitly on a larger ensemble.
        """
        predictor, _ = train_default_predictor(pipeline_config, seed=seed)
        return cls(predictor, optimizer, seed=seed, **kwargs)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def predictor(self) -> ParameterPredictor:
        """The trained parameter predictor."""
        return self._predictor

    @property
    def solver(self) -> QAOASolver:
        """The underlying QAOA solver (shared by both levels)."""
        return self._solver

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        problem: MaxCutProblem,
        target_depth: int,
        *,
        seed: RandomState = None,
    ) -> TwoLevelOutcome:
        """Execute the two-level flow on *problem* for *target_depth*."""
        if target_depth < 2:
            raise ConfigurationError(
                f"the two-level flow targets depths >= 2, got {target_depth}"
            )
        # Level 1: cheap depth-1 optimization from random initialization.
        level1 = self._solver.solve(
            problem, 1, num_restarts=self._level1_restarts, seed=seed
        )
        # The predictor is trained on canonicalised angles, so the level-1
        # optimum must be folded into the same fundamental domain.
        level1_canonical = canonicalize_for_graph(
            level1.optimal_parameters, problem.graph
        )
        gamma1, beta1 = level1_canonical.gammas[0], level1_canonical.betas[0]

        # Level 2: predict the target-depth angles and refine locally.  The
        # diagnostic warm-start expectation goes through the same backend as
        # the optimization loop so "circuit" runs stay circuit-level only; it
        # stays *exact* even under a stochastic oracle — it measures the
        # prediction's true quality, not one noisy readout of it.
        predicted = self._predictor.predict(gamma1, beta1, target_depth)
        predicted_expectation = ExpectationEvaluator(
            problem, target_depth, context=self._solver.backend
        ).expectation(predicted.to_vector())
        level2 = self._solver.solve(
            problem, target_depth, initial_parameters=predicted, seed=seed
        )
        return TwoLevelOutcome(
            problem_name=problem.name,
            optimizer_name=level2.optimizer_name,
            target_depth=target_depth,
            level1_result=level1,
            predicted_parameters=predicted,
            predicted_expectation=float(predicted_expectation),
            level2_result=level2,
        )
