"""The QAOA optimization loop (quantum circuit + classical optimizer).

:class:`QAOASolver` is the closed loop of Fig. 1(a)/(d): it repeatedly
evaluates the cost expectation through an
:class:`~repro.qaoa.cost.ExpectationEvaluator` and lets a classical local
optimizer update the angles until the functional tolerance is met.  The
solver supports both random initialization (the paper's naive baseline,
possibly multi-restart) and explicit initial parameters (the ML-predicted
warm start of the two-level flow).

*How* the oracle runs is one :class:`~repro.execution.context.ExecutionContext`
(``context=ExecutionContext(shots=..., noise_model=...)``); when the context
makes the oracle stochastic and no optimizer is named explicitly, the solver
defaults to SPSA, whose two-evaluation gradient estimate tolerates a noisy
objective, and the result reports the total shot budget next to the
function-call count.

Examples
--------
>>> from repro.graphs import MaxCutProblem, erdos_renyi_graph
>>> from repro.qaoa.solver import QAOASolver
>>> problem = MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=3))
>>> result = QAOASolver(seed=0).solve(problem, depth=1)
>>> result.optimizer_name, result.num_shots
('L-BFGS-B', 0)
>>> result.approximation_ratio > 0.7
True

A shot-budgeted solve picks SPSA and accounts for every shot:

>>> from repro.execution import ExecutionContext
>>> noisy = QAOASolver(context=ExecutionContext(shots=128), seed=0).solve(problem, depth=1)
>>> noisy.optimizer_name
'SPSA'
>>> noisy.num_shots == 128 * noisy.num_function_calls
True
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.config import DEFAULT_TOLERANCE
from repro.exceptions import CheckpointError, ConfigurationError
from repro.execution.context import (
    ContextLike,
    ExecutionContext,
    as_execution_context,
)
from repro.execution.keys import compile_cache_key, solve_cache_key
from repro.graphs.maxcut import MaxCutProblem
from repro.optimizers.base import Optimizer
from repro.optimizers.registry import get_optimizer
from repro.optimizers.spsa import SPSAOptimizer
from repro.qaoa.backends import compile_program
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.parameters import QAOAParameters, parameter_bounds, random_parameters
from repro.qaoa.result import QAOAResult, RestartRecord
from repro.quantum.noise import NoiseModel, ReadoutErrorModel
from repro.resilience.checkpoint import (
    CheckpointSlot,
    CheckpointStore,
    SolverCheckpoint,
    capture_rng_state,
    restore_rng_state,
)
from repro.utils.lru import LRUCache
from repro.utils.rng import RandomState, as_optional_seed, ensure_rng
from repro.utils.validation import _integer

InitialParameters = Union[None, QAOAParameters, Sequence[float]]

#: ``checkpoint=`` accepts a bound slot or a bare store (key derived).
CheckpointLike = Union[None, CheckpointSlot, CheckpointStore]

#: Iteration cap of the default SPSA optimizer wired in for stochastic
#: oracles (each iteration costs two evaluations x shots; the classic
#: 10000-iteration cap of the exact optimizers would burn millions of shots).
STOCHASTIC_SPSA_MAX_ITERATIONS = 200

#: Functional tolerance of the default stochastic SPSA (shot noise makes the
#: exact 1e-6 tolerance unreachable; SPSA stalls out against this instead).
STOCHASTIC_SPSA_TOLERANCE = 1e-3


class QAOASolver:
    """Run the QAOA optimization loop for MaxCut problems.

    Parameters
    ----------
    optimizer:
        Optimizer name (e.g. ``"L-BFGS-B"``), an
        :class:`~repro.optimizers.base.Optimizer` instance, or ``None``
        (default) to auto-select: ``"L-BFGS-B"`` for the exact oracle, a
        noise-tolerant SPSA (see :data:`STOCHASTIC_SPSA_MAX_ITERATIONS`)
        when the execution context makes the oracle stochastic.
    context:
        An :class:`~repro.execution.context.ExecutionContext` describing how
        expectations are computed (backend, shots, noise, density, readout),
        or a backend-name shorthand such as ``"circuit"``; ``None`` is the
        exact default context.  Forwarded unchanged to every
        :class:`~repro.qaoa.cost.ExpectationEvaluator` the solver builds;
        the consumed shot budget is reported as :attr:`QAOAResult.num_shots`.
    num_restarts:
        Number of random restarts used when no initial parameters are given.
    tolerance:
        Functional tolerance (only used when *optimizer* is given by name).
    use_bounds:
        When true, the angle domain ``gamma in [0, 2*pi]``, ``beta in [0, pi]``
        is also enforced during optimization (the paper restricts only the
        random initialization, which is the default behaviour here).
    candidate_pool:
        When set to a value larger than the restart count, random
        initialization draws that many candidate angle sets, scores them all
        in **one** batched expectation evaluation
        (:meth:`~repro.qaoa.cost.ExpectationEvaluator.expectation_batch`),
        and only the best ``num_restarts`` starts enter the (expensive)
        optimization loop.  ``None`` (default) keeps the classic behaviour —
        every random start is optimized — so fixed-seed results are unchanged
        unless screening is explicitly requested.
    seed:
        Seed or generator for random initialization and the stochastic
        oracle; when omitted, the context's ``seed`` policy applies.
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector`; when set,
        every objective evaluation first checks the ``backend.evaluate``
        site, so chaos tests can fail (or delay) the oracle on an exact,
        replayable schedule.
    """

    def __init__(
        self,
        optimizer: Union[str, Optimizer, None] = None,
        context: ContextLike = None,
        *,
        num_restarts: int = 1,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = 10000,
        use_bounds: bool = False,
        candidate_pool: Optional[int] = None,
        seed: RandomState = None,
        fault_injector=None,
    ):
        context = as_execution_context(context)
        self._num_restarts = _integer(num_restarts, "num_restarts", minimum=1)
        if candidate_pool is not None:
            candidate_pool = _integer(candidate_pool, "candidate_pool", minimum=1)
        self._candidate_pool = candidate_pool
        self._context = context
        if seed is None:
            seed = context.seed
        self._rng = ensure_rng(seed)
        # With the exact density oracle, gate noise is deterministic — only
        # a finite shot budget needs the noise-tolerant default optimizer.
        stochastic = context.is_stochastic
        # Auto-wired SPSA is rebuilt per solve() seeded from the call-level
        # rng, so an explicit per-solve seed reproduces the whole stochastic
        # run (optimizer perturbations included); these settings are kept to
        # do that.
        self._auto_spsa_settings = None
        if isinstance(optimizer, Optimizer):
            self._optimizer = optimizer
        elif optimizer is None and stochastic:
            # The natural default for a noisy oracle: gradient estimates from
            # two evaluations per iteration, bounded iteration/shot budget,
            # and a tolerance the shot noise can actually reach.
            self._auto_spsa_settings = (
                min(max_iterations, STOCHASTIC_SPSA_MAX_ITERATIONS),
                max(tolerance, STOCHASTIC_SPSA_TOLERANCE),
            )
            # Template instance backing the .optimizer property / name only;
            # every solve() rebuilds it on the call-level generator.
            self._optimizer = SPSAOptimizer(
                max_iterations=self._auto_spsa_settings[0],
                tolerance=self._auto_spsa_settings[1],
            )
        else:
            self._optimizer = get_optimizer(
                optimizer if optimizer is not None else "L-BFGS-B",
                tolerance=tolerance,
                max_iterations=max_iterations,
            )
        self._use_bounds = bool(use_bounds)
        self._fault_injector = fault_injector
        # Compiled-program LRU keyed on problem *content* + depth (via
        # compile_cache_key): repeated solves of the same instance — the
        # optimizer-comparison loops, the service tier — reuse the backend
        # program instead of re-deriving cost diagonals / recompiling the
        # parametric circuit on every solve() call.
        self._program_cache = LRUCache(self._PROGRAM_CACHE_CAPACITY)

    _PROGRAM_CACHE_CAPACITY = 32

    def _compiled_program(self, problem: MaxCutProblem, depth: int):
        """The cached compiled backend program for ``(problem, depth)``.

        Keyed on graph content, so structurally equal problem objects share
        one program.  Thread-safe: the cache locks only its bookkeeping; two
        threads racing on a cold key may both compile (one result wins the
        slot), which duplicates work but never corrupts state.
        """
        key = compile_cache_key(problem, depth, self._context)
        program = self._program_cache.get(key)
        if program is None:
            program = compile_program(problem, depth, self._context)
            self._program_cache.put(key, program)
        return program

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def optimizer(self) -> Optimizer:
        """The classical optimizer driving the loop."""
        return self._optimizer

    @property
    def num_restarts(self) -> int:
        """Default number of random restarts."""
        return self._num_restarts

    @property
    def context(self) -> ExecutionContext:
        """The execution context forwarded to every evaluator."""
        return self._context

    @property
    def backend(self) -> str:
        """Expectation-evaluation backend name."""
        return self._context.backend

    @property
    def candidate_pool(self) -> Optional[int]:
        """Size of the batched start-screening pool (``None`` = no screening)."""
        return self._candidate_pool

    @property
    def shots(self) -> Optional[int]:
        """Shot budget per evaluation (``None`` = exact readout)."""
        return self._context.shots

    @property
    def noise_model(self) -> Optional[NoiseModel]:
        """The noise model applied to every evaluation, if any."""
        return self._context.noise_model

    @property
    def density(self) -> bool:
        """Whether evaluations run through the exact density-matrix oracle."""
        return self._context.density

    @property
    def readout_error(self) -> Optional[ReadoutErrorModel]:
        """The readout assignment-error model forwarded to evaluators."""
        return self._context.readout_error

    def __repr__(self) -> str:
        return (
            f"QAOASolver(optimizer={self._optimizer.name!r}, "
            f"num_restarts={self._num_restarts}, context={self._context!r})"
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        problem: MaxCutProblem,
        depth: int,
        *,
        initial_parameters: InitialParameters = None,
        num_restarts: Optional[int] = None,
        candidate_pool: Optional[int] = None,
        seed: RandomState = None,
        checkpoint: CheckpointLike = None,
    ) -> QAOAResult:
        """Optimize a depth-*depth* QAOA instance of *problem*.

        When *initial_parameters* is provided the loop starts exactly there
        (single run, ``initialization="warm"`` in the result); otherwise
        *num_restarts* random initializations are optimized independently and
        the best restart is reported as the optimum.  A *candidate_pool*
        larger than the restart count turns on batched start screening (see
        the class docstring); the screening evaluations are included in the
        reported function-call count.

        Checkpointing: *checkpoint* is a
        :class:`~repro.resilience.checkpoint.CheckpointSlot` (or a bare
        :class:`~repro.resilience.checkpoint.CheckpointStore`, in which case
        the slot key is derived from the solve configuration).  The solver
        snapshots the pre-drawn restart starts immediately, and the full
        state — completed restart records, rng bit-generator state, shot
        accounting — after every restart; re-invoking an interrupted solve
        with the same slot resumes from the last completed restart and
        returns a result **bit-identical** to the uninterrupted run.
        Completed snapshots are left in the store; callers that no longer
        need them delete the slot.
        """
        depth = _integer(depth, "depth", minimum=1)
        rng = ensure_rng(seed) if seed is not None else self._rng
        slot = self._as_checkpoint_slot(checkpoint, problem, depth, seed)
        snapshot = slot.load() if slot is not None else None
        if snapshot is not None:
            if snapshot.depth != depth:
                raise CheckpointError(
                    f"checkpoint was written for depth {snapshot.depth}, "
                    f"cannot resume a depth-{depth} solve"
                )
            if snapshot.rng_state is not None:
                # Continue the exact sample stream of the interrupted run on
                # a fresh generator (the solver's shared rng is untouched).
                rng = restore_rng_state(snapshot.rng_state)
        optimizer = self._optimizer
        if self._auto_spsa_settings is not None:
            # Rebuild the auto-wired SPSA on the call-level generator so a
            # per-solve seed reproduces the optimizer's perturbation draws
            # too (a long-lived instance would leak state across solves).
            spsa_iterations, spsa_tolerance = self._auto_spsa_settings
            optimizer = SPSAOptimizer(
                max_iterations=spsa_iterations,
                tolerance=spsa_tolerance,
                seed=rng,
            )
        evaluator = ExpectationEvaluator(
            problem,
            depth,
            context=self._context,
            rng=rng,
            program=self._compiled_program(problem, depth),
        )
        objective = evaluator.expectation
        if self._fault_injector is not None:
            objective = self._fault_injector.wrap("backend.evaluate", objective)
        bounds = parameter_bounds(depth) if self._use_bounds else None
        screening_calls = 0
        records: List[RestartRecord] = []
        base_shots = 0

        if snapshot is not None:
            starts = [
                QAOAParameters.from_vector(np.asarray(start, dtype=float))
                for start in snapshot.starts
            ]
            initialization = snapshot.initialization
            records = [RestartRecord.from_payload(record) for record in snapshot.records]
            screening_calls = int(snapshot.screening_calls)
            base_shots = int(snapshot.shots_used)
        elif initial_parameters is not None:
            starts = [self._coerce_parameters(initial_parameters, depth)]
            initialization = "warm"
        else:
            restarts = self._num_restarts
            if num_restarts is not None:
                restarts = _integer(num_restarts, "num_restarts", minimum=1)
            pool = self._candidate_pool
            if candidate_pool is not None:
                pool = _integer(candidate_pool, "candidate_pool", minimum=1)
            if pool is not None and pool > restarts:
                candidates = [random_parameters(depth, rng) for _ in range(pool)]
                scores = evaluator.expectation_batch(
                    np.array([candidate.to_vector() for candidate in candidates])
                )
                screening_calls = len(candidates)
                keep = np.argsort(scores)[::-1][:restarts]
                starts = [candidates[index] for index in keep]
                initialization = "screened"
            else:
                starts = [random_parameters(depth, rng) for _ in range(restarts)]
                initialization = "random"

        boundary_rng_state = capture_rng_state(rng) if slot is not None else None

        def snapshot_now() -> SolverCheckpoint:
            return SolverCheckpoint(
                depth=depth,
                initialization=initialization,
                starts=[[float(v) for v in start.to_vector()] for start in starts],
                records=[record.to_payload() for record in records],
                rng_state=boundary_rng_state,
                screening_calls=screening_calls,
                shots_used=base_shots + evaluator.shots_used,
            )

        if slot is not None and snapshot is None:
            # Starts are now pinned: a kill during the very first restart
            # still resumes against the exact same initializations.
            slot.save(snapshot_now())

        best_record: Optional[RestartRecord] = None
        for record in records:
            if best_record is None or record.optimal_expectation > best_record.optimal_expectation:
                best_record = record
        for start in starts[len(records):]:
            record = self._run_single(objective, start, bounds, optimizer)
            records.append(record)
            if best_record is None or record.optimal_expectation > best_record.optimal_expectation:
                best_record = record
            if slot is not None:
                boundary_rng_state = capture_rng_state(rng)
                slot.save(snapshot_now())

        total_calls = screening_calls + int(
            sum(record.num_function_calls for record in records)
        )
        return QAOAResult(
            problem_name=problem.name,
            depth=depth,
            optimizer_name=self._optimizer.name,
            optimal_parameters=best_record.optimal_parameters,
            optimal_expectation=best_record.optimal_expectation,
            max_cut_value=problem.max_cut_value(),
            num_function_calls=total_calls,
            num_restarts=len(records),
            restarts=records,
            initialization=initialization,
            num_shots=base_shots + evaluator.shots_used,
            context=self._context,
        )

    def _as_checkpoint_slot(
        self,
        checkpoint: CheckpointLike,
        problem: MaxCutProblem,
        depth: int,
        seed: RandomState,
    ) -> Optional[CheckpointSlot]:
        """Normalize the ``checkpoint=`` argument to a bound slot."""
        if checkpoint is None:
            return None
        if isinstance(checkpoint, CheckpointSlot):
            return checkpoint
        if isinstance(checkpoint, CheckpointStore):
            key = solve_cache_key(
                problem, depth, self._context, as_optional_seed(seed), None
            )
            return CheckpointSlot(checkpoint, key)
        raise CheckpointError(
            f"checkpoint must be a CheckpointSlot or CheckpointStore, "
            f"got {type(checkpoint).__name__}"
        )

    @staticmethod
    def _run_single(
        objective, start: QAOAParameters, bounds, optimizer: Optimizer
    ) -> RestartRecord:
        result = optimizer.maximize(objective, start.to_vector(), bounds)
        return RestartRecord(
            initial_parameters=start,
            optimal_parameters=QAOAParameters.from_vector(result.optimal_parameters),
            optimal_expectation=float(result.optimal_value),
            num_function_calls=int(result.num_function_calls),
            converged=bool(result.converged),
        )

    @staticmethod
    def _coerce_parameters(
        initial_parameters: InitialParameters, depth: int
    ) -> QAOAParameters:
        if isinstance(initial_parameters, QAOAParameters):
            parameters = initial_parameters
        else:
            parameters = QAOAParameters.from_vector(
                np.asarray(initial_parameters, dtype=float)
            )
        if parameters.depth != depth:
            raise ConfigurationError(
                f"initial parameters are for depth {parameters.depth}, "
                f"but the circuit depth is {depth}"
            )
        return parameters
