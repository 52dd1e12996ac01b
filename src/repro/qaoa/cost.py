"""Expectation evaluation for the QAOA optimization loop.

:class:`ExpectationEvaluator` is the "quantum computer" box of Fig. 1(a)/(d):
given a flat parameter vector it returns the cost expectation
``<psi(gamma, beta)| H_C |psi(gamma, beta)>``.  *How* that expectation is
computed — backend, shot budget, gate noise, density mode, readout errors —
is described by one :class:`~repro.execution.context.ExecutionContext`
object, whose backend names one of the two engines of
:mod:`repro.qaoa.backends`:

* ``"fast"`` (default) — the MaxCut-specialised
  :class:`~repro.qaoa.fast_backend.FastMaxCutEvaluator`;
* ``"circuit"`` — the gate-level circuit through the general
  :class:`~repro.quantum.simulator.StatevectorSimulator`.

Both produce identical expectation values; the circuit backend exists to keep
the reproduction honest (the paper's flow is circuit-level) and as a
cross-check in the test-suite.

On top of the exact oracle, the context models the realities of a NISQ
device (see :mod:`repro.quantum.noise`): a **finite shot budget**
(``shots=N`` samples N bit-strings per evaluation and averages their cut
values), **gate noise** (``noise_model=...`` averages stochastic
Pauli-trajectories), and **readout assignment errors**
(``readout_error=...`` corrupts the measured distribution, optionally undone
by ``mitigate_readout=True`` confusion-matrix inversion).  All knobs work on
both backends, are deterministic for a seeded ``rng``, and leave the default
configuration bit-identical to the exact evaluator.  Noise trajectories
always run on the compiled circuit engine (the fast program delegates them),
so a seeded noisy evaluation returns the same bits on either backend.

``density=True`` (circuit backend only) swaps the trajectory sampler for the
exact density-matrix oracle of :mod:`repro.quantum.density`: gate noise is
applied as exact Kraus maps, so ``noise_model`` alone no longer makes the
evaluator stochastic — the noisy expectation is a deterministic number, and
non-Pauli channels (true amplitude damping) become representable.

The circuit backend builds its parametric QAOA circuit **once** per evaluator
and lets the simulator's compiled-program cache re-bind it per evaluation, so
neither :class:`~repro.quantum.circuit.QuantumCircuit` objects nor gate
matrices are rebuilt inside the optimization loop; whole parameter batches
run through :meth:`StatevectorSimulator.expectation_batch` in vectorised
``(dim, batch)`` sweeps.

Examples
--------
The exact oracle (default), and a finite-shot estimate of the same point:

>>> from repro.execution import ExecutionContext
>>> from repro.graphs import MaxCutProblem, erdos_renyi_graph
>>> from repro.qaoa.cost import ExpectationEvaluator
>>> problem = MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=3))
>>> exact = ExpectationEvaluator(problem, depth=1)
>>> noisy = ExpectationEvaluator(
...     problem, depth=1, context=ExecutionContext(shots=4096), rng=11
... )
>>> point = [0.4, 0.3]
>>> abs(exact.expectation(point) - noisy.expectation(point)) < 0.5
True
>>> noisy.shots_used
4096

Seeded stochastic evaluators are exactly reproducible:

>>> budget = ExecutionContext(shots=64)
>>> first = ExpectationEvaluator(problem, depth=1, context=budget, rng=5)
>>> second = ExpectationEvaluator(problem, depth=1, context=budget, rng=5)
>>> first.expectation(point) == second.expectation(point)
True
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.execution.context import (
    ContextLike,
    ExecutionContext,
    as_execution_context,
)
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.backends import compile_program
from repro.quantum.engine import BATCH_ELEMENT_BUDGET
from repro.quantum.noise import (
    NoiseModel,
    ReadoutErrorModel,
    ShotEstimator,
    split_shots,
)
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import _integer


class ExpectationEvaluator:
    """Cost-expectation oracle for one (problem, depth) pair.

    Parameters
    ----------
    problem:
        The MaxCut instance to evaluate.
    depth:
        QAOA depth ``p`` (the flat parameter vector has length ``2 p``).
    context:
        An :class:`~repro.execution.context.ExecutionContext` describing how
        expectations are computed, or a backend-name shorthand such as
        ``"circuit"`` (``None`` = the exact default context).  The context is
        validated once, at its own construction.
    rng:
        Seed or generator driving shot sampling and trajectory noise.  A
        fixed seed makes every stochastic evaluation reproducible; when
        omitted, the context's ``seed`` policy applies.
    """

    def __init__(
        self,
        problem: MaxCutProblem,
        depth: int,
        context: ContextLike = None,
        *,
        rng: RandomState = None,
        program=None,
    ):
        context = as_execution_context(context)
        depth = _integer(depth, "depth", minimum=1)
        if (
            context.readout_error is not None
            and context.readout_error.num_qubits != problem.num_qubits
        ):
            raise ConfigurationError(
                f"readout model covers {context.readout_error.num_qubits} qubits, "
                f"the problem has {problem.num_qubits}"
            )
        self._problem = problem
        self._depth = depth
        self._context = context
        self._trajectories = context.effective_trajectories
        if rng is None:
            rng = context.seed
        self._rng = ensure_rng(rng) if context.is_stochastic else None
        self._estimator: Optional[ShotEstimator] = None
        self._stochastic_diagonal: Optional[np.ndarray] = None
        if context.is_stochastic or context.density or context.readout_error is not None:
            self._stochastic_diagonal = problem.cost_diagonal()
            if context.shots is not None:
                self._estimator = ShotEstimator(
                    self._stochastic_diagonal,
                    context.shots,
                    rng=self._rng,
                    readout_error=context.readout_error,
                    mitigate_readout=context.mitigate_readout,
                )
        # A pre-compiled *program* (same problem/depth/backend/density)
        # skips compilation — the solver and the service tier use this to
        # share one compiled program across evaluators and worker threads.
        if program is None:
            program = compile_program(problem, self._depth, context)
        self._program = program
        self._num_evaluations = 0
        self._trajectories_run = 0

    @classmethod
    def from_circuit(
        cls,
        source,
        observable,
        *,
        compiled: bool = True,
        lower_to=None,
        name: str = None,
    ):
        """Evaluate an imported circuit against an arbitrary observable.

        *source* is anything the frontend can ingest — an OpenQASM string, a
        :class:`~repro.frontend.ir.CircuitIR`, or an already-emitted
        :class:`~repro.quantum.circuit.QuantumCircuit` — and *observable* is
        any :class:`~repro.quantum.operators.PauliSum`, not just a MaxCut
        cost Hamiltonian.  Returns a
        :class:`~repro.frontend.evaluator.CircuitExpectationEvaluator`
        exposing the same ``expectation`` / ``expectation_batch`` /
        ``density_expectation`` surface.
        """
        from repro.frontend.evaluator import CircuitExpectationEvaluator

        return CircuitExpectationEvaluator(
            source, observable, compiled=compiled, lower_to=lower_to, name=name
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def problem(self) -> MaxCutProblem:
        """The MaxCut problem being evaluated."""
        return self._problem

    @property
    def depth(self) -> int:
        """QAOA depth ``p`` of the circuits this evaluator builds."""
        return self._depth

    @property
    def context(self) -> ExecutionContext:
        """The execution context describing how expectations are computed."""
        return self._context

    @property
    def program(self):
        """The compiled backend program (shareable across evaluators)."""
        return self._program

    @property
    def backend(self) -> str:
        """Name of the execution backend (e.g. ``"fast"`` or ``"circuit"``)."""
        return self._context.backend

    @property
    def shots(self) -> Optional[int]:
        """Shot budget per evaluation (``None`` = exact readout)."""
        return self._context.shots

    @property
    def noise_model(self) -> Optional[NoiseModel]:
        """The attached noise model, if any."""
        return self._context.noise_model

    @property
    def trajectories(self) -> int:
        """Noise trajectories averaged per evaluation (1 without noise)."""
        return self._trajectories

    @property
    def density(self) -> bool:
        """Whether evaluations run through the exact density-matrix oracle."""
        return self._context.density

    @property
    def readout_error(self) -> Optional[ReadoutErrorModel]:
        """The attached readout assignment-error model, if any."""
        return self._context.readout_error

    @property
    def mitigate_readout(self) -> bool:
        """Whether readout corruption is undone by confusion inversion."""
        return self._context.mitigate_readout

    @property
    def is_stochastic(self) -> bool:
        """Whether evaluations involve shot sampling or trajectory noise.

        In density mode gate noise is exact, so only a finite shot budget
        makes the evaluator stochastic.
        """
        return self._context.is_stochastic

    @property
    def num_evaluations(self) -> int:
        """Number of expectation evaluations performed through this object."""
        return self._num_evaluations

    @property
    def shots_used(self) -> int:
        """Total measurement shots consumed so far (0 for exact readout)."""
        return 0 if self._estimator is None else self._estimator.shots_used

    @property
    def trajectories_run(self) -> int:
        """Total stochastic trajectories simulated so far."""
        return self._trajectories_run

    @property
    def num_parameters(self) -> int:
        """Length of the flat parameter vector (``2 * depth``)."""
        return 2 * self._depth

    def __repr__(self) -> str:
        return (
            f"ExpectationEvaluator(problem={self._problem.name!r}, "
            f"depth={self._depth}, context={self._context!r}, "
            f"evaluations={self._num_evaluations}, shots_used={self.shots_used})"
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _validate(self, vector: Sequence[float]) -> np.ndarray:
        """*vector* as the flat float64 array every program method takes."""
        vector = np.asarray(vector, dtype=float).reshape(-1)
        if vector.size != self.num_parameters:
            raise ConfigurationError(
                f"expected {self.num_parameters} parameters for depth {self._depth}, "
                f"got {vector.size}"
            )
        return vector

    def expectation(self, vector: Sequence[float]) -> float:
        """Cost expectation at the flat parameter vector *vector*.

        Exact by default; with ``shots`` and/or ``noise_model`` configured it
        is the corresponding stochastic estimate (see the class docstring) —
        except in density mode, where gate noise and readout corruption are
        deterministic and only a shot budget samples.
        """
        vector = self._validate(vector)
        self._num_evaluations += 1
        if self._context.density:
            return self._density_estimate(vector)
        if self.is_stochastic:
            return self._estimate(vector)
        if self.readout_error is not None:
            # Deterministic (infinite-shot) readout corruption of the exact
            # outcome distribution; with mitigation it recovers the exact
            # expectation identically.
            probabilities = self._readout_transform(self._program.probabilities(vector))
            return float(probabilities @ self._stochastic_diagonal)
        return self._program.expectation(vector)

    def _readout_transform(self, probabilities: np.ndarray) -> np.ndarray:
        """Infinite-shot readout pipeline: corrupt, then optionally invert."""
        readout = self.readout_error
        if readout is None:
            return probabilities
        corrupted = readout.apply(probabilities)
        if self.mitigate_readout:
            return readout.mitigate(corrupted)
        return corrupted

    def _density_estimate(self, vector: np.ndarray) -> float:
        """Density-mode evaluation: exact channels, optional shot sampling."""
        probabilities = self._program.density_probabilities(vector, self.noise_model)
        if self.shots is None:
            probabilities = self._readout_transform(probabilities)
            return float(probabilities @ self._stochastic_diagonal)
        return self._estimator.estimate_probabilities(probabilities)

    def _trajectory_probabilities(self, vector: np.ndarray) -> np.ndarray:
        """Outcome probabilities of one (possibly noisy) trajectory."""
        self._trajectories_run += 1
        if self.noise_model is None:
            return self._program.probabilities(vector)
        return self._program.noisy_probabilities(vector, self.noise_model, self._rng)

    def _estimate(self, vector: np.ndarray) -> float:
        """One stochastic estimate: trajectories x (shots | exact readout)."""
        trajectories = self._trajectories
        if self.shots is None:
            total = 0.0
            for _ in range(trajectories):
                probabilities = self._readout_transform(
                    self._trajectory_probabilities(vector)
                )
                total += float(probabilities @ self._stochastic_diagonal)
            return total / trajectories
        budgets = split_shots(self.shots, trajectories)
        total = 0.0
        for budget in budgets:
            if budget == 0:
                continue
            probabilities = self._trajectory_probabilities(vector)
            total += budget * self._estimator.estimate_probabilities(
                probabilities, budget
            )
        return total / self.shots

    def expectation_batch(self, params_matrix) -> np.ndarray:
        """Cost expectations for a whole ``(batch, 2p)`` matrix of angle sets.

        The fast backend evolves the rows in cache-sized blocks
        (see :meth:`FastMaxCutEvaluator.expectation_batch`); the circuit
        backend re-binds its compiled parametric circuit and sweeps the whole
        batch through :meth:`StatevectorSimulator.expectation_batch` — no
        per-row Python loop on either backend, so the two stay
        interchangeable for consumers such as the landscape scan and the
        solver's restart screening.

        A pure shot budget (no noise model) stays vectorized: the exact
        probability columns are computed in one batched sweep and each column
        receives an independent multinomial shot draw.  Trajectory noise
        falls back to one estimate per row (each row needs its own error
        samples), and density mode evaluates one exact density matrix per
        row (4^n memory per state).
        """
        matrix = np.asarray(params_matrix, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if matrix.ndim != 2 or (matrix.size and matrix.shape[1] != self.num_parameters):
            raise ConfigurationError(
                f"expected a (batch, {self.num_parameters}) parameter matrix for "
                f"depth {self._depth}, got shape {matrix.shape}"
            )
        self._num_evaluations += matrix.shape[0]
        if matrix.shape[0] == 0:
            return np.zeros(0, dtype=float)
        if self._context.density:
            # The density matrix is 4^n memory per state: one exact
            # evaluation per row, never a (4^n, batch) sweep.
            return np.array([self._density_estimate(row) for row in matrix])
        if not self.is_stochastic:
            if self.readout_error is not None:
                return self._readout_expectation_batch(matrix)
            return self._program.expectation_batch(matrix)
        if self.noise_model is None:
            # Pure finite shots: batched exact amplitudes, per-column draws.
            estimates = np.empty(matrix.shape[0], dtype=float)
            for start, stop, rows in self._probability_rows_chunks(matrix):
                estimates[start:stop] = self._estimator.estimate_batch(rows.T)
            self._trajectories_run += matrix.shape[0]
            return estimates
        return np.array([self._estimate(row) for row in matrix])

    def _probability_rows_chunks(self, matrix: np.ndarray):
        """Yield ``(start, stop, rows)`` of exact probability rows.

        One batched backend sweep per chunk, chunked to the shared element
        budget so the whole ``(dim, batch)`` amplitude matrix is never
        materialised at once; *rows* is batch-major ``(chunk, dim)``.
        """
        dim = 2 ** self._problem.num_qubits
        chunk = max(1, BATCH_ELEMENT_BUDGET // dim)
        for start in range(0, matrix.shape[0], chunk):
            block = matrix[start : start + chunk]
            rows = self._program.probability_rows(block)
            yield start, start + block.shape[0], rows

    def _readout_expectation_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Exact batch sweep with infinite-shot readout corruption per row."""
        results = np.empty(matrix.shape[0], dtype=float)
        for start, stop, rows in self._probability_rows_chunks(matrix):
            results[start:stop] = (
                self._readout_transform(rows) @ self._stochastic_diagonal
            )
        return results

    def approximation_ratio(self, vector: Sequence[float]) -> float:
        """Approximation ratio achieved at *vector*."""
        return self._problem.approximation_ratio(self.expectation(vector))
