"""The two execution engines: ``fast`` (MaxCut kernels) and ``circuit`` (compiled gates).

:func:`compile_program` lowers one ``(problem, depth)`` pair into a
*program* for the engine an :class:`~repro.execution.ExecutionContext`
names, through :meth:`FastBackend.compile` or :meth:`CircuitBackend.compile`.
The :class:`~repro.qaoa.cost.ExpectationEvaluator`, the solver's program
LRU and the service's program cache all compile through it.  A program has
one evaluation surface, fed the flat float64 ``[gammas..., betas...]``
vector (or a ``(batch, 2p)`` block of them) that the evaluator has already
checked:

- ``expectation(vector)`` / ``expectation_batch(matrix)`` — exact
  scalar and ``(batch,)`` expectations;
- ``probabilities(vector)`` / ``probability_rows(block)`` — exact
  outcome distributions (batch-major rows for a parameter block);
- ``noisy_probabilities(vector, noise_model, rng)`` — one stochastic
  Pauli-noise trajectory;
- ``density_probabilities(vector, noise_model)`` — the exact
  density-matrix distribution (``"circuit"`` programs compiled with
  ``density=True``).

The compiled engine is the only trajectory sampler: the fast program
delegates ``noisy_probabilities`` to a circuit program of the same problem
and depth, so seeded ``"fast"`` and ``"circuit"`` contexts sample
bit-identical trajectories.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.circuit_builder import build_parametric_qaoa_circuit
from repro.qaoa.fast_backend import FAST_BACKEND_MAX_QUBITS, FastMaxCutEvaluator
from repro.quantum.density import DensityMatrixSimulator
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import StatevectorSimulator
from repro.utils.rng import RandomState


class _FastProgram:
    """The MaxCut-specialised evaluator behind the program surface."""

    def __init__(self, problem: MaxCutProblem, depth: int):
        self._evaluator = FastMaxCutEvaluator(problem)
        self._depth = depth
        # Built on the first noisy trajectory; exact paths never need it.
        self._trajectory_program: Optional[_CircuitProgram] = None

    def expectation(self, vector: np.ndarray) -> float:
        return self._evaluator.expectation(vector)

    def expectation_batch(self, matrix: np.ndarray) -> np.ndarray:
        return self._evaluator.expectation_batch(matrix)

    def probabilities(self, vector: np.ndarray) -> np.ndarray:
        return self._evaluator.statevector(vector).probabilities()

    def probability_rows(self, block: np.ndarray) -> np.ndarray:
        # The (dim, batch) columns are a transposed view of batch-major
        # rows, so the probability rows come out row-major.
        columns = self._evaluator.statevector_batch(block)
        return (columns.real**2 + columns.imag**2).T

    def noisy_probabilities(
        self, vector: np.ndarray, noise_model: NoiseModel, rng: RandomState
    ) -> np.ndarray:
        # Two threads racing here may both build one; either serves.  The
        # delegate accepts every register the fast evaluator does.
        if self._trajectory_program is None:
            self._trajectory_program = _CircuitProgram(
                self._evaluator.problem, self._depth, max_qubits=FAST_BACKEND_MAX_QUBITS
            )
        return self._trajectory_program.noisy_probabilities(vector, noise_model, rng)


class _CircuitProgram:
    """The compiled gate-level circuit behind the program surface.

    The parametric QAOA circuit is built **once**; every evaluation re-binds
    the simulator's compiled program, and whole parameter batches run
    through vectorised ``(dim, batch)`` sweeps.  In density mode the same
    circuit also drives the exact, PTM-compiled :class:`DensityMatrixSimulator`.
    """

    def __init__(
        self,
        problem: MaxCutProblem,
        depth: int,
        *,
        density: bool = False,
        max_qubits: Optional[int] = None,
    ):
        self._simulator = (
            StatevectorSimulator() if max_qubits is None else StatevectorSimulator(max_qubits)
        )
        self._density_simulator: Optional[DensityMatrixSimulator] = None
        if density:
            # Raises for registers beyond the density ceiling (~12 qubits)
            # at construction instead of first evaluation.
            self._density_simulator = DensityMatrixSimulator()
            if problem.num_qubits > self._density_simulator.max_qubits:
                raise ConfigurationError(
                    f"density=True is limited to "
                    f"{self._density_simulator.max_qubits} qubits "
                    f"(the density matrix costs 4^n memory), the problem "
                    f"has {problem.num_qubits}"
                )
        self._hamiltonian = problem.cost_hamiltonian()
        circuit, gammas, betas = build_parametric_qaoa_circuit(problem, depth)
        self._circuit = circuit
        flat_index = {g: i for i, g in enumerate(gammas)}
        flat_index.update({b: depth + i for i, b in enumerate(betas)})
        # Column permutation mapping the flat [gammas..., betas...] vector
        # onto the circuit's first-appearance parameter order.
        self._column_order = np.array(
            [flat_index[p] for p in circuit.parameters], dtype=np.intp
        )

    def expectation(self, vector: np.ndarray) -> float:
        return self._simulator.expectation(
            self._circuit, self._hamiltonian, vector[self._column_order]
        )

    def expectation_batch(self, matrix: np.ndarray) -> np.ndarray:
        return self._simulator.expectation_batch(
            self._circuit, self._hamiltonian, matrix[:, self._column_order]
        )

    def probabilities(self, vector: np.ndarray) -> np.ndarray:
        return self._simulator.run(self._circuit, vector[self._column_order]).probabilities()

    def probability_rows(self, block: np.ndarray) -> np.ndarray:
        # Stay in the engine's native row layout (skipping run_batch's full
        # complex-copy transpose).
        amplitude_rows = self._simulator._run_batch_rows(
            self._circuit, block[:, self._column_order]
        )
        return amplitude_rows.real**2 + amplitude_rows.imag**2

    def noisy_probabilities(
        self, vector: np.ndarray, noise_model: NoiseModel, rng: RandomState
    ) -> np.ndarray:
        state = self._simulator.run(
            self._circuit, vector[self._column_order], noise_model=noise_model, rng=rng
        )
        return state.probabilities()

    def density_probabilities(
        self, vector: np.ndarray, noise_model: Optional[NoiseModel]
    ) -> np.ndarray:
        rho = self._density_simulator.run(
            self._circuit, vector[self._column_order], noise_model=noise_model
        )
        return rho.probabilities()


class FastBackend:
    """The MaxCut-specialised engine (``"fast"``)."""

    def compile(self, problem: MaxCutProblem, depth: int) -> _FastProgram:
        return _FastProgram(problem, depth)


class CircuitBackend:
    """The compiled gate-level circuit engine (``"circuit"``)."""

    def compile(
        self, problem: MaxCutProblem, depth: int, *, density: bool = False
    ) -> _CircuitProgram:
        return _CircuitProgram(problem, depth, density=density)


def compile_program(problem: MaxCutProblem, depth: int, context):
    """The program for ``(problem, depth)`` on the engine *context* names.

    *context* is a validated :class:`~repro.execution.ExecutionContext`:
    its backend is one of the two names, and ``density=True`` comes only
    with ``"circuit"``.
    """
    if context.backend == "circuit":
        return CircuitBackend().compile(problem, int(depth), density=context.density)
    return FastBackend().compile(problem, int(depth))
