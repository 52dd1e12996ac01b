"""Fast MaxCut-specialised QAOA statevector evaluation.

Inside the optimization loop the same circuit structure is evaluated thousands
of times, so this backend exploits the structure of the MaxCut QAOA ansatz
instead of applying gates one by one:

* the phase-separation unitary ``exp(-i gamma H_C)`` is diagonal in the
  computational basis, and the diagonal (the cut-value table) takes at most
  ``2^(n-1)`` distinct *levels*, and at most ``m + 1`` on an unweighted
  graph with ``m`` edges.  A level index is built once per evaluator (whole
  cut values below ``2^n`` index themselves, any other diagonal is sorted),
  so each layer's phase is ``exp(-i gamma levels)`` gathered through it: the
  same bits as exponentiating the whole diagonal;
* the mixing unitary ``exp(-i beta sum_q X_q)`` is ``RX(2 beta)`` on every
  qubit.  The qubits are split into ``ceil(n / 4)`` groups, and each group's
  Kronecker factor ``RX(2 beta)^{(x) k}`` (at most ``16 x 16``) is one GEMM
  against the state viewed with the group's qubits as the contraction
  index, written into the other of two ping-pong buffers.

Memory is ``O(2^n)``: two state buffers per thread (2 GiB at the 26-qubit
ceiling) plus the cost diagonal and its level index.  Batches are evolved
row-major in blocks of at most :data:`_BLOCK_ELEMENTS` amplitudes, so
:meth:`FastMaxCutEvaluator.expectation_batch` (landscape grids, restart
screening) streams cache-sized blocks through the same two buffers instead of
materialising a ``(dim, batch)`` matrix.

The result equals (up to global phase) running the gate-level circuit through
the generic :class:`~repro.quantum.simulator.StatevectorSimulator`, which the
test-suite checks on generated graphs.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.parameters import QAOAParameters
from repro.quantum.statevector import Statevector

#: Default qubit ceiling of the fast backend.  The limiting resource is the
#: pair of ``O(2^n)`` state buffers (2 GiB of complex128 at n = 26).
FAST_BACKEND_MAX_QUBITS = 26

#: Complex128 amplitudes evolved per block sweep (512 KiB per buffer): a
#: batch runs in blocks of ``max(1, _BLOCK_ELEMENTS // dim)`` rows.
_BLOCK_ELEMENTS = 2**15

#: Qubits per Kronecker factor of the mixer (a ``16 x 16`` block).
_GROUP_QUBITS = 4

ParameterBatch = Union[np.ndarray, Sequence[Union[QAOAParameters, Sequence[float]]]]


@functools.lru_cache(maxsize=None)
def _block_plan(num_qubits: int):
    """Exponents, ``(-i)^d`` signs and Hamming distances of a ``k``-qubit block.

    Built with Python integers: first use of NumPy's integer bit loops would
    page in code that no other step of the loop needs.
    """
    flips = range(num_qubits + 1)
    width = 1 << num_qubits
    return (
        np.array([float(num_qubits - d) for d in flips]),
        np.array([float(d) for d in flips]),
        np.array([(-1j) ** d for d in flips]),
        np.array([[bin(row ^ col).count("1") for col in range(width)] for row in range(width)]),
    )


def _mixer_blocks(betas: np.ndarray, num_qubits: int) -> np.ndarray:
    """``RX(2 beta)^{(x) k}`` for each row's angle, shape ``(rows, 2^k, 2^k)``.

    Entry ``(r, c)`` is ``cos(beta)^(k - d) (-i sin(beta))^d`` with
    ``d = popcount(r ^ c)``, so the block is gathered from ``k + 1`` factors.
    It is symmetric, so it may act from either side.
    """
    stays, flips, signs, distances = _block_plan(num_qubits)
    factors = np.cos(betas)[:, None] ** stays * (np.sin(betas)[:, None] ** flips * signs)
    return factors[:, distances]


def _floats(value) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(f"angles must be real numbers, got {value!r}") from error


class FastMaxCutEvaluator:
    """Evaluate QAOA states and cost expectations for one MaxCut problem.

    Every evaluation evolves a block of angle rows through :meth:`_evolve`;
    a scalar call is a block of one.  The two state buffers live in
    thread-local storage and the evaluation counter is lock-protected, so one
    evaluator instance may be shared by concurrent threads (each thread pays
    for its own buffers on first use).
    """

    def __init__(self, problem: MaxCutProblem, max_qubits: int = FAST_BACKEND_MAX_QUBITS):
        if problem.num_qubits > max_qubits:
            raise SimulationError(
                f"problem has {problem.num_qubits} qubits, exceeding the fast-backend "
                f"limit of {max_qubits}"
            )
        self._problem = problem
        self._num_qubits = problem.num_qubits
        self._dim = 2**self._num_qubits
        self._cost_diagonal = diagonal = problem.cost_diagonal()
        # Whole cut values below dim (every unweighted graph's) are their own
        # level index; any other diagonal is sorted once.  Either way there
        # are at most dim levels.
        if 0 <= diagonal.min() and diagonal.max() < self._dim and np.all(diagonal % 1 == 0):
            levels, self._level_index = np.arange(diagonal.max() + 1), diagonal.astype(np.intp)
        else:
            levels, self._level_index = np.unique(diagonal, return_inverse=True)
        self._phase_angles = -1j * levels
        groups = -(-self._num_qubits // _GROUP_QUBITS)
        self._group_sizes = tuple(
            self._num_qubits // groups + (index < self._num_qubits % groups)
            for index in range(groups)
        )
        self._rows_per_block = max(1, _BLOCK_ELEMENTS // self._dim)
        self._num_evaluations = 0
        self._counter_lock = threading.Lock()
        self._buffers = threading.local()

    def _count_evaluations(self, count: int = 1) -> None:
        with self._counter_lock:
            self._num_evaluations += count

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def problem(self) -> MaxCutProblem:
        """The MaxCut problem this evaluator is specialised for."""
        return self._problem

    @property
    def num_evaluations(self) -> int:
        """Number of expectation evaluations performed (diagnostic counter)."""
        return self._num_evaluations

    @property
    def cost_diagonal(self) -> np.ndarray:
        """Diagonal of the cost Hamiltonian (copy)."""
        return self._cost_diagonal.copy()

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**num_qubits``."""
        return self._dim

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def _buffers_for(self, rows: int) -> Tuple[np.ndarray, np.ndarray]:
        """This thread's two ``(rows, dim)`` state buffers (grown on demand)."""
        pair = getattr(self._buffers, "pair", None)
        size = rows * self._dim
        if pair is None or pair[0].size < size:
            pair = (np.empty(size, dtype=complex), np.empty(size, dtype=complex))
            self._buffers.pair = pair
        return pair[0][:size].reshape(rows, -1), pair[1][:size].reshape(rows, -1)

    def _evolve(self, matrix: np.ndarray) -> np.ndarray:
        """QAOA states of one block of ``(rows, 2p)`` angle rows.

        Returns a ``(rows, dim)`` view of one of this thread's buffers, valid
        until the thread's next evolution.
        """
        rows, depth = matrix.shape[0], matrix.shape[1] // 2
        state, spare = self._buffers_for(rows)
        state.fill(1.0 / math.sqrt(self._dim))
        for layer in range(depth):
            phases = np.exp(self._phase_angles * matrix[:, layer, None])
            np.take(phases, self._level_index, axis=1, out=spare, mode="clip")
            state *= spare
            blocks = {}
            for size in self._group_sizes:
                if size not in blocks:
                    blocks[size] = _mixer_blocks(matrix[:, depth + layer], size)
                # The group's qubits are the top bits of the current layout,
                # and the product leaves them at the bottom: after all groups
                # the amplitudes are back in basis order.
                width = 1 << size
                top = state.reshape(rows, width, -1).transpose(0, 2, 1)
                np.matmul(top, blocks[size], out=spare.reshape(rows, -1, width))
                state, spare = spare, state
        return state

    def _angle_matrix(self, params_matrix: ParameterBatch) -> np.ndarray:
        """Validate a batch of angle sets as a float ``(batch, 2p)`` matrix.

        Every row must hold a positive, even number of angles, all rows the
        same number; anything else raises :class:`ConfigurationError`.
        """
        if isinstance(params_matrix, np.ndarray) and params_matrix.ndim == 2:
            matrix = _floats(params_matrix)
        else:
            rows = [
                row.to_vector() if isinstance(row, QAOAParameters) else _floats(row).reshape(-1)
                for row in params_matrix
            ]
            if len({row.size for row in rows}) > 1:
                raise ConfigurationError("all angle sets of a batch must have the same depth")
            matrix = np.asarray(rows, dtype=float) if rows else np.zeros((0, 0))
        width = matrix.shape[1]
        if matrix.shape[0] and (width == 0 or width % 2):
            raise ConfigurationError(
                f"parameter vector length must be a positive even number, got {width}"
            )
        return matrix

    def _blocks(self, matrix: np.ndarray):
        """Yield ``(start, stop, states)`` for consecutive row blocks of *matrix*."""
        for start in range(0, matrix.shape[0], self._rows_per_block):
            stop = start + self._rows_per_block
            yield start, stop, self._evolve(matrix[start:stop])

    def _expectations(self, states: np.ndarray) -> np.ndarray:
        return (states.real**2 + states.imag**2) @ self._cost_diagonal

    def statevector(self, parameters) -> Statevector:
        """The QAOA output state ``|psi(gamma, beta)>``."""
        states = self._evolve(self._angle_matrix([parameters]))
        return Statevector(states[0].copy(), copy=False, validate=False)

    def statevector_batch(self, params_matrix: ParameterBatch) -> np.ndarray:
        """Amplitude columns for a batch of angle sets, shape ``(dim, batch)``.

        The full matrix is materialised (that is the return value, a
        transposed view of batch-major rows); callers that only need
        expectations should use :meth:`expectation_batch`, which streams
        cache-sized blocks instead.
        """
        matrix = self._angle_matrix(params_matrix)
        rows = np.empty((matrix.shape[0], self._dim), dtype=complex)
        for start, stop, states in self._blocks(matrix):
            rows[start:stop] = states
        return rows.T

    # ------------------------------------------------------------------
    # Expectations
    # ------------------------------------------------------------------
    def expectation(self, parameters) -> float:
        """Expectation value of the cost Hamiltonian in the QAOA state.

        *parameters* is a :class:`QAOAParameters` or a flat
        ``[gammas..., betas...]`` vector.
        """
        states = self._evolve(self._angle_matrix([parameters]))
        self._count_evaluations()
        return float(self._expectations(states)[0])

    def expectation_batch(self, params_matrix: ParameterBatch) -> np.ndarray:
        """Cost expectations for many angle sets in one vectorized pass.

        *params_matrix* is a ``(batch, 2p)`` matrix (or a sequence of
        :class:`QAOAParameters` / flat vectors, all of the same depth).
        Returns a ``(batch,)`` float array.  Rows are evolved in blocks of
        at most :data:`_BLOCK_ELEMENTS` amplitudes, so the per-evaluation
        overhead is a fraction of ``batch`` scalar calls and transient
        memory stays at the two block buffers whatever the batch size.
        """
        matrix = self._angle_matrix(params_matrix)
        values = np.zeros(matrix.shape[0], dtype=float)
        for start, stop, states in self._blocks(matrix):
            values[start:stop] = self._expectations(states)
        self._count_evaluations(matrix.shape[0])
        return values

    def approximation_ratio(self, parameters) -> float:
        """Approximation ratio of the QAOA state at the given angles."""
        return self._problem.approximation_ratio(self.expectation(parameters))

    def sample_cut_distribution(self, parameters, shots: int, rng=None) -> dict:
        """Sample measurement outcomes and report cut values per bit-string."""
        state = self.statevector(parameters)
        counts = state.sample_counts(shots, rng=rng)
        return {
            bitstring: {
                "count": count,
                "cut_value": self._problem.cut_value(bitstring),
            }
            for bitstring, count in counts.items()
        }
