"""Fast MaxCut-specialised QAOA statevector evaluation.

Inside the optimization loop the same circuit structure is evaluated thousands
of times, so this backend exploits the structure of the MaxCut QAOA ansatz
instead of applying gates one by one:

* the phase-separation unitary ``exp(-i gamma H_C)`` is diagonal in the
  computational basis (the diagonal is the cut-value table), and
* the mixing unitary ``exp(-i beta sum_q X_q)`` is diagonal in the Hadamard
  basis, so it is applied as ``W diag(exp(-i beta (n - 2 popcount))) W`` with
  ``W`` the normalised Walsh-Hadamard transform.

``W`` is never materialised: :func:`fwht_inplace` applies it as an in-place
radix-2 butterfly in ``O(n 2^n)`` operations and ``O(2^n)`` memory, which is
what lifts the practical qubit ceiling from the ~14 qubits a dense
``2^n x 2^n`` matrix allows into the high twenties.  The butterfly operates
on the leading axis, so a whole ``(dim, batch)`` matrix of amplitude columns
is transformed in one pass — :meth:`FastMaxCutEvaluator.expectation_batch`
uses this to evaluate many angle sets per problem in a single vectorized
sweep (landscape grids, restart screening, finite-difference gradients).

The result is numerically identical (up to global phase) to running the
gate-level circuit through :class:`~repro.quantum.simulator.StatevectorSimulator`,
which the test-suite verifies.  The old dense-matrix implementation survives
as :class:`DenseMaxCutEvaluator`, kept only as a test oracle and benchmark
baseline.
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.parameters import QAOAParameters
from repro.quantum.engine import BATCH_ELEMENT_BUDGET
from repro.quantum.statevector import Statevector

#: Default qubit ceiling of the FWHT backend.  The limiting resource is the
#: ``O(2^n)`` amplitude buffer (1 GiB of complex128 at n = 26), not compute.
FAST_BACKEND_MAX_QUBITS = 26

#: Default qubit ceiling of the dense oracle (the 2^n x 2^n matrix costs
#: 2 GiB of float64 already at n = 14).
DENSE_BACKEND_MAX_QUBITS = 14

#: Peak complex128 elements evolved per batched sweep (~256 MiB); the single
#: shared budget lives in :mod:`repro.quantum.engine`.  Batches wider than
#: ``budget // dim`` columns are processed in chunks of that width, which
#: bounds transient memory without losing vectorization at the
#: small-to-medium qubit counts where batching matters most.
_BATCH_ELEMENT_BUDGET = BATCH_ELEMENT_BUDGET

ParameterBatch = Union[np.ndarray, Sequence[Union[QAOAParameters, Sequence[float]]]]


def fwht_inplace(array: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Unnormalised fast Walsh-Hadamard transform along axis 0, in place.

    *array* has shape ``(dim, ...)`` with ``dim`` a power of two; trailing
    axes are independent columns, so a ``(dim, batch)`` matrix is transformed
    in one call.  *scratch* is an optional reusable work buffer holding at
    least ``dim // 2`` elements per column (it is allocated when omitted).
    Returns *array* for chaining.  The normalised transform is
    ``fwht_inplace(a) / sqrt(dim)``.
    """
    dim = array.shape[0]
    if dim & (dim - 1) or dim == 0:
        raise SimulationError(f"FWHT length must be a power of two, got {dim}")
    if dim == 1:
        return array
    half_shape = (dim // 2,) + array.shape[1:]
    if scratch is None or scratch.size < np.prod(half_shape, dtype=int):
        scratch = np.empty(half_shape, dtype=array.dtype)
    block = 1
    while block < dim:
        view = array.reshape((dim // (2 * block), 2, block) + array.shape[1:])
        upper = view[:, 0]
        lower = view[:, 1]
        tmp = scratch.reshape(-1)[: upper.size].reshape(upper.shape)
        np.copyto(tmp, upper)
        upper += lower
        np.subtract(tmp, lower, out=lower)
        block *= 2
    return array


def walsh_hadamard_matrix(num_qubits: int) -> np.ndarray:
    """The normalised ``H^{(x) n}`` matrix: ``W[i, j] = (-1)^popcount(i & j) / sqrt(N)``.

    Exponential in memory (``O(4^n)``) — only the dense test oracle builds it.
    """
    size = 2**num_qubits
    indices = np.arange(size)
    parity = np.zeros((size, size), dtype=np.int64)
    overlap = indices[:, None] & indices[None, :]
    # popcount of every entry of the overlap matrix
    value = overlap.copy()
    while value.any():
        parity += value & 1
        value >>= 1
    return ((-1.0) ** (parity % 2)) / math.sqrt(size)


def _popcounts(dim: int) -> np.ndarray:
    """Popcount of every basis index ``0 .. dim-1`` as a float array."""
    indices = np.arange(dim)
    popcounts = np.zeros(dim, dtype=float)
    value = indices.copy()
    while value.any():
        popcounts += value & 1
        value >>= 1
    return popcounts


class FastMaxCutEvaluator:
    """Evaluate QAOA states and cost expectations for one MaxCut problem.

    The evaluator owns reusable work buffers (amplitude vector + FWHT
    scratch), so repeated scalar :meth:`expectation` calls allocate nothing
    beyond the per-layer phase factors, and :meth:`expectation_batch`
    amortises the Python-level loop over a whole matrix of angle sets.
    Buffers live in thread-local storage and the evaluation counter is
    lock-protected, so one evaluator instance may be shared by concurrent
    threads (each thread pays for its own buffers on first use).
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
        self._cost_diagonal = problem.cost_diagonal()
        # Eigenvalues of sum_q X_q in the Hadamard-transformed basis.
        self._mixer_diagonal = self._num_qubits - 2.0 * _popcounts(self._dim)
        self._num_evaluations = 0
        self._counter_lock = threading.Lock()
        # Reusable work buffers, allocated lazily on first use.  Kept in
        # thread-local storage so one evaluator can serve concurrent callers
        # (the service tier shares compiled programs across worker threads):
        # each thread gets its own amplitude vector and FWHT scratch.
        self._buffers = threading.local()

    def _scratch_for(self, min_elements: int) -> np.ndarray:
        """This thread's FWHT scratch buffer, grown to *min_elements*."""
        scratch = getattr(self._buffers, "scratch", None)
        if scratch is None or scratch.size < min_elements:
            scratch = np.empty(min_elements, dtype=complex)
            self._buffers.scratch = scratch
        return scratch

    def _state_buffer_for(self) -> np.ndarray:
        """This thread's reusable ``(dim,)`` amplitude buffer."""
        buffer = getattr(self._buffers, "state", None)
        if buffer is None:
            buffer = np.empty(self._dim, dtype=complex)
            self._buffers.state = buffer
        return buffer

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
    def _evolve_inplace(self, amplitudes: np.ndarray, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """Apply the QAOA layers to *amplitudes* (shape ``(dim,)`` or ``(dim, batch)``).

        *gammas* / *betas* have shape ``(depth,)`` for a single column or
        ``(depth, batch)`` for per-column angles.  The two ``1/sqrt(dim)``
        normalisations of each layer are folded into the mixer phase, so each
        layer costs two unnormalised butterflies plus two element-wise
        multiplies.
        """
        scratch = self._scratch_for(amplitudes.size // 2)
        cost = self._cost_diagonal
        mixer = self._mixer_diagonal
        if amplitudes.ndim == 2:
            # Broadcasting (dim, 1) diagonals against (depth, batch) angle rows
            # gives per-column phases in one outer product per layer.
            cost = cost[:, None]
            mixer = mixer[:, None]
        inv_dim = 1.0 / self._dim
        for gamma, beta in zip(gammas, betas):
            amplitudes *= np.exp(-1j * cost * gamma)
            fwht_inplace(amplitudes, scratch)
            amplitudes *= np.exp(-1j * mixer * beta) * inv_dim
            fwht_inplace(amplitudes, scratch)
        return amplitudes

    def _coerce_batch(self, params_matrix: ParameterBatch) -> np.ndarray:
        """Normalise a batch of angle sets to a float matrix ``(batch, 2p)``."""
        if isinstance(params_matrix, np.ndarray) and params_matrix.ndim == 2:
            matrix = np.asarray(params_matrix, dtype=float)
        else:
            rows = []
            for row in params_matrix:
                if isinstance(row, QAOAParameters):
                    rows.append(row.to_vector())
                else:
                    rows.append(np.asarray(row, dtype=float).reshape(-1))
            if len({row.size for row in rows}) > 1:
                raise SimulationError(
                    "all angle sets of a batch must have the same depth"
                )
            if rows:
                matrix = np.asarray(rows, dtype=float)
            else:
                matrix = np.zeros((0, 0), dtype=float)
        if matrix.ndim != 2 or (matrix.size and matrix.shape[1] % 2 != 0):
            raise SimulationError(
                f"parameter batch must be (batch, 2p), got shape {matrix.shape}"
            )
        return matrix

    @staticmethod
    def _angles(parameters) -> Tuple[np.ndarray, np.ndarray]:
        """``(gammas, betas)`` of a :class:`QAOAParameters` or a flat vector.

        A flat ``[gammas..., betas...]`` vector is split into two views.
        """
        if isinstance(parameters, QAOAParameters):
            return np.asarray(parameters.gammas), np.asarray(parameters.betas)
        vector = np.asarray(parameters, dtype=float).reshape(-1)
        if vector.size == 0 or vector.size % 2 != 0:
            raise ConfigurationError(
                f"parameter vector length must be a positive even number, got {vector.size}"
            )
        depth = vector.size // 2
        return vector[:depth], vector[depth:]

    def statevector(self, parameters) -> Statevector:
        """The QAOA output state ``|psi(gamma, beta)>``."""
        amplitudes = np.full(self._dim, 1.0 / math.sqrt(self._dim), dtype=complex)
        self._evolve_inplace(amplitudes, *self._angles(parameters))
        return Statevector(amplitudes, copy=False, validate=False)

    def statevector_batch(self, params_matrix: ParameterBatch) -> np.ndarray:
        """Amplitude columns for a batch of angle sets, shape ``(dim, batch)``.

        The full matrix is materialised (that is the return value); callers
        that only need expectations should use :meth:`expectation_batch`,
        which processes memory-bounded chunks instead.
        """
        matrix = self._coerce_batch(params_matrix)
        batch = matrix.shape[0]
        amplitudes = np.full((self._dim, batch), 1.0 / math.sqrt(self._dim), dtype=complex)
        if batch == 0:
            return amplitudes
        depth = matrix.shape[1] // 2
        gammas = matrix[:, :depth].T.copy()  # (depth, batch)
        betas = matrix[:, depth:].T.copy()
        return self._evolve_inplace(amplitudes, gammas, betas)

    # ------------------------------------------------------------------
    # Expectations
    # ------------------------------------------------------------------
    def expectation(self, parameters) -> float:
        """Expectation value of the cost Hamiltonian in the QAOA state.

        *parameters* is a :class:`QAOAParameters` or a flat
        ``[gammas..., betas...]`` vector.
        """
        gammas, betas = self._angles(parameters)
        amplitudes = self._state_buffer_for()
        amplitudes.fill(1.0 / math.sqrt(self._dim))
        self._evolve_inplace(amplitudes, gammas, betas)
        self._count_evaluations()
        probabilities = amplitudes.real**2 + amplitudes.imag**2
        return float(np.dot(probabilities, self._cost_diagonal))

    def expectation_batch(self, params_matrix: ParameterBatch) -> np.ndarray:
        """Cost expectations for many angle sets in one vectorized pass.

        *params_matrix* is a ``(batch, 2p)`` matrix (or a sequence of
        :class:`QAOAParameters` / flat vectors, all of the same depth).
        Returns a ``(batch,)`` float array; ``(dim, chunk)`` amplitude
        blocks are evolved through the butterflies at once, so the
        per-evaluation overhead is a fraction of ``batch`` scalar calls.
        The chunk width caps the transient amplitude matrix at ~256 MiB
        regardless of batch size, so a 32x32 landscape grid on a 20-qubit
        problem does not balloon peak memory.
        """
        matrix = self._coerce_batch(params_matrix)
        batch = matrix.shape[0]
        if batch == 0:
            return np.zeros(0, dtype=float)
        chunk = max(1, _BATCH_ELEMENT_BUDGET // self._dim)
        values = np.empty(batch, dtype=float)
        for start in range(0, batch, chunk):
            amplitudes = self.statevector_batch(matrix[start : start + chunk])
            probabilities = amplitudes.real**2 + amplitudes.imag**2
            values[start : start + chunk] = self._cost_diagonal @ probabilities
        self._count_evaluations(batch)
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


class DenseMaxCutEvaluator:
    """Dense-matrix reference implementation (test oracle / benchmark baseline).

    This is the pre-FWHT backend: the mixing layer is applied by multiplying
    with an explicit ``2^n x 2^n`` Walsh-Hadamard matrix, which costs
    ``O(4^n)`` time per layer and ``O(4^n)`` memory up front.  It exists so
    tests can check the butterfly against an independent implementation and
    so benchmarks can quantify the speed-up; production code must use
    :class:`FastMaxCutEvaluator`.
    """

    def __init__(self, problem: MaxCutProblem, max_qubits: int = DENSE_BACKEND_MAX_QUBITS):
        if problem.num_qubits > max_qubits:
            raise SimulationError(
                f"problem has {problem.num_qubits} qubits, exceeding the dense-oracle "
                f"limit of {max_qubits} (the 2^n x 2^n matrix would not fit in memory)"
            )
        self._problem = problem
        self._dim = 2**problem.num_qubits
        self._cost_diagonal = problem.cost_diagonal()
        self._hadamard = walsh_hadamard_matrix(problem.num_qubits)
        self._mixer_diagonal = problem.num_qubits - 2.0 * _popcounts(self._dim)

    @property
    def problem(self) -> MaxCutProblem:
        """The MaxCut problem this oracle is specialised for."""
        return self._problem

    def _walsh_hadamard_apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Apply the normalised Walsh-Hadamard matrix to a complex vector.

        The complex vector is viewed as a ``(dim, 2)`` real matrix so the
        transform is a single real matrix product (avoiding a complex upcast
        of the Hadamard matrix on every call).
        """
        stacked = np.empty((self._dim, 2), dtype=float)
        stacked[:, 0] = amplitudes.real
        stacked[:, 1] = amplitudes.imag
        transformed = self._hadamard @ stacked
        return np.ascontiguousarray(transformed).view(np.complex128).ravel()

    def statevector(self, parameters) -> Statevector:
        """The QAOA output state, computed through dense matrix products."""
        if not isinstance(parameters, QAOAParameters):
            parameters = QAOAParameters.from_vector(np.asarray(parameters, dtype=float))
        amplitudes = np.full(self._dim, 1.0 / math.sqrt(self._dim), dtype=complex)
        for gamma, beta in zip(parameters.gammas, parameters.betas):
            amplitudes *= np.exp(-1j * gamma * self._cost_diagonal)
            amplitudes = self._walsh_hadamard_apply(amplitudes)
            amplitudes *= np.exp(-1j * beta * self._mixer_diagonal)
            amplitudes = self._walsh_hadamard_apply(amplitudes)
        return Statevector(amplitudes, copy=False, validate=False)

    def expectation(self, parameters) -> float:
        """Expectation value of the cost Hamiltonian in the QAOA state."""
        state = self.statevector(parameters)
        return float(np.dot(np.abs(state.data) ** 2, self._cost_diagonal))
