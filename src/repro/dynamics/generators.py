"""Time-evolution generators: dense-free ``Hamiltonian`` objects.

A :class:`Hamiltonian` wraps a real-weighted
:class:`~repro.quantum.operators.PauliSum` and precomputes, for every term,
the permutation + phase form of its action on the computational basis:
``P |x> = phase(x) |x XOR mask>``.  Applying the full operator to a
statevector is then ``sum_k c_k * amp_k * psi[perm_k]`` — ``O(T * 2^n)``
with no dense ``2^n x 2^n`` matrix ever materialised, so Schrodinger
integration scales to registers the dense route cannot touch.  All diagonal
(I/Z-only) terms are fused into a single real diagonal vector.

The basis convention matches the rest of :mod:`repro.quantum`: qubit 0 is
the least-significant bit of the basis index, and Pauli labels are written
most-significant qubit first (character ``k`` acts on qubit ``n - 1 - k``).

Examples
--------
>>> import numpy as np
>>> from repro.dynamics import Hamiltonian
>>> driver = Hamiltonian.transverse_field(2)          # -(X0 + X1)
>>> plus = np.full(4, 0.5)                            # |++>, its ground state
>>> driver.expectation(plus)
-2.0
>>> np.allclose(driver.apply(plus), -2.0 * plus)      # eigenvector check
True
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.quantum.operators import PauliSum

#: Dense-matrix materialisation ceiling (``2^n x 2^n`` memory).
DENSE_MATRIX_MAX_QUBITS = 12


def _term_tables(label: str, num_qubits: int):
    """The ``(flip_mask, phase)`` action of one Pauli string on the basis.

    ``P |x> = phase[x] |x XOR flip_mask>`` with ``phase`` computed from the
    Z factors (``(-1)^x_q``) and Y factors (``1j * (-1)^x_q``); X factors
    only flip.  Returns ``(mask, phase)`` with ``phase`` a length-``2^n``
    complex vector (real ±1 for I/Z-only strings).
    """
    dim = 1 << num_qubits
    indices = np.arange(dim)
    mask = 0
    phase = np.ones(dim, dtype=complex)
    for position, char in enumerate(label):
        qubit = num_qubits - 1 - position
        if char == "I":
            continue
        bit_sign = 1.0 - 2.0 * ((indices >> qubit) & 1)
        if char == "X":
            mask |= 1 << qubit
        elif char == "Y":
            mask |= 1 << qubit
            phase = phase * (1j * bit_sign)
        else:  # "Z"
            phase = phase * bit_sign
    return mask, phase


class Hamiltonian:
    """A Hermitian operator with matrix-free structured application.

    Parameters
    ----------
    operator:
        The defining :class:`~repro.quantum.operators.PauliSum` (real
        coefficients, hence Hermitian).  It is simplified on entry so
        repeated labels collapse into one term table.
    name:
        Optional display name.
    """

    def __init__(self, operator: PauliSum, *, name: Optional[str] = None):
        if not isinstance(operator, PauliSum):
            raise ConfigurationError(
                f"operator must be a PauliSum, got {type(operator).__name__}"
            )
        simplified = operator.simplify()
        if simplified.num_qubits is None:
            # Simplification removed every term; keep the register size by
            # falling back to an explicit zero-weight identity.
            simplified = PauliSum.identity(operator.num_qubits, 0.0)
        self._operator = simplified
        self._name = name or "Hamiltonian"
        self._num_qubits = int(simplified.num_qubits)
        self._dim = 1 << self._num_qubits
        self._matrix_cache: Optional[np.ndarray] = None

        diagonal = np.zeros(self._dim, dtype=float)
        has_diagonal = False
        offdiag = []
        for coefficient, pauli in simplified.terms:
            mask, phase = _term_tables(pauli.label, self._num_qubits)
            if mask == 0:
                diagonal += coefficient * phase.real
                has_diagonal = True
            else:
                perm = np.arange(self._dim) ^ mask
                # amp[y] = c * phase(y ^ mask): the output-indexed weight.
                offdiag.append((perm, coefficient * phase[perm]))
        self._diagonal = diagonal if has_diagonal else None
        self._offdiag = tuple(offdiag)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def transverse_field(
        cls, num_qubits: int, coefficient: float = -1.0
    ) -> "Hamiltonian":
        """The annealing driver ``coefficient * sum_q X_q``.

        With the default ``coefficient=-1.0`` the ground state is the
        uniform superposition ``|+...+>`` — the canonical annealing start.
        """
        num_qubits = int(num_qubits)
        if num_qubits < 1:
            raise ConfigurationError(f"num_qubits must be >= 1, got {num_qubits}")
        terms = []
        for qubit in range(num_qubits):
            label = "".join(
                "X" if position == num_qubits - 1 - qubit else "I"
                for position in range(num_qubits)
            )
            terms.append((float(coefficient), label))
        return cls(PauliSum(terms), name="TransverseField")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    #: Class-level flag consumed by :func:`repro.dynamics.evolve` dispatch.
    time_dependent = False

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2^n``."""
        return self._dim

    @property
    def operator(self) -> PauliSum:
        """The defining (simplified) Pauli sum."""
        return self._operator

    @property
    def name(self) -> str:
        return self._name

    @property
    def is_diagonal(self) -> bool:
        """Whether the operator is diagonal in the computational basis."""
        return not self._offdiag

    @property
    def num_terms(self) -> int:
        """Structured term count (fused diagonal counts as one)."""
        return len(self._offdiag) + (0 if self._diagonal is None else 1)

    def norm_bound(self) -> float:
        """An upper bound on the spectral norm (used for step heuristics)."""
        bound = float(sum(abs(c) for c, _ in self._operator.terms))
        if self._diagonal is not None:
            bound = max(bound, float(np.max(np.abs(self._diagonal))))
        return bound

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, array: np.ndarray) -> np.ndarray:
        """``H @ array`` with the Hilbert dimension on axis 0.

        Accepts a ``(dim,)`` vector or a ``(dim, batch)`` block (e.g. the
        columns of a density matrix); returns a fresh complex array of the
        same shape.
        """
        array = np.asarray(array)
        if array.shape[0] != self._dim:
            raise SimulationError(
                f"operator acts on dimension {self._dim}, array has leading "
                f"dimension {array.shape[0]}"
            )
        out = np.zeros(array.shape, dtype=complex)
        shape = (self._dim,) + (1,) * (array.ndim - 1)
        if self._diagonal is not None:
            out += self._diagonal.reshape(shape) * array
        for perm, amp in self._offdiag:
            out += amp.reshape(shape) * array[perm]
        return out

    def expectation(self, state: np.ndarray) -> float:
        """``<state| H |state>`` (real by Hermiticity) for a ``(dim,)`` vector."""
        state = np.asarray(state, dtype=complex).reshape(-1)
        return float(np.vdot(state, self.apply(state)).real)

    def diagonal(self) -> np.ndarray:
        """The diagonal vector of a diagonal Hamiltonian (copy)."""
        if self._offdiag:
            raise SimulationError(
                f"{self._name} has off-diagonal terms; no diagonal vector form"
            )
        if self._diagonal is None:
            return np.zeros(self._dim, dtype=float)
        return self._diagonal.copy()

    def matrix(self) -> np.ndarray:
        """Dense ``2^n x 2^n`` matrix (cached; exponential memory)."""
        if self._num_qubits > DENSE_MATRIX_MAX_QUBITS:
            raise ConfigurationError(
                f"dense materialisation is limited to {DENSE_MATRIX_MAX_QUBITS} "
                f"qubits, the operator acts on {self._num_qubits}; use apply()"
            )
        if self._matrix_cache is None:
            self._matrix_cache = self.apply(np.eye(self._dim, dtype=complex))
            self._matrix_cache.setflags(write=False)
        return self._matrix_cache

    # ------------------------------------------------------------------
    # Arithmetic (delegated to the Pauli sum; tables rebuilt once)
    # ------------------------------------------------------------------
    def __add__(self, other: "Hamiltonian") -> "Hamiltonian":
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        return Hamiltonian(self._operator + other._operator)

    def __mul__(self, scalar: Union[int, float]) -> "Hamiltonian":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return Hamiltonian(self._operator * float(scalar), name=self._name)

    __rmul__ = __mul__

    def __neg__(self) -> "Hamiltonian":
        return self * -1.0

    def __repr__(self) -> str:
        return (
            f"Hamiltonian(name={self._name!r}, num_qubits={self._num_qubits}, "
            f"terms={len(self._operator.terms)})"
        )
