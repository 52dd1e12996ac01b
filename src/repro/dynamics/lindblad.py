"""Lindblad master-equation generators on ``vec(rho)``.

A :class:`Lindbladian` is the generator of the GKSL master equation

.. math::

    \\dot\\rho = -i[H, \\rho]
        + \\sum_j \\gamma_j \\Bigl(L_j \\rho L_j^\\dagger
        - \\tfrac12 \\{L_j^\\dagger L_j, \\rho\\}\\Bigr).

Two evaluation tiers mirror the PTM engine split of
:mod:`repro.quantum.engine`:

* **structured** — :meth:`Lindbladian.rhs` applies the generator to a
  flattened density matrix through moveaxis/GEMM contractions of the small
  jump operators and the matrix-free :class:`~repro.dynamics.generators.Hamiltonian`
  tables, never materialising the ``4^n x 4^n`` superoperator.  This is the
  path the integrators drive, and the only one that scales (the dense
  superoperator at ``n = 8`` would occupy ``65536^2`` complex entries,
  roughly 68 GB).
* **dense** — :meth:`superoperator` assembles the explicit matrix on
  row-major ``vec(rho)`` using the same doubled-register convention as the
  compiled engine (``vec(A rho B) = (A kron B^T) vec(rho)``), and
  :meth:`expm_evolve` exponentiates it.  Both are capped at
  :data:`DENSE_SUPEROP_MAX_QUBITS` and kept as the closed-form oracle the
  structured path is tested and benchmarked against.

Jump operators come either from explicit ``(operator, qubit, rate)``
triples or from a :class:`~repro.quantum.noise.NoiseModel` through the
channels' :meth:`~repro.quantum.noise.QuantumChannel.lindblad_rates`
convention, so discrete per-gate channel strengths and continuous rates
round-trip.

Examples
--------
>>> import numpy as np
>>> from repro.dynamics import Lindbladian
>>> lind = Lindbladian.depolarizing(1, rate=0.3)
>>> len(lind.jumps)
3
>>> rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
>>> drho = lind.rhs(0.0, rho.reshape(-1)).reshape(2, 2)
>>> bool(abs(np.trace(drho)) < 1e-12)          # trace preserving
True
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.quantum.density import _apply_left

#: Dense superoperator ceiling: ``4^n x 4^n`` entries (n=6 is ~270 MB).
DENSE_SUPEROP_MAX_QUBITS = 6

#: Named single-qubit jump operators accepted wherever a matrix is.
JUMP_OPERATORS: Dict[str, np.ndarray] = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "sigma_minus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "sigma_plus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}


class JumpOperator:
    """One dissipation term: a small operator, its qubits, and a rate."""

    __slots__ = ("matrix", "qubits", "rate", "label", "_normal")

    def __init__(
        self,
        operator: Union[str, np.ndarray],
        qubits: Union[int, Sequence[int]],
        rate: float,
    ):
        if isinstance(operator, str):
            if operator not in JUMP_OPERATORS:
                raise ConfigurationError(
                    f"unknown jump operator {operator!r}; named jumps: "
                    f"{', '.join(sorted(JUMP_OPERATORS))}"
                )
            self.label: Optional[str] = operator
            matrix = JUMP_OPERATORS[operator]
        else:
            self.label = None
            matrix = np.asarray(operator, dtype=complex)
        if (
            matrix.ndim != 2
            or matrix.shape[0] != matrix.shape[1]
            or matrix.shape[0] < 2
            or matrix.shape[0] & (matrix.shape[0] - 1)
        ):
            raise ConfigurationError(
                f"jump operators must be square with power-of-two dimension "
                f">= 2, got shape {matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ConfigurationError("jump operators must be finite")
        if isinstance(qubits, (int, np.integer)):
            qubits = (int(qubits),)
        else:
            qubits = tuple(int(q) for q in qubits)
        if len(set(qubits)) != len(qubits):
            raise ConfigurationError(f"jump qubits must be distinct, got {qubits}")
        if matrix.shape[0] != 1 << len(qubits):
            raise ConfigurationError(
                f"jump operator of shape {matrix.shape} needs "
                f"{int(matrix.shape[0]).bit_length() - 1} qubit(s), got {qubits}"
            )
        rate = float(rate)
        if not np.isfinite(rate) or rate < 0.0:
            raise ConfigurationError(f"jump rate must be finite and >= 0, got {rate}")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self.matrix = matrix
        self.qubits = qubits
        self.rate = rate
        normal = matrix.conj().T @ matrix
        normal.setflags(write=False)
        self._normal = normal  # L^dagger L, reused every rhs evaluation

    def __repr__(self) -> str:
        label = self.label or f"matrix{self.matrix.shape}"
        return f"JumpOperator({label}, qubits={self.qubits}, rate={self.rate:.4g})"


class Lindbladian:
    """The GKSL generator: a (possibly time-dependent) Hamiltonian + jumps.

    Parameters
    ----------
    hamiltonian:
        ``None`` (pure dissipation), a
        :class:`~repro.dynamics.generators.Hamiltonian`, or any object with
        ``apply(array, t)`` and ``time_dependent = True`` (e.g. the
        schedule-interpolated Hamiltonian of :mod:`repro.dynamics.schedules`).
    jumps:
        ``(operator, qubits, rate)`` triples; *operator* is a named
        single-qubit jump (``"X"``, ``"Y"``, ``"Z"``, ``"sigma_minus"``,
        ``"sigma_plus"``) or an explicit ``2^k x 2^k`` array.
    num_qubits:
        Register size; inferred from *hamiltonian* when omitted.
    """

    def __init__(
        self,
        hamiltonian: Optional[object] = None,
        jumps: Sequence[Tuple[object, object, float]] = (),
        *,
        num_qubits: Optional[int] = None,
    ):
        if num_qubits is None:
            if hamiltonian is None:
                raise ConfigurationError(
                    "num_qubits is required when no Hamiltonian is given"
                )
            num_qubits = int(hamiltonian.num_qubits)
        else:
            num_qubits = int(num_qubits)
            if hamiltonian is not None and int(hamiltonian.num_qubits) != num_qubits:
                raise ConfigurationError(
                    f"hamiltonian acts on {hamiltonian.num_qubits} qubits, "
                    f"num_qubits says {num_qubits}"
                )
        if num_qubits < 1:
            raise ConfigurationError(f"num_qubits must be >= 1, got {num_qubits}")
        self._num_qubits = num_qubits
        self._dim = 1 << num_qubits
        self._hamiltonian = hamiltonian
        self._time_dependent = bool(
            hamiltonian is not None and getattr(hamiltonian, "time_dependent", False)
        )
        prepared = []
        for operator, qubits, rate in jumps:
            jump = JumpOperator(operator, qubits, rate)
            if any(q < 0 or q >= num_qubits for q in jump.qubits):
                raise ConfigurationError(
                    f"jump qubits {jump.qubits} outside the {num_qubits}-qubit register"
                )
            if jump.rate > 0.0:
                prepared.append(jump)
        self._jumps = tuple(prepared)
        self._superoperator_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def depolarizing(
        cls,
        num_qubits: int,
        rate: float,
        *,
        hamiltonian: Optional[object] = None,
    ) -> "Lindbladian":
        """Uniform depolarizing dissipation: X/Y/Z jumps at ``rate / 3``
        on every qubit.

        The integrated time-``t`` map on each qubit is the discrete
        :class:`~repro.quantum.noise.DepolarizingChannel` with
        ``p(t) = 3/4 * (1 - exp(-4 * rate/3 * t))`` — the
        :meth:`~repro.quantum.noise.QuantumChannel.lindblad_rates`
        convention.
        """
        rate = float(rate)
        if not np.isfinite(rate) or rate < 0.0:
            raise ConfigurationError(f"rate must be finite and >= 0, got {rate}")
        jumps = []
        for qubit in range(int(num_qubits)):
            for label in ("X", "Y", "Z"):
                jumps.append((label, qubit, rate / 3.0))
        return cls(hamiltonian, jumps, num_qubits=int(num_qubits))

    @classmethod
    def from_noise_model(
        cls,
        model,
        num_qubits: int,
        *,
        duration: float = 1.0,
        hamiltonian: Optional[object] = None,
    ) -> "Lindbladian":
        """Convert a discrete :class:`~repro.quantum.noise.NoiseModel` into
        continuous jump operators.

        Every attached channel is translated through its
        :meth:`~repro.quantum.noise.QuantumChannel.lindblad_rates`
        (*duration* is the gate time the per-application strengths are
        spread over); a rule's ``qubits=`` filter selects the registers the
        jumps act on (``None`` = all).  Rules with ``gates=`` or ``arity=``
        filters have no continuous-time meaning and are rejected.
        """
        from repro.quantum.noise import NoiseModel

        if not isinstance(model, NoiseModel):
            raise ConfigurationError(
                f"model must be a NoiseModel, got {type(model).__name__}"
            )
        num_qubits = int(num_qubits)
        jumps = []
        for rule in model.to_dict()["rules"]:
            if rule["gates"] is not None or rule["arity"] is not None:
                raise ConfigurationError(
                    "continuous-time conversion supports only per-qubit rules; "
                    "gates=/arity= filters are gate-clock concepts with no "
                    "master-equation meaning"
                )
            from repro.quantum.noise import channel_from_dict

            channel = channel_from_dict(rule["channel"])
            if channel.num_qubits != 1:
                raise ConfigurationError(
                    f"channel {channel.name!r} acts jointly on "
                    f"{channel.num_qubits} qubits; only single-qubit channels "
                    f"have a per-qubit jump-operator form here"
                )
            rates = channel.lindblad_rates(duration)
            targets = (
                range(num_qubits) if rule["qubits"] is None else rule["qubits"]
            )
            for qubit in targets:
                if not 0 <= int(qubit) < num_qubits:
                    raise ConfigurationError(
                        f"noise rule targets qubit {qubit} outside the "
                        f"{num_qubits}-qubit register"
                    )
                for label, rate in sorted(rates.items()):
                    jumps.append((label, int(qubit), rate))
        return cls(hamiltonian, jumps, num_qubits=num_qubits)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2^n`` (``vec(rho)`` has length ``4^n``)."""
        return self._dim

    @property
    def hamiltonian(self):
        return self._hamiltonian

    @property
    def jumps(self) -> Tuple[JumpOperator, ...]:
        return self._jumps

    @property
    def time_dependent(self) -> bool:
        return self._time_dependent

    # ------------------------------------------------------------------
    # Structured application (the integrator path)
    # ------------------------------------------------------------------
    def _hamiltonian_columns(self, block: np.ndarray, t: float) -> np.ndarray:
        if self._time_dependent:
            return self._hamiltonian.apply(block, t)
        return self._hamiltonian.apply(block)

    def apply_density(self, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
        """``d(rho)/dt`` for a ``(dim, dim)`` density matrix at time *t*."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self._dim, self._dim):
            raise SimulationError(
                f"expected a ({self._dim}, {self._dim}) density matrix, "
                f"got shape {rho.shape}"
            )
        out = np.zeros_like(rho)
        if self._hamiltonian is not None:
            # -i (H rho - rho H); rho H = (H rho^dagger)^dagger exactly,
            # without assuming the integrator's stage inputs are Hermitian.
            h_rho = self._hamiltonian_columns(rho, t)
            rho_h = self._hamiltonian_columns(rho.conj().T, t).conj().T
            out += -1j * (h_rho - rho_h)
        n = self._num_qubits
        for jump in self._jumps:
            sandwich = _apply_left(rho, jump.matrix, jump.qubits, n)
            sandwich = _apply_left(
                sandwich.conj().T, jump.matrix, jump.qubits, n
            ).conj().T
            anti_left = _apply_left(rho, jump._normal, jump.qubits, n)
            anti_right = _apply_left(
                rho.conj().T, jump._normal, jump.qubits, n
            ).conj().T
            out += jump.rate * (sandwich - 0.5 * (anti_left + anti_right))
        return out

    def rhs(self, t: float, vec_rho: np.ndarray) -> np.ndarray:
        """The generator on row-major ``vec(rho)`` (integrator signature)."""
        rho = np.asarray(vec_rho).reshape(self._dim, self._dim)
        return self.apply_density(rho, t).reshape(-1)

    # ------------------------------------------------------------------
    # Dense oracle (tests + benchmark baseline)
    # ------------------------------------------------------------------
    def _embed(self, matrix: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
        """Embed a ``2^k`` operator into the full ``2^n`` Hilbert space."""
        return _apply_left(
            np.eye(self._dim, dtype=complex), matrix, qubits, self._num_qubits
        )

    def superoperator(self, t: float = 0.0) -> np.ndarray:
        """The dense ``4^n x 4^n`` generator on row-major ``vec(rho)``.

        Uses the doubled-register convention of the compiled engine:
        ``vec(A rho B) = (A kron B^T) vec(rho)``, so the unitary part is
        ``-i (H kron I - I kron H^T)`` and each dissipator contributes
        ``rate * (L kron conj(L) - 1/2 (L^dag L kron I) - 1/2 (I kron (L^dag L)^T))``.

        Exponential in memory — capped at :data:`DENSE_SUPEROP_MAX_QUBITS`
        qubits; the structured :meth:`rhs` path has no such ceiling.  For a
        time-dependent Hamiltonian the snapshot at *t* is returned (and
        never cached).
        """
        if self._num_qubits > DENSE_SUPEROP_MAX_QUBITS:
            raise ConfigurationError(
                f"the dense superoperator is limited to "
                f"{DENSE_SUPEROP_MAX_QUBITS} qubits (4^n x 4^n memory), the "
                f"generator acts on {self._num_qubits}; use rhs()"
            )
        if not self._time_dependent and self._superoperator_cache is not None:
            return self._superoperator_cache
        dim = self._dim
        identity = np.eye(dim, dtype=complex)
        matrix = np.zeros((dim * dim, dim * dim), dtype=complex)
        if self._hamiltonian is not None:
            if self._time_dependent:
                h_full = self._hamiltonian.hamiltonian(t).matrix()
            else:
                h_full = self._hamiltonian.matrix()
            matrix += -1j * (np.kron(h_full, identity) - np.kron(identity, h_full.T))
        for jump in self._jumps:
            l_full = self._embed(jump.matrix, jump.qubits)
            normal_full = self._embed(jump._normal, jump.qubits)
            matrix += jump.rate * (
                np.kron(l_full, l_full.conj())
                - 0.5 * np.kron(normal_full, identity)
                - 0.5 * np.kron(identity, normal_full.T)
            )
        if not self._time_dependent:
            matrix.setflags(write=False)
            self._superoperator_cache = matrix
        return matrix

    def expm_evolve(self, rho0: np.ndarray, time: float) -> np.ndarray:
        """Closed-form evolution ``expm(t L) vec(rho0)`` (dense baseline).

        Only valid for a time-independent generator; this is the "naive
        dense ``expm``" oracle the structured integrator path is pinned
        against in tests and ``BENCH_dynamics.json``.
        """
        if self._time_dependent:
            raise ConfigurationError(
                "expm_evolve needs a time-independent generator; integrate "
                "time-dependent Hamiltonians with repro.dynamics.evolve"
            )
        from scipy.linalg import expm

        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (self._dim, self._dim):
            raise SimulationError(
                f"expected a ({self._dim}, {self._dim}) density matrix, "
                f"got shape {rho0.shape}"
            )
        propagator = expm(float(time) * self.superoperator())
        return (propagator @ rho0.reshape(-1)).reshape(self._dim, self._dim)

    def __repr__(self) -> str:
        return (
            f"Lindbladian(num_qubits={self._num_qubits}, "
            f"jumps={len(self._jumps)}, "
            f"hamiltonian={'None' if self._hamiltonian is None else 'set'}, "
            f"time_dependent={self._time_dependent})"
        )


__all__ = [
    "DENSE_SUPEROP_MAX_QUBITS",
    "JUMP_OPERATORS",
    "JumpOperator",
    "Lindbladian",
]
