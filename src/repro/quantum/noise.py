"""Trajectory-based Pauli noise and finite-shot measurement.

The exact simulator answers every cost-expectation query noiselessly and with
infinite precision — conditions no NISQ device provides.  This module adds
the two missing ingredients as a composable subsystem:

* **Pauli noise channels** (:class:`DepolarizingChannel`, :class:`BitFlip`,
  :class:`PhaseFlip`, :class:`AmplitudeDampingApprox`) attached to gates
  and/or qubits through a :class:`NoiseModel`.  Noise is simulated with
  *stochastic trajectories*: for each noisy run, one Pauli error pattern is
  sampled from the channel probabilities and inserted into the statevector
  evolution.  Averaging observables over trajectories converges to the
  density-matrix (Kraus) result for any Pauli channel, at statevector cost.
* **Finite-shot estimation** (:class:`ShotEstimator`): instead of reading
  ``<psi| H_C |psi>`` off the exact state, measurement outcomes are sampled
  from the state's probability distribution and the cut value is averaged
  over the shots — turning any exact backend into the noisy, budgeted oracle
  a real quantum processor presents to the classical optimizer.
* **Readout assignment errors** (:class:`ReadoutErrorModel`): per-qubit
  bit-flip confusion matrices corrupting the measured distribution, plus
  the standard confusion-matrix-inversion mitigation, both wired through
  :class:`ShotEstimator`.
* **General Kraus channels** (:class:`QuantumChannel`,
  :class:`AmplitudeDampingChannel`, and the joint two-qubit channels
  :class:`TwoQubitDepolarizingChannel` / :class:`CorrelatedPauliChannel`):
  non-Pauli channels that trajectories cannot represent; they are exact on
  the density-matrix path of
  :class:`~repro.quantum.density.DensityMatrixSimulator`, which also serves
  as the closed-form oracle every trajectory average is validated against.
  Every channel exposes its :meth:`~QuantumChannel.superoperator`, the
  building block of the PTM-compiled noisy path.

Both knobs plug into :class:`~repro.qaoa.cost.ExpectationEvaluator`
(``shots=...``, ``noise_model=...``) and from there into
:class:`~repro.qaoa.solver.QAOASolver` and the acceleration runners, which is
what makes the paper's "fewer quantum calls" claim measurable under realistic
conditions (see ``experiments/noise_robustness.py``).

Placement semantics
-------------------
Errors are attached *after* the gate that triggers them.  The generic
(``compiled=False``) simulator path inserts each sampled Pauli exactly there.
The compiled engine applies the errors at the boundary of the fused op
containing the gate, and the ``"fast"`` backend hands its trajectories to
that engine, so the two production backends realise the **same** noise model
(identical trajectories from a shared generator).  Boundary placement
coincides with per-instruction placement exactly when the error commutes
with the remainder of its fused op — true for every error attached to a
single-qubit GEMM block (H walls, RX mixers: the other gates act on other
qubits) — and is the standard segment-level coarse-graining otherwise (e.g.
an error attached to the opening CX of a CX·RZ·CX sandwich is conjugated
through the closing CX by the per-instruction path).  The compiled-program
cache is untouched either way: noise never recompiles a circuit.

Examples
--------
A depolarizing model sampled over a circuit's instruction stream:

>>> import numpy as np
>>> from repro.quantum.noise import DepolarizingChannel, NoiseModel
>>> model = NoiseModel().add_channel(DepolarizingChannel(0.1), gates=("cx",))
>>> stream = [("h", (0,)), ("cx", (0, 1)), ("rz", (1,))]
>>> errors = model.sample_errors(stream, rng=np.random.default_rng(1))
>>> all(index == 1 for index, _qubit, _pauli in errors)  # only after the CX
True

A certain bit-flip produces a deterministic error pattern:

>>> flip_all = NoiseModel().add_channel(BitFlip(1.0))
>>> flip_all.sample_errors(stream, rng=np.random.default_rng(0))
[(0, 0, 'X'), (1, 0, 'X'), (1, 1, 'X'), (2, 1, 'X')]

Finite-shot estimation of a diagonal observable is seed-deterministic:

>>> from repro.quantum.noise import ShotEstimator
>>> from repro.quantum.statevector import Statevector
>>> state = Statevector.uniform_superposition(2)
>>> diagonal = np.array([0.0, 1.0, 1.0, 2.0])
>>> first = ShotEstimator(diagonal, shots=100, rng=7).estimate(state)
>>> second = ShotEstimator(diagonal, shots=100, rng=7).estimate(state)
>>> first == second
True
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.quantum.statevector import Statevector
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.serialization import dumps_json

#: Default number of stochastic trajectories averaged per noisy estimate.
DEFAULT_TRAJECTORIES = 8

#: A sampled Pauli error: ``(operation_index, qubit, pauli)`` with *pauli*
#: one of ``"X"``, ``"Y"``, ``"Z"``, inserted *after* the indexed operation.
PauliError = Tuple[int, int, str]

_PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def apply_pauli(state: np.ndarray, qubit: int, pauli: str) -> np.ndarray:
    """Apply a single-qubit Pauli to an amplitude array, in place.

    *state* has the register dimension on its **last** axis (a ``(dim,)``
    vector or a batch of rows), matching the compiled engine's layouts.
    ``Y`` is applied as ``X`` then ``Z``, i.e. up to the global phase ``-i``,
    which no probability, expectation value, or sampled outcome can observe.
    Returns *state* for chaining.

    >>> import numpy as np
    >>> state = np.array([1.0 + 0j, 0.0])
    >>> apply_pauli(state, 0, "X")
    array([0.+0.j, 1.+0.j])
    """
    dim = state.shape[-1]
    if qubit < 0 or (1 << qubit) >= dim:
        raise SimulationError(f"qubit {qubit} out of range for dimension {dim}")
    if pauli not in ("X", "Y", "Z"):
        raise SimulationError(f"pauli must be 'X', 'Y' or 'Z', got {pauli!r}")
    view = state.reshape(state.shape[:-1] + (dim >> (qubit + 1), 2, 1 << qubit))
    if pauli in ("X", "Y"):
        upper = view[..., 0, :].copy()
        view[..., 0, :] = view[..., 1, :]
        view[..., 1, :] = upper
    if pauli in ("Z", "Y"):
        view[..., 1, :] *= -1.0
    return state


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

class QuantumChannel:
    """A CPTP map on one or more qubits, given by its Kraus operators.

    Base class of every noise channel.  Construction **validates trace
    preservation** (``sum_k K_k^dagger K_k = I``) so an inconsistent channel
    fails loudly at build time instead of producing silently unphysical
    states, and the operator list is frozen (read-only arrays) so the
    validated channel cannot drift afterwards.  All Kraus operators share
    one ``2^k x 2^k`` shape; :attr:`num_qubits` reports ``k``.

    Sub-classes fall into two families:

    * :class:`PauliChannel` and its presets — representable as stochastic
      statevector trajectories (:attr:`is_pauli` is True);
    * general Kraus channels such as :class:`AmplitudeDampingChannel` and
      the joint two-qubit channels (:class:`TwoQubitDepolarizingChannel`,
      :class:`CorrelatedPauliChannel`) — exact only on the density-matrix
      path of :class:`~repro.quantum.density.DensityMatrixSimulator`.

    >>> import numpy as np
    >>> channel = QuantumChannel([np.eye(2)], name="identity")
    >>> channel.is_pauli
    False
    >>> len(channel.kraus_operators())
    1
    >>> channel.num_qubits
    1
    """

    _KRAUS_ATOL = 1e-9

    def __init__(self, kraus: Sequence[np.ndarray], *, name: Optional[str] = None):
        operators = []
        dim: Optional[int] = None
        for operator in kraus:
            operator = np.array(operator, dtype=complex)
            if (
                operator.ndim != 2
                or operator.shape[0] != operator.shape[1]
                or operator.shape[0] < 2
                or operator.shape[0] & (operator.shape[0] - 1)
            ):
                raise ConfigurationError(
                    f"Kraus operators must be square with power-of-two "
                    f"dimension >= 2, got shape {operator.shape}"
                )
            if dim is None:
                dim = int(operator.shape[0])
            elif operator.shape[0] != dim:
                raise ConfigurationError(
                    f"all Kraus operators of a channel must share one shape; "
                    f"got {operator.shape} after ({dim}, {dim})"
                )
            if not np.all(np.isfinite(operator)):
                raise ConfigurationError("Kraus operators must be finite")
            operator.setflags(write=False)
            operators.append(operator)
        if not operators:
            raise ConfigurationError("a channel needs at least one Kraus operator")
        completeness = sum(k.conj().T @ k for k in operators)
        if not np.allclose(completeness, np.eye(dim), atol=self._KRAUS_ATOL):
            raise ConfigurationError(
                f"Kraus operators are not trace preserving: "
                f"sum K^dag K = {completeness}"
            )
        self._kraus: Tuple[np.ndarray, ...] = tuple(operators)
        self._dim = dim
        self._num_qubits = dim.bit_length() - 1
        self._name = name or type(self).__name__
        self._superoperator: Optional[np.ndarray] = None

    @property
    def name(self) -> str:
        """Display name of the channel."""
        return self._name

    @property
    def num_qubits(self) -> int:
        """Number of qubits the channel acts on **jointly**."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension the Kraus operators act on (``2^k``)."""
        return self._dim

    @property
    def is_pauli(self) -> bool:
        """Whether the channel is trajectory-samplable (Pauli insertions)."""
        return False

    def kraus_operators(self) -> List[np.ndarray]:
        """The channel's Kraus operators (cached, read-only arrays)."""
        return list(self._kraus)

    def superoperator(self) -> np.ndarray:
        """The channel as a matrix on ``vec(rho)``: ``sum_k K ⊗ conj(K)``.

        Uses the **row-major** vectorisation convention (``rho.reshape(-1)``
        flattens by rows), under which ``vec(K rho K^dag) =
        (K ⊗ conj(K)) vec(rho)`` — the form the PTM-compiled density path
        composes into per-instruction kernels.  Computed once and cached;
        the returned array is read-only.

        >>> s = BitFlip(1.0).superoperator()
        >>> s.shape
        (4, 4)
        """
        if self._superoperator is None:
            size = self._dim * self._dim
            matrix = np.zeros((size, size), dtype=complex)
            for operator in self._kraus:
                matrix += np.kron(operator, operator.conj())
            matrix.setflags(write=False)
            self._superoperator = matrix
        return self._superoperator

    def apply_to_density_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Exact (Kraus-map) action on a channel-sized density matrix.

        A ``2^k x 2^k`` reference implementation: the full-register
        :class:`~repro.quantum.density.DensityMatrix` path and the
        trajectory sampling are both validated against this map.
        """
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self._dim, self._dim):
            raise ConfigurationError(
                f"expected a {self._dim}x{self._dim} density matrix, "
                f"got {rho.shape}"
            )
        return sum(k @ rho @ k.conj().T for k in self._kraus)

    # -- continuous-time (Lindblad) correspondence -----------------------
    def lindblad_rates(self, duration: float = 1.0) -> Dict[str, float]:
        """Jump-operator rates whose time-*duration* semigroup equals this
        channel.

        **Convention.**  The channel is identified with ``exp(duration * D)``
        where ``D`` is a pure dissipator ``D[rho] = sum_j gamma_j (L_j rho
        L_j^dag - 1/2 {L_j^dag L_j, rho})`` over a fixed jump family, and
        the returned mapping is ``{jump_label: gamma_j}``:

        * Pauli channels use the Pauli jumps ``X``/``Y``/``Z``.  Writing
          ``lam_X = 1 - 2(p_y + p_z)`` (and cyclically) for the
          Pauli-transfer diagonal, the rates solve ``lam_X =
          exp(-2 (g_y + g_z) * duration)`` etc., so e.g.
          ``g_x = ln(lam_x / (lam_y * lam_z)) / (4 * duration)``.  Channels
          too strong to be a semigroup snapshot (any ``lam <= 0``, or a
          negative solved rate — outside the infinitely divisible family)
          raise :class:`~repro.exceptions.ConfigurationError`.
        * Amplitude damping uses the lowering jump ``sigma_minus`` with
          ``gamma_channel = 1 - exp(-g * duration)``.

        The pair round-trips: ``Channel.from_lindblad_rates(
        channel.lindblad_rates(dt), dt) == channel`` up to float precision.
        Subclasses with a known jump form override this; the base class has
        no canonical jump family and raises.
        """
        raise ConfigurationError(
            f"channel {self._name!r} has no known jump-operator form; "
            f"lindblad_rates() is defined for Pauli channels and "
            f"AmplitudeDampingChannel"
        )

    @staticmethod
    def from_lindblad_rates(
        rates: Mapping[str, float], duration: float = 1.0
    ) -> "QuantumChannel":
        """The discrete channel ``exp(duration * D)`` of a jump-rate table.

        Inverse of :meth:`lindblad_rates` (see there for the convention).
        ``rates`` maps jump labels to non-negative rates: Pauli labels
        (any subset of ``X``/``Y``/``Z``) build the integrated
        :class:`PauliChannel`; the single label ``sigma_minus`` builds the
        integrated :class:`AmplitudeDampingChannel`.  Mixing the two
        families has no closed channel form here and raises.

        >>> channel = QuantumChannel.from_lindblad_rates({"X": 0.3}, 2.0)
        >>> recovered = channel.lindblad_rates(2.0)
        >>> round(recovered["X"], 12)
        0.3
        """
        duration = float(duration)
        if not np.isfinite(duration) or duration <= 0.0:
            raise ConfigurationError(
                f"duration must be finite and > 0, got {duration}"
            )
        table: Dict[str, float] = {}
        for label, rate in rates.items():
            rate = float(rate)
            if not np.isfinite(rate) or rate < 0.0:
                raise ConfigurationError(
                    f"rate for jump {label!r} must be finite and >= 0, got {rate}"
                )
            table[str(label)] = rate
        if not table:
            return PauliChannel(0.0, 0.0, 0.0)
        pauli_labels = set(table) & {"X", "Y", "Z"}
        other_labels = set(table) - {"X", "Y", "Z"}
        if pauli_labels and other_labels:
            raise ConfigurationError(
                f"cannot mix Pauli jumps {sorted(pauli_labels)} with "
                f"{sorted(other_labels)} in one channel; build separate "
                f"channels or a Lindbladian"
            )
        if other_labels and other_labels != {"sigma_minus"}:
            raise ConfigurationError(
                f"unknown jump label(s) {sorted(other_labels)}; supported: "
                f"X, Y, Z, sigma_minus"
            )
        if other_labels:
            gamma = 1.0 - float(np.exp(-table["sigma_minus"] * duration))
            return AmplitudeDampingChannel(gamma)
        g = {label: table.get(label, 0.0) for label in "XYZ"}
        lam = {
            "X": float(np.exp(-2.0 * (g["Y"] + g["Z"]) * duration)),
            "Y": float(np.exp(-2.0 * (g["X"] + g["Z"]) * duration)),
            "Z": float(np.exp(-2.0 * (g["X"] + g["Y"]) * duration)),
        }
        px = max(0.0, (1.0 + lam["X"] - lam["Y"] - lam["Z"]) / 4.0)
        py = max(0.0, (1.0 - lam["X"] + lam["Y"] - lam["Z"]) / 4.0)
        pz = max(0.0, (1.0 - lam["X"] - lam["Y"] + lam["Z"]) / 4.0)
        return PauliChannel(px, py, pz)

    @staticmethod
    def from_lindblad_rate(
        jump: str, rate: float, duration: float = 1.0
    ) -> "QuantumChannel":
        """Single-jump convenience form of :meth:`from_lindblad_rates`."""
        return QuantumChannel.from_lindblad_rates({jump: rate}, duration)

    def to_dict(self) -> dict:
        """JSON-friendly form; rebuild with :func:`channel_from_dict`.

        The base form records the raw Kraus operators as nested
        ``[real, imag]`` pairs; the named subclasses override this with
        their compact parametric form (``probability``, ``gamma``, ...).
        """
        return {
            "type": "kraus",
            "name": self._name,
            "kraus": [
                [[float(entry.real), float(entry.imag)] for entry in operator.ravel()]
                for operator in self._kraus
            ],
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantumChannel):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(dumps_json(self.to_dict(), indent=0))

    def __repr__(self) -> str:
        return f"{self._name}(num_kraus={len(self._kraus)})"


class PauliChannel(QuantumChannel):
    """A single-qubit Pauli channel ``rho -> sum_P p_P P rho P``.

    Parameters
    ----------
    px, py, pz:
        Probabilities of inserting an ``X``, ``Y`` or ``Z`` error; the
        identity fires with probability ``1 - px - py - pz``.  Validated at
        construction: negative, non-finite, or ``> 1``-summing probabilities
        raise :class:`~repro.exceptions.ConfigurationError` immediately
        instead of silently mis-sampling later.
    name:
        Display name (defaults to the class name).

    The trajectory form samples **one** Pauli per application; averaging any
    observable over trajectories reproduces the Kraus-map result.  Every
    Pauli channel is unital (it fixes the maximally mixed state), which the
    test-suite checks through :meth:`apply_to_density_matrix`.

    >>> channel = PauliChannel(0.1, 0.0, 0.2)
    >>> round(channel.error_probability, 10)
    0.3
    >>> channel.pauli_probabilities()
    (0.1, 0.0, 0.2)
    """

    def __init__(self, px: float, py: float, pz: float, *, name: Optional[str] = None):
        probabilities = (float(px), float(py), float(pz))
        if not all(np.isfinite(p) for p in probabilities):
            raise ConfigurationError(
                f"Pauli probabilities must be finite, got {probabilities}"
            )
        if any(p < 0.0 for p in probabilities) or sum(probabilities) > 1.0 + 1e-12:
            raise ConfigurationError(
                f"Pauli probabilities must be non-negative and sum to <= 1, "
                f"got {probabilities}"
            )
        self._px, self._py, self._pz = probabilities
        self._cumulative = np.cumsum(probabilities)
        weights = (1.0 - sum(probabilities), *probabilities)
        super().__init__(
            [
                np.sqrt(weight) * _PAULI_MATRICES[label]
                for weight, label in zip(weights, "IXYZ")
                if weight > 0.0
            ],
            name=name,
        )

    @property
    def is_pauli(self) -> bool:
        """Pauli channels are always trajectory-samplable."""
        return True

    @property
    def error_probability(self) -> float:
        """Total probability that *any* Pauli error fires."""
        return self._px + self._py + self._pz

    def pauli_probabilities(self) -> Tuple[float, float, float]:
        """The ``(px, py, pz)`` error probabilities."""
        return (self._px, self._py, self._pz)

    def lindblad_rates(self, duration: float = 1.0) -> Dict[str, float]:
        """Pauli jump rates generating this channel over *duration*.

        See :meth:`QuantumChannel.lindblad_rates` for the convention.  Zero
        rates are dropped from the returned mapping, so the round trip
        through :meth:`QuantumChannel.from_lindblad_rates` is exact.

        >>> rates = DepolarizingChannel(0.03).lindblad_rates()
        >>> sorted(rates) == ["X", "Y", "Z"]
        True
        >>> restored = QuantumChannel.from_lindblad_rates(rates)
        >>> [round(p, 12) for p in restored.pauli_probabilities()]
        [0.01, 0.01, 0.01]
        """
        duration = float(duration)
        if not np.isfinite(duration) or duration <= 0.0:
            raise ConfigurationError(
                f"duration must be finite and > 0, got {duration}"
            )
        lam = {
            "X": 1.0 - 2.0 * (self._py + self._pz),
            "Y": 1.0 - 2.0 * (self._px + self._pz),
            "Z": 1.0 - 2.0 * (self._px + self._py),
        }
        if any(value <= 0.0 for value in lam.values()):
            raise ConfigurationError(
                f"channel {self._name!r} with probabilities "
                f"{self.pauli_probabilities()} has a non-positive Pauli-"
                f"transfer eigenvalue {lam}; it is not exp(t*D) for any "
                f"Pauli dissipator and has no Lindblad-rate form"
            )
        log = {key: float(np.log(value)) for key, value in lam.items()}
        rates = {
            "X": (log["X"] - log["Y"] - log["Z"]) / (4.0 * duration),
            "Y": (log["Y"] - log["X"] - log["Z"]) / (4.0 * duration),
            "Z": (log["Z"] - log["X"] - log["Y"]) / (4.0 * duration),
        }
        tolerance = 1e-12 / duration
        for label, rate in rates.items():
            if rate < -tolerance:
                raise ConfigurationError(
                    f"channel {self._name!r} needs a negative {label} jump "
                    f"rate ({rate:.3e}); it lies outside the infinitely "
                    f"divisible Pauli-channel family"
                )
        return {
            label: max(0.0, rate) for label, rate in rates.items() if rate > tolerance
        }

    def sample(self, rng: RandomState = None) -> Optional[str]:
        """Draw one error: ``"X"``/``"Y"``/``"Z"``, or ``None`` (no error)."""
        return self.sample_from_uniform(float(ensure_rng(rng).random()))

    def sample_from_uniform(self, uniform: float) -> Optional[str]:
        """Map a uniform draw in ``[0, 1)`` onto the channel's error table.

        Factored out of :meth:`sample` so a :class:`NoiseModel` can consume
        one shared stream of uniforms (making error patterns reproducible
        across execution backends).
        """
        if uniform >= self._cumulative[2]:
            return None
        if uniform < self._cumulative[0]:
            return "X"
        if uniform < self._cumulative[1]:
            return "Y"
        return "Z"

    def to_dict(self) -> dict:
        """Compact parametric form (``px``/``py``/``pz``)."""
        return {
            "type": "pauli",
            "name": self._name,
            "px": self._px,
            "py": self._py,
            "pz": self._pz,
        }

    def __repr__(self) -> str:
        return (
            f"{self._name}(px={self._px:.4g}, py={self._py:.4g}, pz={self._pz:.4g})"
        )


class DepolarizingChannel(PauliChannel):
    """Symmetric depolarizing noise: each Pauli fires with ``p / 3``.

    >>> DepolarizingChannel(0.03).pauli_probabilities()
    (0.01, 0.01, 0.01)
    """

    def __init__(self, probability: float):
        share = float(probability) / 3.0
        super().__init__(share, share, share)
        self._probability = float(probability)

    @property
    def probability(self) -> float:
        """The total depolarizing probability ``p``."""
        return self._probability

    def to_dict(self) -> dict:
        return {"type": "depolarizing", "probability": self._probability}


class BitFlip(PauliChannel):
    """Classical bit-flip noise: ``X`` with probability ``p``."""

    def __init__(self, probability: float):
        super().__init__(float(probability), 0.0, 0.0)

    def to_dict(self) -> dict:
        return {"type": "bit_flip", "probability": self._px}


class PhaseFlip(PauliChannel):
    """Dephasing noise: ``Z`` with probability ``p``."""

    def __init__(self, probability: float):
        super().__init__(0.0, 0.0, float(probability))

    def to_dict(self) -> dict:
        return {"type": "phase_flip", "probability": self._pz}


class AmplitudeDampingApprox(PauliChannel):
    """Pauli-twirl approximation of amplitude damping with rate ``gamma``.

    True amplitude damping is not a Pauli channel (it is not even unital) and
    cannot be simulated by Pauli statevector trajectories; its Pauli twirl
    can, with the standard probabilities ``px = py = gamma / 4`` and
    ``pz = (2 - gamma - 2 sqrt(1 - gamma)) / 4``.  The twirled channel has
    the same Pauli-transfer diagonal as the exact one.
    """

    def __init__(self, gamma: float):
        gamma = float(gamma)
        if not 0.0 <= gamma <= 1.0:
            raise ConfigurationError(f"gamma must lie in [0, 1], got {gamma}")
        quarter = gamma / 4.0
        pz = (2.0 - gamma - 2.0 * np.sqrt(1.0 - gamma)) / 4.0
        super().__init__(quarter, quarter, pz)
        self._gamma = gamma

    @property
    def gamma(self) -> float:
        """The damping rate being approximated."""
        return self._gamma

    def to_dict(self) -> dict:
        return {"type": "amplitude_damping_approx", "gamma": self._gamma}


class AmplitudeDampingChannel(QuantumChannel):
    """True (non-twirled) amplitude damping with rate ``gamma``.

    The exact energy-relaxation channel with Kraus operators

    .. math::

        K_0 = \\begin{pmatrix} 1 & 0 \\\\ 0 & \\sqrt{1-\\gamma} \\end{pmatrix},
        \\qquad
        K_1 = \\begin{pmatrix} 0 & \\sqrt{\\gamma} \\\\ 0 & 0 \\end{pmatrix}.

    It is **not** a Pauli channel (it is not even unital: it drives every
    state towards ``|0>``), so it cannot be sampled as Pauli statevector
    trajectories — attaching it to a :class:`NoiseModel` restricts that
    model to the exact density-matrix path
    (:class:`~repro.quantum.density.DensityMatrixSimulator`).  The Pauli
    twirl :class:`AmplitudeDampingApprox` remains the trajectory-friendly
    surrogate with the same Pauli-transfer diagonal.

    >>> channel = AmplitudeDampingChannel(0.2)
    >>> channel.is_pauli
    False
    >>> len(channel.kraus_operators())
    2
    """

    def __init__(self, gamma: float):
        gamma = float(gamma)
        if not 0.0 <= gamma <= 1.0:
            raise ConfigurationError(f"gamma must lie in [0, 1], got {gamma}")
        damp = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
        jump = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
        super().__init__([damp, jump] if gamma > 0.0 else [damp])
        self._gamma = gamma

    @property
    def gamma(self) -> float:
        """The damping rate."""
        return self._gamma

    def lindblad_rates(self, duration: float = 1.0) -> Dict[str, float]:
        """The ``sigma_minus`` jump rate generating this channel.

        The semigroup relation is ``gamma = 1 - exp(-rate * duration)``, so
        every ``gamma < 1`` has an exact rate form; ``gamma = 1`` (complete
        relaxation) would need an infinite rate and raises.

        >>> rates = AmplitudeDampingChannel(0.2).lindblad_rates()
        >>> restored = QuantumChannel.from_lindblad_rates(rates)
        >>> round(restored.gamma, 12)
        0.2
        """
        duration = float(duration)
        if not np.isfinite(duration) or duration <= 0.0:
            raise ConfigurationError(
                f"duration must be finite and > 0, got {duration}"
            )
        if self._gamma >= 1.0:
            raise ConfigurationError(
                "gamma = 1 (complete relaxation) is not exp(t*D) for any "
                "finite sigma_minus rate"
            )
        if self._gamma == 0.0:
            return {}
        return {"sigma_minus": float(-np.log1p(-self._gamma)) / duration}

    def to_dict(self) -> dict:
        return {"type": "amplitude_damping", "gamma": self._gamma}

    def __repr__(self) -> str:
        return f"{self._name}(gamma={self._gamma:.4g})"


class CorrelatedPauliChannel(QuantumChannel):
    """A two-qubit Pauli channel with **joint** (correlated) probabilities.

    Unlike attaching two independent single-qubit channels, the errors here
    fire together: with probability ``probabilities["XX"]`` both operand
    qubits suffer an ``X`` in the *same* trajectory, and so on for every
    two-letter Pauli label.  Such correlations arise from crosstalk during
    entangling gates and cannot be factored into per-qubit channels, so the
    channel is exact only on the density-matrix path — attaching it to a
    :class:`NoiseModel` restricts that model to
    :class:`~repro.quantum.density.DensityMatrixSimulator` (trajectory
    sampling raises :class:`~repro.exceptions.ConfigurationError`).

    The first letter of each label acts on the **first** operand qubit of
    the gate the channel fires on (most significant in the two-qubit basis,
    matching the gate-registry convention).

    >>> channel = CorrelatedPauliChannel({"XX": 0.05, "ZZ": 0.02})
    >>> channel.num_qubits
    2
    >>> round(channel.error_probability, 10)
    0.07
    """

    def __init__(self, probabilities, *, name: Optional[str] = None):
        table = {}
        for label, probability in dict(probabilities).items():
            label = str(label).upper()
            if len(label) != 2 or any(c not in _PAULI_MATRICES for c in label):
                raise ConfigurationError(
                    f"correlated-Pauli labels are two-letter strings over "
                    f"I/X/Y/Z, got {label!r}"
                )
            if label == "II":
                raise ConfigurationError(
                    "the identity share is implicit (1 - sum of the error "
                    "probabilities); do not list 'II'"
                )
            probability = float(probability)
            if not np.isfinite(probability) or probability < 0.0:
                raise ConfigurationError(
                    f"probability of {label!r} must be a finite non-negative "
                    f"number, got {probability}"
                )
            if probability > 0.0:
                table[label] = table.get(label, 0.0) + probability
        total = sum(table.values())
        if total > 1.0 + 1e-12:
            raise ConfigurationError(
                f"correlated-Pauli probabilities must sum to <= 1, "
                f"got {total}"
            )
        self._table = {label: table[label] for label in sorted(table)}
        kraus = []
        identity_weight = max(0.0, 1.0 - total)
        if identity_weight > 0.0:
            kraus.append(np.sqrt(identity_weight) * np.eye(4, dtype=complex))
        for label, probability in self._table.items():
            matrix = np.kron(_PAULI_MATRICES[label[0]], _PAULI_MATRICES[label[1]])
            kraus.append(np.sqrt(probability) * matrix)
        super().__init__(kraus, name=name)

    @property
    def error_probability(self) -> float:
        """Total probability that *any* joint error fires."""
        return sum(self._table.values())

    def joint_probabilities(self) -> dict:
        """The ``{label: probability}`` table of non-zero joint errors."""
        return dict(self._table)

    def to_dict(self) -> dict:
        return {
            "type": "correlated_pauli",
            "name": self._name,
            "probabilities": {k: float(v) for k, v in self._table.items()},
        }

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v:.4g}" for k, v in self._table.items())
        return f"{self._name}({shown or 'identity'})"


class TwoQubitDepolarizingChannel(CorrelatedPauliChannel):
    """Symmetric two-qubit depolarizing noise on an entangling gate.

    Each of the 15 non-identity two-qubit Pauli pairs fires jointly with
    probability ``p / 15`` — the standard model of entangling-gate error,
    and *not* expressible as independent per-qubit channels.  Exact only on
    the density-matrix path (see :class:`CorrelatedPauliChannel`).

    >>> channel = TwoQubitDepolarizingChannel(0.15)
    >>> len(channel.kraus_operators())
    16
    >>> round(channel.joint_probabilities()["XY"], 10)
    0.01
    """

    def __init__(self, probability: float):
        probability = float(probability)
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"probability must lie in [0, 1], got {probability}"
            )
        share = probability / 15.0
        labels = [a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"]
        super().__init__(
            {label: share for label in labels} if probability > 0.0 else {}
        )
        self._probability = probability

    @property
    def probability(self) -> float:
        """The total two-qubit depolarizing probability ``p``."""
        return self._probability

    def to_dict(self) -> dict:
        return {"type": "two_qubit_depolarizing", "probability": self._probability}

    def __repr__(self) -> str:
        return f"{self._name}(probability={self._probability:.4g})"


def channel_from_dict(data: dict) -> QuantumChannel:
    """Rebuild a channel from its :meth:`QuantumChannel.to_dict` form.

    >>> channel_from_dict(DepolarizingChannel(0.03).to_dict())
    DepolarizingChannel(px=0.01, py=0.01, pz=0.01)
    """
    kind = data.get("type")
    if kind == "depolarizing":
        return DepolarizingChannel(data["probability"])
    if kind == "bit_flip":
        return BitFlip(data["probability"])
    if kind == "phase_flip":
        return PhaseFlip(data["probability"])
    if kind == "amplitude_damping_approx":
        return AmplitudeDampingApprox(data["gamma"])
    if kind == "amplitude_damping":
        return AmplitudeDampingChannel(data["gamma"])
    if kind == "pauli":
        return PauliChannel(
            data["px"], data["py"], data["pz"], name=data.get("name")
        )
    if kind == "two_qubit_depolarizing":
        return TwoQubitDepolarizingChannel(data["probability"])
    if kind == "correlated_pauli":
        return CorrelatedPauliChannel(
            data["probabilities"], name=data.get("name")
        )
    if kind == "kraus":
        operators = []
        for flat in data["kraus"]:
            entries = np.array(
                [complex(real, imag) for real, imag in flat], dtype=complex
            )
            side = int(round(np.sqrt(entries.size)))
            operators.append(entries.reshape(side, side))
        return QuantumChannel(operators, name=data.get("name"))
    raise ConfigurationError(f"unknown channel type {kind!r}")


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------

class _NoiseRule:
    """One attachment: a channel plus gate-name / qubit / arity filters."""

    __slots__ = ("channel", "gates", "qubits", "arity")

    def __init__(self, channel, gates, qubits, arity):
        self.channel = channel
        self.gates = None if gates is None else frozenset(gates)
        self.qubits = None if qubits is None else frozenset(int(q) for q in qubits)
        self.arity = None if arity is None else int(arity)

    def targets(self, name: str, qubits: Sequence[int]) -> Tuple[int, ...]:
        """The operand qubits of ``(name, qubits)`` this rule fires on."""
        if self.gates is not None and name not in self.gates:
            return ()
        if self.arity is not None and len(qubits) != self.arity:
            return ()
        if self.qubits is None:
            return tuple(qubits)
        return tuple(q for q in qubits if q in self.qubits)

    def exact_targets(
        self, name: str, qubits: Sequence[int]
    ) -> Tuple[Tuple[int, ...], ...]:
        """Operand tuples this rule fires on, one per channel application.

        A single-qubit channel fires independently on each matched operand
        (the :meth:`targets` semantics); a ``k``-qubit channel fires
        **jointly** on the full operand tuple of a matching ``k``-operand
        gate.  Placement validation: a rule whose explicit ``gates=`` filter
        names a gate that cannot host the channel (operand count differs
        from the channel width) raises
        :class:`~repro.exceptions.ConfigurationError` at match time rather
        than silently dropping the channel.
        """
        width = self.channel.num_qubits
        if width == 1:
            return tuple((int(q),) for q in self.targets(name, qubits))
        if self.gates is not None and name not in self.gates:
            return ()
        if self.arity is not None and len(qubits) != self.arity:
            return ()
        if len(qubits) != width:
            if self.gates is not None:
                raise ConfigurationError(
                    f"channel {self.channel.name!r} acts jointly on {width} "
                    f"qubits but gate {name!r} has {len(qubits)} operand(s); "
                    f"the rule's gates= filter places it where it cannot fire"
                )
            return ()
        if self.qubits is not None and not all(q in self.qubits for q in qubits):
            return ()
        return (tuple(int(q) for q in qubits),)


class NoiseModel:
    """Composable per-gate / per-qubit attachment of Pauli channels.

    Channels are attached through :meth:`add_channel` with optional filters;
    a gate operation matches a rule when its name is in *gates* (``None`` =
    every gate), its operand count equals *arity* (``None`` = any), and the
    error then fires independently on each operand qubit in *qubits*
    (``None`` = all operands).  Rules compose: several channels may fire on
    the same gate.

    >>> model = (
    ...     NoiseModel()
    ...     .add_channel(DepolarizingChannel(0.01), arity=2)   # 2-qubit gates
    ...     .add_channel(PhaseFlip(0.001), qubits=(0,))        # a bad qubit
    ... )
    >>> model.num_rules
    2
    """

    def __init__(self):
        self._rules: List[_NoiseRule] = []
        self._version = 0

    # -- construction ----------------------------------------------------
    def add_channel(
        self,
        channel: QuantumChannel,
        *,
        gates: Optional[Iterable[str]] = None,
        qubits: Optional[Iterable[int]] = None,
        arity: Optional[int] = None,
    ) -> "NoiseModel":
        """Attach *channel* with the given filters; returns ``self``.

        Any :class:`QuantumChannel` is accepted; attaching a non-Pauli
        channel (e.g. :class:`AmplitudeDampingChannel`) restricts the model
        to the exact density-matrix path — trajectory sampling through
        :meth:`sample_errors` then raises.  A multi-qubit channel fires
        jointly on gates whose operand count matches its width; an
        ``arity=`` filter contradicting that width is rejected here.
        """
        if not isinstance(channel, QuantumChannel):
            raise ConfigurationError(
                f"channel must be a QuantumChannel, got {type(channel).__name__}"
            )
        if (
            channel.num_qubits > 1
            and arity is not None
            and int(arity) != channel.num_qubits
        ):
            raise ConfigurationError(
                f"channel {channel.name!r} acts jointly on "
                f"{channel.num_qubits} qubits; arity={arity} can never match"
            )
        self._rules.append(_NoiseRule(channel, gates, qubits, arity))
        self._version += 1
        return self

    def add_gate_noise(self, channel: QuantumChannel, gates: Iterable[str]) -> "NoiseModel":
        """Attach *channel* to every operand qubit of the named gates."""
        return self.add_channel(channel, gates=gates)

    def add_qubit_noise(self, channel: QuantumChannel, qubits: Iterable[int]) -> "NoiseModel":
        """Attach *channel* to the listed qubits after every gate touching them."""
        return self.add_channel(channel, qubits=qubits)

    @classmethod
    def uniform_depolarizing(
        cls, probability_1q: float, probability_2q: Optional[float] = None
    ) -> "NoiseModel":
        """Depolarizing noise on every gate, per operand qubit.

        Single-qubit gates depolarize with *probability_1q*; two-qubit gates
        with *probability_2q* (default: ``10 * probability_1q``, the typical
        hardware ratio between entangling- and single-qubit-gate error
        rates, capped at 1).
        """
        if probability_2q is None:
            probability_2q = min(1.0, 10.0 * float(probability_1q))
        model = cls()
        if probability_1q > 0.0:
            model.add_channel(DepolarizingChannel(probability_1q), arity=1)
        if probability_2q > 0.0:
            model.add_channel(DepolarizingChannel(probability_2q), arity=2)
        return model

    # -- introspection ---------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone counter bumped by every mutation.

        Mirrors :attr:`repro.quantum.circuit.QuantumCircuit.version`: caches
        keyed on ``(id(model), model.version)`` cannot serve a compiled
        kernel built before a later :meth:`add_channel`.
        """
        return self._version

    @property
    def num_rules(self) -> int:
        """Number of attachment rules."""
        return len(self._rules)

    @property
    def max_channel_qubits(self) -> int:
        """Widest channel width attached (0 for an empty model)."""
        if not self._rules:
            return 0
        return max(rule.channel.num_qubits for rule in self._rules)

    @property
    def is_empty(self) -> bool:
        """Whether the model attaches no channels at all."""
        return not self._rules

    @property
    def is_pauli_only(self) -> bool:
        """Whether every attached channel is trajectory-samplable."""
        return all(rule.channel.is_pauli for rule in self._rules)

    def _require_pauli_only(self) -> None:
        # Multi-qubit (joint) channels are a configuration problem, not a
        # runtime one: no trajectory or statevector mode can ever realise
        # them, so they surface as ConfigurationError with the fix spelled
        # out.  Single-qubit non-Pauli channels keep the historical
        # SimulationError (the mode exists, the channel just is not
        # trajectory-samplable).
        joint = sorted(
            {
                rule.channel.name
                for rule in self._rules
                if rule.channel.num_qubits > 1
            }
        )
        if joint:
            raise ConfigurationError(
                f"channels {joint} act jointly on multiple qubits and can "
                f"only be realised on the exact density-matrix path; run "
                f"with ExecutionContext(density=True) or "
                f"DensityMatrixSimulator instead of trajectory sampling"
            )
        offenders = sorted(
            {rule.channel.name for rule in self._rules if not rule.channel.is_pauli}
        )
        if offenders:
            raise SimulationError(
                f"channels {offenders} are not Pauli channels and cannot be "
                f"sampled as statevector trajectories; run this model through "
                f"the exact DensityMatrixSimulator instead"
            )

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-friendly form recording every rule; see :meth:`from_dict`."""
        return {
            "rules": [
                {
                    "channel": rule.channel.to_dict(),
                    "gates": None if rule.gates is None else sorted(rule.gates),
                    "qubits": None if rule.qubits is None else sorted(rule.qubits),
                    "arity": rule.arity,
                }
                for rule in self._rules
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseModel":
        """Rebuild a model from :meth:`to_dict` output.

        A payload that is not a mapping, or a rule that is not a mapping
        with a well-formed ``channel``, raises
        :class:`~repro.exceptions.ConfigurationError`.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"noise model payload must be a mapping, got {type(data).__name__}"
            )
        model = cls()
        for rule in data.get("rules", ()):
            try:
                channel = channel_from_dict(rule["channel"])
                filters = {key: rule.get(key) for key in ("gates", "qubits", "arity")}
            except (KeyError, TypeError, AttributeError) as exc:
                raise ConfigurationError(f"malformed noise rule {rule!r}: {exc!r}") from None
            model.add_channel(channel, **filters)
        return model

    def __eq__(self, other) -> bool:
        if not isinstance(other, NoiseModel):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    # Mutable (add_channel) with content equality: unhashable by convention.
    __hash__ = None

    def __repr__(self) -> str:
        if not self._rules:
            return "NoiseModel(empty)"
        shown = ", ".join(repr(rule.channel) for rule in self._rules[:3])
        if len(self._rules) > 3:
            shown += f", ... +{len(self._rules) - 3} more"
        return f"NoiseModel(num_rules={len(self._rules)}, channels=[{shown}])"

    # -- sampling --------------------------------------------------------
    @staticmethod
    def _operation(operation) -> Tuple[str, Sequence[int]]:
        if isinstance(operation, tuple):
            name, qubits = operation
            return name, qubits
        return operation.name, operation.qubits

    def sample_errors(self, operations, rng: RandomState = None) -> List[PauliError]:
        """Sample one Pauli error pattern over an operation stream.

        *operations* is any iterable of gate operations — circuit
        :class:`~repro.quantum.circuit.Instruction` objects or plain
        ``(name, qubits)`` tuples.  For each operation, every matching rule
        draws one uniform per targeted qubit, in rule order; the resulting
        pattern is a list of :data:`PauliError` triples sorted by operation
        index.  The draw order depends only on the model and the stream, so
        the same stream and generator state always give the same pattern.
        """
        if not self._rules:
            return []
        self._require_pauli_only()
        generator = ensure_rng(rng)
        errors: List[PauliError] = []
        for index, operation in enumerate(operations):
            name, qubits = self._operation(operation)
            for rule in self._rules:
                for qubit in rule.targets(name, qubits):
                    pauli = rule.channel.sample_from_uniform(float(generator.random()))
                    if pauli is not None:
                        errors.append((index, int(qubit), pauli))
        return errors

    def expected_error_count(self, operations) -> float:
        """Mean number of Pauli insertions per trajectory over a stream."""
        self._require_pauli_only()
        total = 0.0
        for operation in operations:
            name, qubits = self._operation(operation)
            for rule in self._rules:
                total += rule.channel.error_probability * len(rule.targets(name, qubits))
        return total

    def exact_channels_for(self, name: str, qubits: Sequence[int]):
        """Yield every ``(channel, operand_tuple)`` firing on one operation.

        The exact counterpart of :meth:`sample_errors`: the density-matrix
        simulator applies each yielded channel's Kraus map to the yielded
        operand tuple, in the **same rule-major order** the trajectory
        sampler draws its uniforms, so the two paths realise the same
        per-instruction anchors.  Single-qubit channels yield one
        ``(channel, (qubit,))`` pair per matched operand; ``k``-qubit
        channels yield the full operand tuple of a matching gate (see
        :meth:`_NoiseRule.exact_targets` for the placement validation).
        """
        for rule in self._rules:
            for target in rule.exact_targets(name, qubits):
                yield rule.channel, target


# ---------------------------------------------------------------------------
# Readout (assignment) errors and their mitigation
# ---------------------------------------------------------------------------

class ReadoutErrorModel:
    """Per-qubit measurement assignment errors and their inversion.

    Models the classical bit-flip noise of the readout stage: qubit ``q``
    reads ``1`` when it was ``0`` with probability ``p0_to_1[q]`` and reads
    ``0`` when it was ``1`` with probability ``p1_to_0[q]``, independently
    across qubits.  The single-qubit assignment (confusion) matrix is
    column-stochastic::

        A_q = [[1 - p0_to_1, p1_to_0],
               [p0_to_1,     1 - p1_to_0]]   # A[measured, true]

    and the full register confusion matrix is the Kronecker product over
    qubits.  :meth:`apply` pushes a true outcome distribution through the
    confusion matrices (one strided pass per qubit — the full ``4^n`` matrix
    is never built); :meth:`mitigate` applies the standard
    confusion-matrix-inversion mitigation, which **exactly** recovers the
    true distribution in the infinite-shot limit and is the unbiased linear
    estimator at finite shots (where it may return quasi-probabilities with
    small negative entries — pass ``clip=True`` to project back onto the
    simplex when a proper distribution is required).

    >>> import numpy as np
    >>> readout = ReadoutErrorModel(2, p0_to_1=0.1, p1_to_0=0.05)
    >>> true = np.array([0.5, 0.0, 0.0, 0.5])
    >>> corrupted = readout.apply(true)
    >>> bool(np.allclose(readout.mitigate(corrupted), true))
    True
    """

    def __init__(self, num_qubits: int, *, p0_to_1=0.0, p1_to_0=0.0):
        if num_qubits < 1:
            raise ConfigurationError(f"num_qubits must be >= 1, got {num_qubits}")
        self._num_qubits = int(num_qubits)
        self._p0_to_1 = self._broadcast("p0_to_1", p0_to_1)
        self._p1_to_0 = self._broadcast("p1_to_0", p1_to_0)
        # Per-qubit inverse assignment matrices, built on first mitigate()
        # (lazily, so apply-only use of a singular model stays legal).
        self._inverses: Optional[List[np.ndarray]] = None

    def _broadcast(self, label: str, values) -> np.ndarray:
        array = np.asarray(values, dtype=float).reshape(-1)
        if array.size == 1:
            array = np.full(self._num_qubits, float(array[0]))
        if array.size != self._num_qubits:
            raise ConfigurationError(
                f"{label} must be a scalar or one value per qubit "
                f"({self._num_qubits}), got {array.size}"
            )
        if not np.all(np.isfinite(array)) or np.any(array < 0.0) or np.any(array > 1.0):
            raise ConfigurationError(
                f"{label} entries must be probabilities in [0, 1], got {array}"
            )
        return array

    # -- introspection ---------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Register size the model describes."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Length of the outcome distributions (``2**num_qubits``)."""
        return 1 << self._num_qubits

    @property
    def is_trivial(self) -> bool:
        """Whether every assignment is perfect (no corruption at all)."""
        return not (self._p0_to_1.any() or self._p1_to_0.any())

    def flip_probabilities(self, qubit: int) -> Tuple[float, float]:
        """The ``(p0_to_1, p1_to_0)`` pair of one qubit."""
        return (float(self._p0_to_1[qubit]), float(self._p1_to_0[qubit]))

    def assignment_matrix(self, qubit: int) -> np.ndarray:
        """The 2x2 column-stochastic confusion matrix ``A[measured, true]``."""
        a, b = self.flip_probabilities(qubit)
        return np.array([[1.0 - a, b], [a, 1.0 - b]], dtype=float)

    def confusion_matrix(self) -> np.ndarray:
        """The full ``2^n x 2^n`` confusion matrix (small registers only)."""
        if self._num_qubits > 12:
            raise ConfigurationError(
                "the dense confusion matrix is limited to 12 qubits; "
                "use apply()/mitigate() which never build it"
            )
        matrix = np.ones((1, 1), dtype=float)
        for qubit in range(self._num_qubits - 1, -1, -1):
            matrix = np.kron(matrix, self.assignment_matrix(qubit))
        return matrix

    def to_dict(self) -> dict:
        """JSON-friendly form; rebuild with :meth:`from_dict`."""
        return {
            "num_qubits": self._num_qubits,
            "p0_to_1": [float(p) for p in self._p0_to_1],
            "p1_to_0": [float(p) for p in self._p1_to_0],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReadoutErrorModel":
        """Rebuild a readout model from :meth:`to_dict` output."""
        return cls(
            data["num_qubits"],
            p0_to_1=data.get("p0_to_1", 0.0),
            p1_to_0=data.get("p1_to_0", 0.0),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReadoutErrorModel):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(dumps_json(self.to_dict(), indent=0))

    def __repr__(self) -> str:
        return (
            f"ReadoutErrorModel(num_qubits={self._num_qubits}, "
            f"mean_p0_to_1={float(self._p0_to_1.mean()):.4g}, "
            f"mean_p1_to_0={float(self._p1_to_0.mean()):.4g})"
        )

    # -- application -----------------------------------------------------
    def _transform(self, probabilities: np.ndarray, matrices) -> np.ndarray:
        result = np.array(probabilities, dtype=float)
        if result.shape[-1] != self.dim:
            raise SimulationError(
                f"distribution length {result.shape[-1]} does not match the "
                f"{self._num_qubits}-qubit readout model"
            )
        for qubit, matrix in enumerate(matrices):
            view = result.reshape(
                result.shape[:-1] + (self.dim >> (qubit + 1), 2, 1 << qubit)
            )
            zero = view[..., 0, :].copy()
            one = view[..., 1, :]
            view[..., 0, :] = matrix[0, 0] * zero + matrix[0, 1] * one
            view[..., 1, :] = matrix[1, 0] * zero + matrix[1, 1] * one
        return result

    def apply(self, probabilities: np.ndarray) -> np.ndarray:
        """Corrupt a true outcome distribution into the measured one.

        *probabilities* has the outcome dimension on its **last** axis (a
        ``(dim,)`` vector or stacked rows); returns a new array.
        """
        return self._transform(
            probabilities,
            (self.assignment_matrix(q) for q in range(self._num_qubits)),
        )

    def mitigate(self, probabilities: np.ndarray, *, clip: bool = False) -> np.ndarray:
        """Invert the confusion matrices on a measured distribution.

        The inverse is applied qubit by qubit (each 2x2 inverse, never the
        dense ``2^n`` inverse); the inverses are computed once and cached on
        the (immutable) model.  Raises
        :class:`~repro.exceptions.SimulationError` when a qubit's assignment
        matrix is singular (``p0_to_1 + p1_to_0 == 1``: the readout carries
        no information about that qubit).
        """
        if self._inverses is None:
            inverses = []
            for qubit in range(self._num_qubits):
                matrix = self.assignment_matrix(qubit)
                determinant = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
                if abs(determinant) < 1e-12:
                    raise SimulationError(
                        f"assignment matrix of qubit {qubit} is singular "
                        f"(p0_to_1 + p1_to_0 = 1); mitigation is impossible"
                    )
                inverses.append(np.linalg.inv(matrix))
            self._inverses = inverses
        mitigated = self._transform(probabilities, self._inverses)
        if clip:
            mitigated = np.clip(mitigated, 0.0, None)
            totals = mitigated.sum(axis=-1, keepdims=True)
            # A distribution clipped to all-zeros cannot be renormalised;
            # it cannot occur from mitigate(apply(p)) of a distribution.
            mitigated = mitigated / np.where(totals == 0.0, 1.0, totals)
        return mitigated


# ---------------------------------------------------------------------------
# Finite-shot estimation
# ---------------------------------------------------------------------------

class ShotEstimator:
    """Finite-shot estimator of a diagonal observable.

    Replaces the exact ``<psi| H |psi>`` readout by the sample mean over
    *shots* measured bit-strings — the estimate a real device returns for a
    given shot budget.  The estimator is seed-deterministic (same generator
    state, same estimate) and its standard error is
    ``sqrt(Var[h(x)] / shots)`` with ``h`` the observable diagonal, which
    the statistical test-suite checks at 3 sigma.

    Parameters
    ----------
    diagonal:
        Observable diagonal indexed by computational basis state (for MaxCut,
        the cut-value table — see
        :meth:`~repro.graphs.maxcut.MaxCutProblem.cost_diagonal`).
    shots:
        Number of measurement samples per estimate.
    rng:
        Seed or generator consumed by every estimate.
    readout_error:
        Optional :class:`ReadoutErrorModel`: measurement outcomes are drawn
        from the **corrupted** distribution, as a real device reports them.
        ``None`` (default) keeps the sampling bit-identical to before.
    mitigate_readout:
        Apply confusion-matrix-inversion mitigation to the sampled counts
        before reducing them against the diagonal (requires
        *readout_error*).  The mitigated estimator is unbiased: it recovers
        the true expectation exactly in the infinite-shot limit.

    >>> import numpy as np
    >>> from repro.quantum.statevector import Statevector
    >>> estimator = ShotEstimator(np.array([0.0, 1.0]), shots=50, rng=3)
    >>> estimate = estimator.estimate(Statevector.uniform_superposition(1))
    >>> 0.0 <= estimate <= 1.0 and estimator.shots_used == 50
    True
    """

    def __init__(
        self,
        diagonal: np.ndarray,
        shots: int,
        *,
        rng: RandomState = None,
        readout_error: Optional[ReadoutErrorModel] = None,
        mitigate_readout: bool = False,
    ):
        diagonal = np.asarray(diagonal, dtype=float).reshape(-1)
        if diagonal.size == 0 or diagonal.size & (diagonal.size - 1):
            raise ConfigurationError(
                f"diagonal length must be a power of two, got {diagonal.size}"
            )
        if shots < 1:
            raise ConfigurationError(f"shots must be >= 1, got {shots}")
        if mitigate_readout and readout_error is None:
            raise ConfigurationError(
                "mitigate_readout requires a readout_error model"
            )
        if readout_error is not None and readout_error.dim != diagonal.size:
            raise ConfigurationError(
                f"readout model covers {readout_error.num_qubits} qubits, "
                f"the diagonal has {diagonal.size} entries"
            )
        self._diagonal = diagonal
        self._shots = int(shots)
        self._rng = ensure_rng(rng)
        self._readout_error = readout_error
        self._mitigate_readout = bool(mitigate_readout)
        self._shots_used = 0

    @property
    def shots(self) -> int:
        """Shot budget per estimate."""
        return self._shots

    @property
    def shots_used(self) -> int:
        """Total shots consumed by this estimator so far."""
        return self._shots_used

    @property
    def diagonal(self) -> np.ndarray:
        """The observable diagonal (a view; do not mutate)."""
        return self._diagonal

    @property
    def readout_error(self) -> Optional[ReadoutErrorModel]:
        """The attached readout model, if any."""
        return self._readout_error

    @property
    def mitigate_readout(self) -> bool:
        """Whether sampled counts are mitigated before the reduction."""
        return self._mitigate_readout

    def estimate(self, state: Statevector, shots: Optional[int] = None) -> float:
        """Finite-shot estimate of the observable in *state*.

        Samples bit-strings through
        :meth:`~repro.quantum.statevector.Statevector.sample_counts` and
        averages the diagonal entries of the observed outcomes.  With a
        *readout_error* attached, the outcomes are drawn from the corrupted
        distribution instead (and mitigated when requested).
        """
        if state.dim != self._diagonal.size:
            raise SimulationError(
                f"state dimension {state.dim} does not match the "
                f"{self._diagonal.size}-entry diagonal"
            )
        if self._readout_error is not None:
            return self.estimate_probabilities(state.probabilities(), shots)
        shots = self._shots if shots is None else int(shots)
        counts = state.sample_counts(shots, rng=self._rng)
        self._shots_used += shots
        total = sum(
            count * self._diagonal[int(bitstring, 2)]
            for bitstring, count in counts.items()
        )
        return float(total) / shots

    def estimate_probabilities(
        self, probabilities: np.ndarray, shots: Optional[int] = None
    ) -> float:
        """Finite-shot estimate from a probability vector (no state object).

        Uses one multinomial draw over the distribution — the same outcome
        law as :meth:`estimate`, but cheaper for batch consumers that already
        hold probability columns.  An attached *readout_error* corrupts the
        distribution before the draw; *mitigate_readout* then inverts the
        confusion matrices on the **empirical frequencies** (the standard,
        unbiased linear mitigation) before the diagonal reduction.
        """
        shots = self._shots if shots is None else int(shots)
        counts = self._sample_counts_vector(probabilities, shots)
        self._shots_used += shots
        if self._mitigate_readout:
            frequencies = self._readout_error.mitigate(counts / shots)
            return float(frequencies @ self._diagonal)
        return float(counts @ self._diagonal) / shots

    def estimate_batch(self, probability_columns: np.ndarray) -> np.ndarray:
        """Estimates for a ``(dim, batch)`` matrix of probability columns.

        Each column receives an independent ``shots``-sample estimate drawn
        from the shared generator; returns a ``(batch,)`` float array.
        """
        matrix = np.asarray(probability_columns, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(-1, 1)
        if matrix.shape[0] != self._diagonal.size:
            raise SimulationError(
                f"probability columns have dimension {matrix.shape[0]}, "
                f"expected {self._diagonal.size}"
            )
        estimates = np.empty(matrix.shape[1], dtype=float)
        for column in range(matrix.shape[1]):
            estimates[column] = self.estimate_probabilities(matrix[:, column])
        return estimates

    def _sample_counts_vector(self, probabilities: np.ndarray, shots: int) -> np.ndarray:
        probabilities = np.asarray(probabilities, dtype=float).reshape(-1)
        # Guard against tiny negative / non-normalised fp residue from the
        # amplitude squares before handing the vector to the multinomial.
        probabilities = np.clip(probabilities, 0.0, None)
        probabilities = probabilities / probabilities.sum()
        if self._readout_error is not None:
            # The confusion matrices are column-stochastic, so the corrupted
            # vector stays a normalised distribution.
            probabilities = self._readout_error.apply(probabilities)
        return self._rng.multinomial(shots, probabilities)


def split_shots(shots: int, parts: int) -> List[int]:
    """Split a shot budget as evenly as possible over *parts* trajectories.

    >>> split_shots(10, 4)
    [3, 3, 2, 2]
    """
    if parts < 1:
        raise ConfigurationError(f"parts must be >= 1, got {parts}")
    base, remainder = divmod(int(shots), parts)
    return [base + 1 if index < remainder else base for index in range(parts)]
