"""Tests for the Pauli-noise subsystem (channels, model, trajectory runs)."""

import numpy as np
import pytest

from repro.execution import ExecutionContext
from repro.exceptions import ConfigurationError, SimulationError
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.backends import FastBackend
from repro.qaoa.circuit_builder import build_parametric_qaoa_circuit
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.fast_backend import FAST_BACKEND_MAX_QUBITS
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density import DensityMatrixSimulator
from repro.quantum.noise import (
    AmplitudeDampingApprox,
    AmplitudeDampingChannel,
    BitFlip,
    DepolarizingChannel,
    NoiseModel,
    PauliChannel,
    PhaseFlip,
    QuantumChannel,
    apply_pauli,
)
from repro.quantum.operators import PauliSum
from repro.quantum.simulator import StatevectorSimulator
from repro.quantum.statevector import Statevector


def _problem(seed: int = 3, nodes: int = 6) -> MaxCutProblem:
    return MaxCutProblem(erdos_renyi_graph(nodes, 0.5, seed=seed))


def _bound_circuit(problem: MaxCutProblem, depth: int):
    circuit, gammas, betas = build_parametric_qaoa_circuit(problem, depth)
    values = {g: 0.3 + 0.1 * i for i, g in enumerate(gammas)}
    values.update({b: 0.2 + 0.05 * i for i, b in enumerate(betas)})
    return circuit, values


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

class TestChannels:
    def test_probabilities_and_error_probability(self):
        channel = PauliChannel(0.1, 0.2, 0.3)
        assert channel.pauli_probabilities() == (0.1, 0.2, 0.3)
        assert channel.error_probability == pytest.approx(0.6)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ConfigurationError):
            PauliChannel(-0.1, 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            PauliChannel(0.5, 0.4, 0.3)
        with pytest.raises(ConfigurationError):
            PauliChannel(float("nan"), 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            DepolarizingChannel(1.2)  # shares sum to 1.2 > 1

    def test_kraus_operators_cached(self):
        """kraus_operators() is built once at construction and re-served."""
        channel = PauliChannel(0.1, 0.2, 0.3)
        first = channel.kraus_operators()
        second = channel.kraus_operators()
        assert len(first) == 4
        assert all(a is b for a, b in zip(first, second))

    def test_depolarizing_splits_evenly(self):
        channel = DepolarizingChannel(0.03)
        assert channel.pauli_probabilities() == pytest.approx((0.01, 0.01, 0.01))
        assert channel.probability == 0.03

    def test_bit_and_phase_flip(self):
        assert BitFlip(0.2).pauli_probabilities() == pytest.approx((0.2, 0.0, 0.0))
        assert PhaseFlip(0.2).pauli_probabilities() == pytest.approx((0.0, 0.0, 0.2))

    def test_amplitude_damping_approx_probabilities(self):
        gamma = 0.4
        channel = AmplitudeDampingApprox(gamma)
        px, py, pz = channel.pauli_probabilities()
        assert px == pytest.approx(gamma / 4.0)
        assert py == pytest.approx(gamma / 4.0)
        assert pz == pytest.approx((2.0 - gamma - 2.0 * np.sqrt(1.0 - gamma)) / 4.0)
        assert channel.gamma == gamma
        with pytest.raises(ConfigurationError):
            AmplitudeDampingApprox(1.5)

    @pytest.mark.parametrize(
        "channel",
        [
            PauliChannel(0.1, 0.2, 0.3),
            DepolarizingChannel(0.05),
            BitFlip(0.1),
            PhaseFlip(0.1),
            AmplitudeDampingApprox(0.3),
        ],
    )
    def test_kraus_trace_preserving(self, channel):
        total = sum(k.conj().T @ k for k in channel.kraus_operators())
        assert np.allclose(total, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize(
        "channel",
        [
            PauliChannel(0.1, 0.2, 0.3),
            DepolarizingChannel(0.05),
            BitFlip(0.1),
            PhaseFlip(0.1),
            AmplitudeDampingApprox(0.3),
        ],
    )
    def test_channel_is_unital(self, channel):
        """Every Pauli channel fixes the maximally mixed state."""
        mixed = np.eye(2, dtype=complex) / 2.0
        assert np.allclose(channel.apply_to_density_matrix(mixed), mixed, atol=1e-12)

    def test_sample_extremes(self):
        rng = np.random.default_rng(0)
        assert PauliChannel(0.0, 0.0, 0.0).sample(rng) is None
        assert BitFlip(1.0).sample(rng) == "X"
        assert PhaseFlip(1.0).sample(rng) == "Z"
        assert PauliChannel(0.0, 1.0, 0.0).sample(rng) == "Y"

    def test_exact_trajectory_mean_matches_density_oracle(self):
        """The *exact* trajectory mean equals the density oracle to 1e-12.

        With a single depolarizing site the trajectory distribution has
        exactly four outcomes (I, X, Y, Z); enumerating them with their
        probabilities gives the exact trajectory mean — no Monte-Carlo bound
        involved — which must coincide with both the independent Kraus-map
        (density-matrix) evaluation and the analytic value ``1 - 4p/3``.
        """
        p = 0.3
        model = NoiseModel().add_channel(DepolarizingChannel(p), gates=("h",))
        circuit = QuantumCircuit(1)
        circuit.h(0)
        observable = PauliSum().add_term(1.0, "X")
        plus = StatevectorSimulator().run(circuit).data
        mean = (1.0 - p) * 1.0  # identity pattern: <+|X|+> = 1
        for pauli in "XYZ":
            errored = apply_pauli(plus.copy(), 0, pauli)
            mean += (p / 3.0) * observable.expectation(
                Statevector(errored, copy=False, validate=False)
            )
        oracle = DensityMatrixSimulator().run(circuit, noise_model=model)
        assert mean == pytest.approx(oracle.expectation(observable), abs=1e-12)
        assert mean == pytest.approx(1.0 - 4.0 * p / 3.0, abs=1e-12)

    def test_multi_site_trajectory_mean_matches_density_oracle(self):
        """Exhaustive pattern enumeration on two noise sites, to 1e-12.

        Two bit-flip sites => four error patterns with separable weights.
        The weighted trajectory mean over all patterns must equal the exact
        density-matrix evolution of the same noise model.
        """
        p1, p2 = 0.2, 0.35
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        model = (
            NoiseModel()
            .add_channel(BitFlip(p1), gates=("h",))
            .add_channel(BitFlip(p2), gates=("cx",), qubits=(1,))
        )
        problem_diagonal = np.array([0.0, 1.0, 1.0, 2.0])
        ideal = StatevectorSimulator()
        mean = 0.0
        for fire_h, weight_h in ((False, 1.0 - p1), (True, p1)):
            for fire_cx, weight_cx in ((False, 1.0 - p2), (True, p2)):
                errors = []
                if fire_h:
                    errors.append((0, 0, "X"))
                if fire_cx:
                    errors.append((1, 1, "X"))
                program = ideal.compile(circuit)
                state = np.zeros(4, dtype=np.complex128)
                state[0] = 1.0
                final = program.apply(state, None, errors=errors)
                probabilities = final.real**2 + final.imag**2
                mean += weight_h * weight_cx * float(probabilities @ problem_diagonal)
        oracle = DensityMatrixSimulator().run(circuit, noise_model=model)
        assert mean == pytest.approx(
            oracle.expectation_diagonal(problem_diagonal), abs=1e-12
        )

    def test_trajectory_average_converges_to_oracle_smoke(self):
        """One statistical smoke check kept: sampled trajectories centre on
        the density oracle (not on Monte-Carlo self-consistency)."""
        p = 0.3
        model = NoiseModel().add_channel(DepolarizingChannel(p), gates=("h",))
        circuit = QuantumCircuit(1)
        circuit.h(0)
        observable = PauliSum().add_term(1.0, "X")
        oracle = (
            DensityMatrixSimulator()
            .run(circuit, noise_model=model)
            .expectation(observable)
        )
        simulator = StatevectorSimulator()
        rng = np.random.default_rng(42)
        samples = 800
        mean = np.mean(
            [
                observable.expectation(
                    simulator.run(circuit, noise_model=model, rng=rng)
                )
                for _ in range(samples)
            ]
        )
        sigma = np.sqrt((1.0 - oracle**2) / samples)
        assert abs(mean - oracle) < 4.0 * sigma


# ---------------------------------------------------------------------------
# apply_pauli
# ---------------------------------------------------------------------------

class TestApplyPauli:
    @pytest.mark.parametrize("pauli", ["X", "Y", "Z"])
    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_matches_dense_gate_up_to_global_phase(self, pauli, qubit):
        rng = np.random.default_rng(7)
        amplitudes = rng.normal(size=8) + 1j * rng.normal(size=8)
        amplitudes /= np.linalg.norm(amplitudes)
        expected = Statevector(amplitudes.copy(), validate=False)
        matrix = {
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }[pauli]
        expected.apply_matrix(matrix, [qubit])
        actual = apply_pauli(amplitudes.copy(), qubit, pauli)
        fidelity = abs(np.vdot(expected.data, actual)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-12)

    def test_batch_rows_supported(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        apply_pauli(rows, 0, "X")
        assert np.allclose(rows, [[0.0, 1.0], [1.0, 0.0]])

    def test_invalid_arguments(self):
        state = np.zeros(4, dtype=complex)
        with pytest.raises(SimulationError):
            apply_pauli(state, 2, "X")
        with pytest.raises(SimulationError):
            apply_pauli(state, 0, "W")


# ---------------------------------------------------------------------------
# NoiseModel
# ---------------------------------------------------------------------------

class TestNoiseModel:
    def test_empty_model(self):
        model = NoiseModel()
        assert model.is_empty and model.num_rules == 0
        assert model.sample_errors([("h", (0,))], np.random.default_rng(0)) == []

    def test_rejects_non_channel(self):
        with pytest.raises(ConfigurationError):
            NoiseModel().add_channel("not a channel")

    def test_gate_filter(self):
        model = NoiseModel().add_channel(BitFlip(1.0), gates=("cx",))
        stream = [("h", (0,)), ("cx", (0, 1)), ("rx", (1,))]
        errors = model.sample_errors(stream, np.random.default_rng(0))
        assert errors == [(1, 0, "X"), (1, 1, "X")]

    def test_qubit_filter(self):
        model = NoiseModel().add_qubit_noise(BitFlip(1.0), qubits=(1,))
        stream = [("h", (0,)), ("cx", (0, 1)), ("rx", (1,))]
        errors = model.sample_errors(stream, np.random.default_rng(0))
        assert errors == [(1, 1, "X"), (2, 1, "X")]

    def test_arity_filter(self):
        model = NoiseModel().add_channel(BitFlip(1.0), arity=2)
        stream = [("h", (0,)), ("cx", (0, 1)), ("rx", (1,))]
        errors = model.sample_errors(stream, np.random.default_rng(0))
        assert errors == [(1, 0, "X"), (1, 1, "X")]

    def test_uniform_depolarizing_defaults(self):
        model = NoiseModel.uniform_depolarizing(0.001)
        assert model.num_rules == 2
        counts = model.expected_error_count([("h", (0,)), ("cx", (0, 1))])
        # 1q gate: 0.001; 2q gate: 2 qubits x 0.01.
        assert counts == pytest.approx(0.001 + 2 * 0.01)

    def test_sampling_is_seed_deterministic(self):
        model = NoiseModel.uniform_depolarizing(0.2)
        stream = [("h", (q,)) for q in range(4)] + [("cx", (0, 1)), ("cx", (2, 3))]
        first = model.sample_errors(stream, np.random.default_rng(5))
        second = model.sample_errors(stream, np.random.default_rng(5))
        assert first == second

    def test_accepts_circuit_instructions(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        model = NoiseModel().add_channel(BitFlip(1.0))
        errors = model.sample_errors(circuit, np.random.default_rng(0))
        assert errors == [(0, 0, "X"), (1, 0, "X"), (1, 1, "X")]

    def test_zero_strength_never_fires(self):
        model = NoiseModel().add_channel(DepolarizingChannel(0.0))
        stream = [("h", (q,)) for q in range(8)] * 50
        assert model.sample_errors(stream, np.random.default_rng(1)) == []


# ---------------------------------------------------------------------------
# Simulator integration
# ---------------------------------------------------------------------------

class TestNoisySimulation:
    def test_no_noise_model_is_bit_identical(self):
        problem = _problem()
        circuit, values = _bound_circuit(problem, 2)
        simulator = StatevectorSimulator()
        plain = simulator.run(circuit, values)
        with_kwarg = simulator.run(circuit, values, noise_model=None, rng=0)
        empty = simulator.run(circuit, values, noise_model=NoiseModel(), rng=0)
        assert np.array_equal(plain.data, with_kwarg.data)
        assert np.array_equal(plain.data, empty.data)

    def test_certain_bitflip_is_deterministic(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        model = NoiseModel().add_channel(BitFlip(1.0), gates=("cx",), qubits=(1,))
        state = StatevectorSimulator().run(circuit, noise_model=model, rng=0)
        assert np.allclose(state.probabilities(), [0.0, 0.5, 0.5, 0.0])

    def test_compiled_matches_generic_for_commuting_placement(self):
        """Noise on H/RX gates anchors identically on both execution paths."""
        problem = _problem()
        circuit, values = _bound_circuit(problem, 2)
        model = NoiseModel().add_channel(DepolarizingChannel(0.3), gates=("h", "rx"))
        compiled = StatevectorSimulator().run(circuit, values, noise_model=model, rng=3)
        generic = StatevectorSimulator(compiled=False).run(
            circuit, values, noise_model=model, rng=3
        )
        assert compiled.fidelity(generic) == pytest.approx(1.0, abs=1e-10)

    def test_noisy_run_does_not_recompile(self):
        problem = _problem()
        circuit, values = _bound_circuit(problem, 2)
        simulator = StatevectorSimulator()
        simulator.run(circuit, values)
        program = simulator.compile(circuit)
        model = NoiseModel.uniform_depolarizing(0.1)
        simulator.run(circuit, values, noise_model=model, rng=0)
        assert simulator.compile(circuit) is program

    def test_noise_preserves_normalisation(self):
        problem = _problem()
        circuit, values = _bound_circuit(problem, 2)
        model = NoiseModel.uniform_depolarizing(0.2)
        state = StatevectorSimulator().run(circuit, values, noise_model=model, rng=9)
        assert state.is_normalized()

    def test_unknown_instruction_index_raises(self):
        problem = _problem()
        circuit, values = _bound_circuit(problem, 1)
        simulator = StatevectorSimulator()
        program = simulator.compile(circuit)
        with pytest.raises(SimulationError):
            program.noise_anchor(10_000)

    def test_sample_with_noise_model(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        model = NoiseModel().add_channel(BitFlip(1.0), gates=("cx",), qubits=(1,))
        counts = StatevectorSimulator().sample(circuit, 100, rng=1, noise_model=model)
        assert set(counts) <= {"01", "10"}
        assert sum(counts.values()) == 100


# ---------------------------------------------------------------------------
# Fast-backend trajectories: sampled by the compiled engine
# ---------------------------------------------------------------------------

class TestFastBackendNoise:
    def test_matches_circuit_backend_trajectory(self):
        """Seeded ``"fast"`` and ``"circuit"`` contexts return the same bits.

        The fast program hands noise trajectories to the compiled engine, so
        the same noise model, trajectories and rng give bit-identical
        values on both backends: scalar and batch, with and without shots.
        """
        problem = _problem()
        model = NoiseModel.uniform_depolarizing(0.05)
        point = np.array([0.4, 0.1, 0.3, 0.2])
        batch = np.array([point, point[::-1], 0.5 * point])
        exact = ExpectationEvaluator(problem, 2).expectation(point)
        for shots in (None, 96):
            values = {}
            for backend in ("fast", "circuit"):
                context = ExecutionContext(
                    backend=backend, noise_model=model, trajectories=3, shots=shots
                )
                evaluator = ExpectationEvaluator(problem, 2, context=context, rng=7)
                values[backend] = (
                    evaluator.expectation(point),
                    evaluator.expectation_batch(batch),
                )
            fast, circuit = values["fast"], values["circuit"]
            assert fast[0] == circuit[0] and np.array_equal(fast[1], circuit[1])
            assert fast[0] != exact  # the noise really was sampled

    def test_trajectory_engine_accepts_every_fast_register(self):
        """The delegate's register ceiling is the fast path's, not the engine's."""
        program = FastBackend().compile(_problem(), 1)
        program.noisy_probabilities(
            np.array([0.4, 0.3]), NoiseModel.uniform_depolarizing(0.05), 0
        )
        simulator = program._trajectory_program._simulator
        assert simulator.max_qubits == FAST_BACKEND_MAX_QUBITS > StatevectorSimulator().max_qubits

    def test_zero_noise_trajectory_equals_exact_state(self):
        problem = _problem()
        model = NoiseModel().add_channel(DepolarizingChannel(0.0))
        point = np.array([0.4, 0.3])
        noisy = ExpectationEvaluator(
            problem, 1, context=ExecutionContext(noise_model=model), rng=0
        ).expectation(point)
        exact = ExpectationEvaluator(problem, 1).expectation(point)
        assert noisy == pytest.approx(exact, abs=1e-12)


# ---------------------------------------------------------------------------
# Lindblad-rate round trips (continuous <-> discrete channel forms)
# ---------------------------------------------------------------------------

class TestLindbladRates:
    @pytest.mark.parametrize("duration", [1.0, 0.25, 3.0])
    @pytest.mark.parametrize(
        "channel",
        [
            DepolarizingChannel(0.03),
            PauliChannel(0.02, 0.03, 0.05),
            BitFlip(0.08),
            PhaseFlip(0.11),
        ],
        ids=["depol", "mixed", "bitflip", "phaseflip"],
    )
    def test_pauli_round_trip(self, channel, duration):
        rates = channel.lindblad_rates(duration)
        assert all(rate > 0.0 for rate in rates.values())
        restored = QuantumChannel.from_lindblad_rates(rates, duration)
        assert np.allclose(
            restored.pauli_probabilities(), channel.pauli_probabilities(), atol=1e-12
        )

    @pytest.mark.parametrize("gamma", [0.05, 0.2, 0.9])
    def test_amplitude_damping_round_trip(self, gamma):
        channel = AmplitudeDampingChannel(gamma)
        rates = channel.lindblad_rates(0.5)
        assert set(rates) == {"sigma_minus"}
        restored = QuantumChannel.from_lindblad_rates(rates, 0.5)
        assert restored.gamma == pytest.approx(gamma, abs=1e-12)

    def test_identity_channels_round_trip_through_empty_table(self):
        assert PauliChannel(0.0, 0.0, 0.0).lindblad_rates() == {}
        assert AmplitudeDampingChannel(0.0).lindblad_rates() == {}
        restored = QuantumChannel.from_lindblad_rates({})
        assert restored.error_probability == 0.0

    def test_zero_rates_dropped(self):
        rates = BitFlip(0.08).lindblad_rates()
        assert set(rates) == {"X"}

    def test_semigroup_semantics_compose(self):
        # exp(2t D) = exp(t D) applied twice: rates halve when the duration
        # doubles, and the two-step composition reproduces the channel.
        channel = DepolarizingChannel(0.06)
        rates_1 = channel.lindblad_rates(1.0)
        rates_2 = channel.lindblad_rates(2.0)
        for label in rates_1:
            assert rates_2[label] == pytest.approx(rates_1[label] / 2.0, rel=1e-12)
        half = QuantumChannel.from_lindblad_rates(rates_2, 1.0)
        composed = np.zeros((4, 4), dtype=complex)
        for left in half.kraus_operators():
            for right in half.kraus_operators():
                op = left @ right
                composed += np.kron(op, op.conj())
        full = channel.superoperator()
        assert np.allclose(composed, full, atol=1e-12)

    def test_too_strong_pauli_channel_rejected(self):
        # p = 3/4 is the fully depolarizing fixed point: lam = 0 has no
        # finite-rate generator.
        with pytest.raises(ConfigurationError, match="no Lindblad-rate form"):
            DepolarizingChannel(0.75).lindblad_rates()

    def test_non_divisible_pauli_channel_rejected(self):
        # X and Z errors but exactly zero Y would need a negative Y rate:
        # the channel is a valid CPTP map but not exp(t*D) for any t.
        with pytest.raises(ConfigurationError, match="negative"):
            PauliChannel(0.02, 0.0, 0.05).lindblad_rates()

    def test_complete_relaxation_rejected(self):
        with pytest.raises(ConfigurationError, match="finite sigma_minus"):
            AmplitudeDampingChannel(1.0).lindblad_rates()

    def test_base_class_has_no_jump_form(self):
        kraus_only = QuantumChannel(
            [np.eye(2, dtype=complex)], name="custom-identity"
        )
        with pytest.raises(ConfigurationError, match="no known jump-operator"):
            kraus_only.lindblad_rates()

    def test_from_rates_validation(self):
        with pytest.raises(ConfigurationError, match="duration"):
            QuantumChannel.from_lindblad_rates({"X": 0.1}, 0.0)
        with pytest.raises(ConfigurationError, match="must be finite"):
            QuantumChannel.from_lindblad_rates({"X": -0.1})
        with pytest.raises(ConfigurationError, match="unknown jump label"):
            QuantumChannel.from_lindblad_rates({"sigma_plus": 0.1})
        with pytest.raises(ConfigurationError, match="cannot mix"):
            QuantumChannel.from_lindblad_rates({"X": 0.1, "sigma_minus": 0.1})

    def test_single_jump_convenience(self):
        channel = QuantumChannel.from_lindblad_rate("X", 0.3, 2.0)
        recovered = channel.lindblad_rates(2.0)
        assert recovered["X"] == pytest.approx(0.3, rel=1e-12)
