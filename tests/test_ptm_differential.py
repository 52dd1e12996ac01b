"""Randomized differential tests pinning the PTM-compiled noisy path.

Every case is generated from one integer seed: a random circuit over the
full gate registry plus a random noise model (Pauli presets, true amplitude
damping, joint two-qubit channels, mixed gate/qubit/arity placements).  The
compiled superoperator path must reproduce the per-instruction Kraus oracle
to 1e-12 on every case, and trajectory means must land inside a 4-sigma
band around the oracle for Pauli-only models.

Failures replay from the printed case: each assertion message carries the
``DifferentialCase`` repr, and ``DifferentialCase(seed=...)`` rebuilds the
exact circuit and noise model (shrink by lowering ``num_qubits`` / ``depth``
by hand — the generators consume the rng in instruction order, so prefixes
of a case are themselves valid cases).
"""

import numpy as np
import pytest

from repro.exceptions import CircuitError, ConfigurationError, SimulationError
from repro.execution import ExecutionContext
from repro.quantum import QuantumCircuit
from repro.quantum.density import DensityMatrixSimulator
from repro.quantum.engine import compile_noisy_circuit
from repro.quantum.noise import (
    AmplitudeDampingChannel,
    BitFlip,
    CorrelatedPauliChannel,
    DepolarizingChannel,
    NoiseModel,
    PauliChannel,
    PhaseFlip,
    TwoQubitDepolarizingChannel,
)
from repro.quantum.parameter import Parameter
from repro.quantum.simulator import StatevectorSimulator

# Gate pool spanning every conjugation rule of the doubled-register
# compiler: real, negated-parameter, name-swapped, y, and u3.
_GATE_POOL = (
    ("h", 1, 0), ("x", 1, 0), ("y", 1, 0), ("z", 1, 0),
    ("s", 1, 0), ("sdg", 1, 0), ("t", 1, 0), ("tdg", 1, 0),
    ("rx", 1, 1), ("ry", 1, 1), ("rz", 1, 1), ("p", 1, 1), ("u3", 1, 3),
    ("cx", 2, 0), ("cz", 2, 0), ("swap", 2, 0),
    ("rzz", 2, 1), ("rxx", 2, 1), ("crz", 2, 1),
)

_TWO_QUBIT_GATES = tuple(name for name, arity, _ in _GATE_POOL if arity == 2)


def _random_circuit(rng, num_qubits, depth):
    circuit = QuantumCircuit(num_qubits)
    for _ in range(depth):
        name, arity, num_params = _GATE_POOL[rng.integers(len(_GATE_POOL))]
        qubits = tuple(
            int(q) for q in rng.choice(num_qubits, size=arity, replace=False)
        )
        params = tuple(float(theta) for theta in rng.uniform(-np.pi, np.pi, num_params))
        circuit.add_gate(name, qubits, params)
    return circuit


def _random_noise_model(rng, num_qubits, pauli_only):
    model = NoiseModel()
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.integers(6 if pauli_only else 9)
        if kind == 0:
            channel = DepolarizingChannel(float(rng.uniform(0.0, 0.3)))
        elif kind == 1:
            channel = BitFlip(float(rng.uniform(0.0, 0.4)))
        elif kind == 2:
            channel = PhaseFlip(float(rng.uniform(0.0, 0.4)))
        elif kind in (3, 4, 5):
            px, py, pz = rng.uniform(0.0, 0.25, 3)
            channel = PauliChannel(float(px), float(py), float(pz))
        elif kind == 6:
            channel = AmplitudeDampingChannel(float(rng.uniform(0.0, 0.5)))
        elif kind == 7:
            channel = TwoQubitDepolarizingChannel(float(rng.uniform(0.0, 0.4)))
        else:
            labels = ("XX", "YY", "ZZ", "XZ", "IY")
            picks = rng.choice(len(labels), size=2, replace=False)
            probabilities = dict(
                zip(
                    (labels[int(p)] for p in picks),
                    (float(v) for v in rng.uniform(0.0, 0.2, 2)),
                )
            )
            channel = CorrelatedPauliChannel(probabilities)
        # Random placement.  Joint channels draw only placements that can
        # host them (no gates= filter naming one-qubit gates).
        placement = int(rng.integers(4))
        if channel.num_qubits > 1:
            if placement == 0:
                model.add_channel(channel, arity=2)
            elif placement == 1:
                model.add_channel(channel, gates=_TWO_QUBIT_GATES[:3])
            else:
                model.add_channel(channel)
        else:
            if placement == 0:
                model.add_channel(channel, arity=int(rng.integers(1, 3)))
            elif placement == 1:
                names = [name for name, _, _ in _GATE_POOL]
                picks = rng.choice(len(names), size=4, replace=False)
                model.add_channel(channel, gates=[names[int(p)] for p in picks])
            elif placement == 2:
                count = int(rng.integers(1, num_qubits + 1))
                qubits = rng.choice(num_qubits, size=count, replace=False)
                model.add_channel(channel, qubits=[int(q) for q in qubits])
            else:
                model.add_channel(channel)
    return model


class DifferentialCase:
    """One seeded (circuit, noise model) pair with a replayable repr."""

    def __init__(self, seed, num_qubits=None, depth=None, pauli_only=False):
        rng = np.random.default_rng(seed)
        self.seed = int(seed)
        self.num_qubits = (
            int(rng.integers(2, 5)) if num_qubits is None else int(num_qubits)
        )
        self.depth = int(rng.integers(4, 14)) if depth is None else int(depth)
        self.pauli_only = bool(pauli_only)
        self.circuit = _random_circuit(rng, self.num_qubits, self.depth)
        self.noise_model = _random_noise_model(rng, self.num_qubits, pauli_only)

    def __repr__(self):
        gates = " ".join(inst.name for inst in self.circuit)
        return (
            f"DifferentialCase(seed={self.seed}, num_qubits={self.num_qubits}, "
            f"depth={self.depth}, pauli_only={self.pauli_only}) "
            f"[gates: {gates}; model: {self.noise_model!r}]"
        )


class TestCompiledAgainstKrausOracle:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_cases_agree_to_1e12(self, seed):
        case = DifferentialCase(seed)
        oracle = DensityMatrixSimulator(compiled=False).run(
            case.circuit, noise_model=case.noise_model
        )
        compiled = DensityMatrixSimulator(compiled=True).run(
            case.circuit, noise_model=case.noise_model
        )
        diff = float(np.abs(oracle.data - compiled.data).max())
        assert diff < 1e-12, f"max |rho_oracle - rho_ptm| = {diff}; replay: {case!r}"
        assert compiled.trace() == pytest.approx(1.0, abs=1e-10), f"replay: {case!r}"

    @pytest.mark.parametrize("seed", (101, 202, 303))
    def test_parametric_rebinding_agrees(self, seed):
        """One compiled program, many value vectors — each matches the oracle."""
        case = DifferentialCase(seed, num_qubits=3, depth=6)
        rng = np.random.default_rng(seed + 1)
        gamma, beta = Parameter("gamma"), Parameter("beta")
        case.circuit.rzz(2.0 * gamma, 0, 1)
        case.circuit.rx(beta, 2)
        simulator = DensityMatrixSimulator(compiled=True)
        oracle = DensityMatrixSimulator(compiled=False)
        for _ in range(3):
            values = {
                gamma: float(rng.uniform(-np.pi, np.pi)),
                beta: float(rng.uniform(-np.pi, np.pi)),
            }
            fast = simulator.run(case.circuit, values, noise_model=case.noise_model)
            slow = oracle.run(case.circuit, values, noise_model=case.noise_model)
            diff = float(np.abs(fast.data - slow.data).max())
            assert diff < 1e-12, f"diff={diff} at {values}; replay: {case!r}"
        # All three binds reused one compiled program.
        program = simulator.compile_noisy(case.circuit, case.noise_model)
        assert program is simulator.compile_noisy(case.circuit, case.noise_model)

    def test_empty_noise_model_matches_noiseless_path(self):
        case = DifferentialCase(7, num_qubits=3, depth=8)
        pure = DensityMatrixSimulator().run(case.circuit)
        via_ptm = DensityMatrixSimulator().run(
            case.circuit, noise_model=NoiseModel().add_channel(BitFlip(0.0))
        )
        assert float(np.abs(pure.data - via_ptm.data).max()) < 1e-12


class TestCompiledAgainstTrajectoryMeans:
    @pytest.mark.parametrize("seed", (11, 29, 47))
    def test_trajectory_means_within_4_sigma(self, seed):
        """Pauli-only models: sampled means centre on the compiled oracle."""
        case = DifferentialCase(seed, num_qubits=3, depth=7, pauli_only=True)
        rng = np.random.default_rng(seed + 1000)
        diagonal = rng.uniform(-1.0, 1.0, 1 << case.num_qubits)
        rho = DensityMatrixSimulator(compiled=True).run(
            case.circuit, noise_model=case.noise_model
        )
        exact = rho.expectation_diagonal(diagonal)
        simulator = StatevectorSimulator()
        trajectories = 400
        samples = np.empty(trajectories)
        for index in range(trajectories):
            state = simulator.run(
                case.circuit, noise_model=case.noise_model, rng=rng
            )
            samples[index] = float(state.probabilities() @ diagonal)
        mean = float(samples.mean())
        sem = float(samples.std(ddof=1)) / np.sqrt(trajectories)
        band = 4.0 * sem + 1e-9
        assert abs(mean - exact) < band, (
            f"|{mean} - {exact}| >= {band}; replay: {case!r}"
        )


class TestNoiseModelCacheInvalidation:
    def test_mutated_model_never_serves_stale_kernel(self):
        """add_channel after caching must recompile, not replay the old map."""
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        model = NoiseModel().add_channel(DepolarizingChannel(0.1), gates=("cx",))
        simulator = DensityMatrixSimulator(compiled=True)
        before = simulator.run(circuit, noise_model=model)
        first = simulator.compile_noisy(circuit, model)
        model.add_channel(BitFlip(0.5))
        after = simulator.run(circuit, noise_model=model)
        assert simulator.compile_noisy(circuit, model) is not first
        oracle = DensityMatrixSimulator(compiled=False).run(
            circuit, noise_model=model
        )
        assert float(np.abs(after.data - oracle.data).max()) < 1e-12
        # And the mutation was observable at all (the stale result differs).
        assert float(np.abs(after.data - before.data).max()) > 1e-3

    def test_version_counter_tracks_mutations(self):
        model = NoiseModel()
        v0 = model.version
        model.add_channel(PhaseFlip(0.1))
        assert model.version == v0 + 1
        model.add_channel(BitFlip(0.2), gates=("h",))
        assert model.version == v0 + 2

    def test_mutated_circuit_never_serves_stale_kernel(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        model = NoiseModel().add_channel(BitFlip(0.25))
        simulator = DensityMatrixSimulator(compiled=True)
        first = simulator.compile_noisy(circuit, model)
        circuit.cx(0, 1)
        assert simulator.compile_noisy(circuit, model) is not first


class TestJointChannelsOnInvalidPaths:
    """Multi-qubit channels must fail loudly — ConfigurationError, not a
    SimulationError from deep inside a kernel — on every path that cannot
    realise them."""

    def _joint_model(self):
        return NoiseModel().add_channel(TwoQubitDepolarizingChannel(0.1))

    def test_trajectory_sampling_raises_configuration_error(self):
        stream = [("cx", (0, 1))]
        with pytest.raises(ConfigurationError, match="density"):
            self._joint_model().sample_errors(stream, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="density"):
            self._joint_model().expected_error_count(stream)

    def test_statevector_simulator_rejects_joint_channels(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        with pytest.raises(ConfigurationError, match="density"):
            StatevectorSimulator().run(
                circuit,
                noise_model=self._joint_model(),
                rng=np.random.default_rng(0),
            )

    def test_execution_context_requires_density_for_joint_channels(self):
        with pytest.raises(ConfigurationError):
            ExecutionContext(backend="circuit", noise_model=self._joint_model())

    def test_correlated_channel_on_one_qubit_gate_filter_raises(self):
        """gates= placement that cannot host the channel fails at match."""
        model = NoiseModel().add_channel(
            CorrelatedPauliChannel({"XX": 0.1}), gates=("h",)
        )
        circuit = QuantumCircuit(2)
        circuit.h(0)
        with pytest.raises(ConfigurationError, match="operand"):
            DensityMatrixSimulator(compiled=False).run(
                circuit, noise_model=model
            )
        with pytest.raises(ConfigurationError, match="operand"):
            DensityMatrixSimulator(compiled=True).run(
                circuit, noise_model=model
            )

    def test_contradictory_arity_filter_rejected_at_attach(self):
        with pytest.raises(ConfigurationError, match="arity"):
            NoiseModel().add_channel(TwoQubitDepolarizingChannel(0.1), arity=1)

    def test_single_qubit_non_pauli_keeps_simulation_error(self):
        """The historical 1-qubit trajectory rejection is unchanged."""
        model = NoiseModel().add_channel(AmplitudeDampingChannel(0.2))
        with pytest.raises(SimulationError, match="Pauli"):
            model.sample_errors([("h", (0,))], rng=np.random.default_rng(0))


class TestCapabilityNegotiation:
    def test_density_context_runs_joint_channels_through_ptm(self):
        """ExecutionContext(density=True) negotiates the compiled tier."""
        from repro.graphs.generators import cycle_graph
        from repro.graphs.maxcut import MaxCutProblem
        from repro.qaoa.cost import ExpectationEvaluator

        problem = MaxCutProblem(cycle_graph(4))
        model = (
            NoiseModel()
            .add_channel(TwoQubitDepolarizingChannel(0.08), arity=2)
            .add_channel(DepolarizingChannel(0.02), arity=1)
        )
        point = np.array([0.4, 0.3])
        noisy = ExpectationEvaluator(
            problem,
            1,
            context=ExecutionContext(
                backend="circuit", density=True, noise_model=model
            ),
        ).expectation(point)
        exact = ExpectationEvaluator(problem, 1).expectation(point)
        assert np.isfinite(noisy) and abs(noisy - exact) > 1e-4


class TestNoisyProgramSurface:
    def test_program_shape_and_summary(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.h(1)
        circuit.cx(0, 1)
        circuit.rz(0.3, 1)
        model = NoiseModel().add_channel(DepolarizingChannel(0.1), gates=("cx",))
        program = compile_noisy_circuit(circuit, model)
        assert program.num_qubits == 2 and program.dim == 16
        assert program.num_superops == 1
        summary = program.operation_summary()
        assert summary.get("SuperOp") == 1
        assert sum(summary.values()) > 1  # plus the fused segments

    def test_apply_validates_inputs(self):
        gamma = Parameter("gamma")
        circuit = QuantumCircuit(2)
        circuit.rx(gamma, 0)
        model = NoiseModel().add_channel(BitFlip(0.1))
        program = compile_noisy_circuit(circuit, model)
        vec = np.zeros(16, dtype=np.complex128)
        vec[0] = 1.0
        with pytest.raises(CircuitError):
            program.apply(vec)
        with pytest.raises(SimulationError):
            program.apply(np.zeros(8, dtype=np.complex128), np.array([0.1]))
        with pytest.raises(SimulationError, match="batched"):
            program.apply(vec, np.array([[0.1], [0.2]]))
