"""Frontend integration: library circuits, evaluators, caches, the QASM export hook."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.frontend import ingest, lower_to_native, to_circuit
from repro.frontend.evaluator import CircuitExpectationEvaluator
from repro.frontend.library import available_circuits, circuit_source, load_circuit
from repro.quantum.noise import DepolarizingChannel, NoiseModel
from repro.quantum.operators import PauliSum
from repro.quantum.simulator import StatevectorSimulator


class TestBundledLibrary:
    def test_catalog(self):
        assert available_circuits() == ["ghz", "hwe_ansatz", "qft8"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="no bundled circuit"):
            circuit_source("nope")

    @pytest.mark.parametrize("name", ["ghz", "hwe_ansatz", "qft8"])
    def test_compiled_agrees_with_uncompiled_oracle_at_1e9(self, name):
        """Acceptance: parse → lower → execute compiled vs compiled=False."""
        ir = load_circuit(name)
        circuit = to_circuit(lower_to_native(ir))
        values = (
            None
            if not circuit.parameters
            else np.linspace(-1.0, 1.0, len(circuit.parameters))
        )
        compiled = StatevectorSimulator(compiled=True).run(circuit, values)
        oracle = StatevectorSimulator(compiled=False).run(circuit, values)
        assert np.abs(compiled.data - oracle.data).max() < 1e-9

    def test_ghz_state_is_correct(self):
        circuit = ingest(circuit_source("ghz"))
        state = StatevectorSimulator().run(circuit)
        probabilities = state.probabilities()
        assert probabilities[0] == pytest.approx(0.5, abs=1e-12)
        assert probabilities[-1] == pytest.approx(0.5, abs=1e-12)
        assert probabilities[1:-1].max() < 1e-12

    def test_qft8_maps_zero_state_to_uniform(self):
        circuit = ingest(circuit_source("qft8"))
        state = StatevectorSimulator().run(circuit)
        uniform = np.full(2**8, 2 ** -4.0)
        assert np.abs(np.abs(state.data) - uniform).max() < 1e-9


class TestCircuitExpectationEvaluator:
    OBSERVABLE = PauliSum([(1.0, "ZZII"), (1.0, "IIZZ"), (0.5, "XIIX")])

    def evaluator(self, **kwargs):
        return CircuitExpectationEvaluator(
            circuit_source("hwe_ansatz"), self.OBSERVABLE, **kwargs
        )

    def test_compiled_and_generic_paths_agree(self):
        values = np.linspace(-2.0, 2.0, 24)
        fast = self.evaluator(compiled=True).expectation(values)
        slow = self.evaluator(compiled=False).expectation(values)
        assert fast == pytest.approx(slow, abs=1e-9)

    def test_restricted_basis_agrees(self):
        values = np.linspace(-2.0, 2.0, 24)
        default = self.evaluator().expectation(values)
        restricted = self.evaluator(lower_to={"rz", "rx", "cx"}).expectation(values)
        assert restricted == pytest.approx(default, abs=1e-9)

    def test_batch_matches_loop(self):
        evaluator = self.evaluator()
        batch = np.random.default_rng(3).uniform(-1, 1, size=(4, 24))
        vectorized = evaluator.expectation_batch(batch)
        looped = np.array([evaluator.expectation(row) for row in batch])
        assert np.abs(vectorized - looped).max() < 1e-9

    def test_named_bindings_match_positional(self):
        evaluator = self.evaluator()
        values = np.linspace(0.0, 1.0, 24)
        named = {p.name: v for p, v in zip(evaluator.parameters, values)}
        assert evaluator.expectation(named) == evaluator.expectation(values)

    def test_density_expectation_matches_statevector_when_noiseless(self):
        evaluator = self.evaluator()
        values = np.linspace(-0.5, 0.5, 24)
        exact = evaluator.expectation(values)
        density = evaluator.density_expectation(values)
        assert density == pytest.approx(exact, abs=1e-9)

    def test_density_expectation_with_noise_shrinks_signal(self):
        evaluator = self.evaluator()
        values = np.linspace(-0.5, 0.5, 24)
        model = NoiseModel()
        model.add_channel(DepolarizingChannel(0.05))
        noiseless = evaluator.density_expectation(values)
        noisy = evaluator.density_expectation(values, noise_model=model)
        assert abs(noisy) < abs(noiseless)

    def test_observable_qubit_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            CircuitExpectationEvaluator(
                circuit_source("hwe_ansatz"), PauliSum([(1.0, "ZZ")])
            )

    def test_program_cache_rebinds_instead_of_recompiling(self):
        evaluator = self.evaluator()
        simulator = evaluator.simulator
        rng = np.random.default_rng(11)
        for _ in range(4):
            evaluator.expectation(rng.uniform(-1, 1, 24))
        assert simulator.program_cache_misses == 1
        assert simulator.program_cache_hits >= 3

    def test_from_circuit_classmethod(self):
        from repro.qaoa.cost import ExpectationEvaluator

        evaluator = ExpectationEvaluator.from_circuit(
            circuit_source("hwe_ansatz"), self.OBSERVABLE
        )
        assert isinstance(evaluator, CircuitExpectationEvaluator)
        assert evaluator.num_parameters == 24


class TestExecutionSurface:
    def test_quantum_circuit_grew_a_to_qasm_hook(self):
        circuit = ingest(circuit_source("ghz"))
        text = circuit.to_qasm()
        assert text.startswith("OPENQASM 2.0;")
        rebuilt = ingest(text)
        state = StatevectorSimulator().run(rebuilt)
        assert state.probabilities()[0] == pytest.approx(0.5, abs=1e-12)
