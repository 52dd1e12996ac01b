"""Tests for the QAOA circuit builder, fast backend and expectation evaluator."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.graphs.maxcut import MaxCutProblem
from repro.graphs.model import Graph
from repro.qaoa.circuit_builder import (
    build_maxcut_qaoa_circuit,
    build_parametric_qaoa_circuit,
    qaoa_gate_counts,
)
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.fast_backend import FastMaxCutEvaluator
from repro.qaoa.parameters import QAOAParameters, random_parameters
from repro.quantum.simulator import StatevectorSimulator


class TestCircuitBuilder:
    def test_structure_and_gate_counts(self, small_problem):
        params = QAOAParameters((0.3, 0.5), (0.2, 0.1))
        circuit = build_maxcut_qaoa_circuit(small_problem, params)
        counts = circuit.count_ops()
        edges = small_problem.graph.num_edges
        nodes = small_problem.num_qubits
        assert counts["h"] == nodes
        assert counts["cx"] == 2 * edges * 2
        assert counts["rz"] == edges * 2
        assert counts["rx"] == nodes * 2
        assert circuit.num_parameters == 0

    def test_gate_count_helper_matches_circuit(self, small_problem):
        params = QAOAParameters((0.3, 0.5, 0.1), (0.2, 0.1, 0.4))
        circuit = build_maxcut_qaoa_circuit(small_problem, params)
        expected = qaoa_gate_counts(small_problem, 3)
        assert circuit.size() == expected["total"]

    def test_parametric_circuit_binding(self, triangle_problem):
        circuit, gammas, betas = build_parametric_qaoa_circuit(triangle_problem, 2)
        assert circuit.num_parameters == 4
        bound = circuit.bind({gammas[0]: 0.1, gammas[1]: 0.2, betas[0]: 0.3, betas[1]: 0.4})
        assert bound.num_parameters == 0

    def test_parametric_circuit_invalid_depth(self, triangle_problem):
        with pytest.raises(ConfigurationError):
            build_parametric_qaoa_circuit(triangle_problem, 0)

    def test_parametric_matches_bound_circuit(self, triangle_problem):
        params = QAOAParameters((0.7,), (0.4,))
        direct = build_maxcut_qaoa_circuit(triangle_problem, params)
        symbolic, gammas, betas = build_parametric_qaoa_circuit(triangle_problem, 1)
        bound = symbolic.bind({gammas[0]: 0.7, betas[0]: 0.4})
        simulator = StatevectorSimulator()
        assert simulator.run(direct).equiv(simulator.run(bound))


class TestFastBackend:
    def test_agrees_with_circuit_simulation(self, small_problem, rng):
        hamiltonian = small_problem.cost_hamiltonian()
        simulator = StatevectorSimulator()
        fast = FastMaxCutEvaluator(small_problem)
        for depth in (1, 2, 3):
            params = random_parameters(depth, rng)
            circuit = build_maxcut_qaoa_circuit(small_problem, params)
            circuit_value = simulator.expectation(circuit, hamiltonian)
            assert fast.expectation(params) == pytest.approx(circuit_value, abs=1e-9)

    def test_statevectors_agree_up_to_global_phase(self, triangle_problem, rng):
        fast = FastMaxCutEvaluator(triangle_problem)
        simulator = StatevectorSimulator()
        params = random_parameters(2, rng)
        circuit_state = simulator.run(build_maxcut_qaoa_circuit(triangle_problem, params))
        assert fast.statevector(params).equiv(circuit_state)

    def test_zero_angles_give_uniform_state(self, small_problem):
        fast = FastMaxCutEvaluator(small_problem)
        value = fast.expectation(QAOAParameters((0.0,), (0.0,)))
        assert value == pytest.approx(small_problem.random_cut_expectation())

    def test_single_edge_analytic_formula(self):
        # For a single edge with U_C = exp(-i gamma C) and mixer exp(-i beta X)
        # per qubit, <C>(gamma, beta) = 1/2 + 1/2 sin(4 beta) sin(gamma).
        problem = MaxCutProblem(Graph(2, [(0, 1)]))
        fast = FastMaxCutEvaluator(problem)
        for gamma, beta in [(0.3, 0.2), (1.0, 0.7), (2.5, 1.4)]:
            expected = 0.5 + 0.5 * np.sin(4 * beta) * np.sin(gamma)
            assert fast.expectation(QAOAParameters((gamma,), (beta,))) == pytest.approx(
                expected, abs=1e-9
            )

    def test_expectation_bounded_by_optimum(self, small_problem, rng):
        fast = FastMaxCutEvaluator(small_problem)
        optimum = small_problem.max_cut_value()
        for depth in (1, 2):
            value = fast.expectation(random_parameters(depth, rng))
            assert 0.0 <= value <= optimum + 1e-9

    def test_evaluation_counter(self, triangle_problem, rng):
        fast = FastMaxCutEvaluator(triangle_problem)
        fast.expectation(random_parameters(1, rng))
        fast.expectation(random_parameters(1, rng))
        assert fast.num_evaluations == 2

    def test_sample_cut_distribution(self, triangle_problem, rng):
        fast = FastMaxCutEvaluator(triangle_problem)
        distribution = fast.sample_cut_distribution(random_parameters(1, rng), 50, rng=rng)
        assert sum(item["count"] for item in distribution.values()) == 50
        for bitstring, item in distribution.items():
            assert item["cut_value"] == triangle_problem.cut_value(bitstring)

    def test_qubit_limit(self):
        problem = MaxCutProblem(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(SimulationError):
            FastMaxCutEvaluator(problem, max_qubits=2)

    def test_flat_vector_equals_parameters_exactly(self, small_problem, rng):
        # The evaluator's programs pass flat vectors and public callers may
        # pass QAOAParameters; both must give the same bits.
        fast = FastMaxCutEvaluator(small_problem)
        for depth in (1, 2, 3):
            vector = random_parameters(depth, rng).to_vector()
            parameters = QAOAParameters.from_vector(vector)
            assert fast.expectation(vector) == fast.expectation(parameters)
            np.testing.assert_array_equal(
                fast.statevector(vector).data, fast.statevector(parameters).data
            )

    @pytest.mark.parametrize("vector", [[], [0.1], [0.1, 0.2, 0.3], ["a", "b"]])
    def test_empty_or_odd_vector_rejected(self, triangle_problem, vector):
        # Every entry point refuses malformed angles with the same type; the
        # batch methods get the vector as a one-row batch.
        fast = FastMaxCutEvaluator(triangle_problem)
        for method in ("expectation", "statevector", "expectation_batch", "statevector_batch"):
            argument = [vector] if method.endswith("_batch") else vector
            with pytest.raises(ConfigurationError, match="positive even|real numbers"):
                getattr(fast, method)(argument)


class TestExpectationEvaluator:
    def test_backends_agree(self, triangle_problem, rng):
        fast = ExpectationEvaluator(triangle_problem, 2, context="fast")
        circuit = ExpectationEvaluator(triangle_problem, 2, context="circuit")
        vector = random_parameters(2, rng).to_vector()
        assert fast.expectation(vector) == pytest.approx(
            circuit.expectation(vector), abs=1e-9
        )

    def test_wrong_vector_length_raises(self, triangle_problem):
        evaluator = ExpectationEvaluator(triangle_problem, 2)
        with pytest.raises(ConfigurationError):
            evaluator.expectation([0.1, 0.2])

    def test_invalid_backend_raises(self, triangle_problem):
        with pytest.raises(ConfigurationError):
            ExpectationEvaluator(triangle_problem, 1, context="gpu")

    def test_invalid_depth_raises(self, triangle_problem):
        with pytest.raises(ConfigurationError):
            ExpectationEvaluator(triangle_problem, 0)

    def test_evaluation_counter(self, triangle_problem, rng):
        evaluator = ExpectationEvaluator(triangle_problem, 1)
        evaluator.expectation(random_parameters(1, rng).to_vector())
        assert evaluator.num_evaluations == 1

    def test_approximation_ratio(self, triangle_problem):
        evaluator = ExpectationEvaluator(triangle_problem, 1)
        ratio = evaluator.approximation_ratio([0.0, 0.0])
        assert ratio == pytest.approx(
            triangle_problem.random_cut_expectation() / triangle_problem.max_cut_value()
        )
