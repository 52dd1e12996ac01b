"""Tests for the fast MaxCut evaluator: the oracles, batching, ensembles."""

import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.graphs.model import Graph
from repro.qaoa.circuit_builder import build_parametric_qaoa_circuit
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.ensemble import EnsembleEvaluator
from repro.qaoa.fast_backend import _BLOCK_ELEMENTS, FastMaxCutEvaluator
from repro.qaoa.landscape import depth_one_landscape
from repro.qaoa.parameters import QAOAParameters, random_parameters
from repro.qaoa.solver import QAOASolver
from repro.quantum.simulator import StatevectorSimulator


@st.composite
def qaoa_cases(draw):
    """A weighted or unweighted graph on 2-10 nodes and depth-1-3 angles."""
    num_nodes = draw(st.integers(min_value=2, max_value=10))
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    if draw(st.booleans()):
        weights = st.floats(min_value=0.1, max_value=3.0, allow_nan=False)
        chosen = [(u, v, draw(weights)) for u, v in chosen]
    depth = draw(st.integers(min_value=1, max_value=3))
    angle = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
    rows = draw(
        st.lists(st.lists(angle, min_size=2 * depth, max_size=2 * depth), min_size=1, max_size=4)
    )
    return MaxCutProblem(Graph(num_nodes, chosen)), depth, np.array(rows)


def generic_state(problem, depth, vector):
    """The gate-by-gate state of the parametric circuit (the independent oracle)."""
    circuit, gammas, betas = build_parametric_qaoa_circuit(problem, depth)
    bindings = dict(zip(list(gammas) + list(betas), vector))
    return StatevectorSimulator(compiled=False).run(circuit, bindings)


class TestAgainstGenericSimulator:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=qaoa_cases())
    def test_matches_generic_simulator(self, case):
        problem, depth, matrix = case
        evaluator = FastMaxCutEvaluator(problem)
        hamiltonian = problem.cost_hamiltonian()
        scalars = np.array([evaluator.expectation(row) for row in matrix])
        np.testing.assert_allclose(evaluator.expectation_batch(matrix), scalars, rtol=0, atol=1e-12)
        for row, value in zip(matrix, scalars):
            oracle = generic_state(problem, depth, row)
            assert value == pytest.approx(hamiltonian.expectation(oracle), abs=1e-10)
            state = evaluator.statevector(row)
            assert state.norm() == pytest.approx(1.0, abs=1e-12)
            overlap = np.vdot(oracle.data, state.data)
            np.testing.assert_allclose(state.data, oracle.data * overlap, atol=1e-10)

    @pytest.mark.parametrize("weight", [1000, 1e9])
    def test_large_integer_weights(self, weight, rng):
        # The level table holds the distinct cut values, never more than dim
        # of them, however large the weights.  Phases of size weight * gamma
        # round at about 1e-16 of their size, hence the scaled tolerance.
        problem = MaxCutProblem(Graph(4, [(0, 1, weight), (1, 2), (2, 3, 2.0), (0, 3, weight)]))
        evaluator = FastMaxCutEvaluator(problem)
        held = [value for value in vars(evaluator).values() if isinstance(value, np.ndarray)]
        assert all(array.size <= evaluator.dim for array in held)
        tolerance = 1e-10 + 1e-15 * weight
        for depth in (1, 3):
            vector = random_parameters(depth, rng).to_vector()
            oracle = generic_state(problem, depth, vector)
            state = evaluator.statevector(vector)
            overlap = np.vdot(oracle.data, state.data)
            np.testing.assert_allclose(state.data, oracle.data * overlap, atol=tolerance)
            expected = problem.cost_hamiltonian().expectation(oracle)
            assert evaluator.expectation(vector) == pytest.approx(expected, rel=tolerance)

    def test_threads_sharing_one_evaluator_get_serial_values(self):
        # More threads than cores and a short switch interval: a shared
        # state buffer or a lost counter update would show.
        evaluator = FastMaxCutEvaluator(MaxCutProblem(erdos_renyi_graph(10, 0.5, seed=3)))
        chunks = [
            np.array([random_parameters(2, 10 * t + k).to_vector() for k in range(5)])
            for t in range(4)
        ]
        serial = [[evaluator.expectation(row) for row in chunk] for chunk in chunks]
        barrier = threading.Barrier(len(chunks))
        results = [None] * len(chunks)

        def work(index):
            barrier.wait(timeout=30)
            results[index] = [evaluator.expectation(row) for row in chunks[index]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(chunks))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial
        assert evaluator.num_evaluations == 2 * 4 * 5


def dense_statevector(problem, parameters):
    """The QAOA state through explicit 2^n x 2^n mixer matrices (the dense oracle)."""
    num_qubits = problem.num_qubits
    cost = problem.cost_diagonal()
    amplitudes = np.full(2**num_qubits, 2 ** (-num_qubits / 2), dtype=complex)
    for gamma, beta in zip(parameters.gammas, parameters.betas):
        rx = np.array([[np.cos(beta), -1j * np.sin(beta)], [-1j * np.sin(beta), np.cos(beta)]])
        mixer = functools.reduce(np.kron, [rx] * num_qubits)  # exp(-i beta sum_q X_q)
        amplitudes = mixer @ (np.exp(-1j * gamma * cost) * amplitudes)
    return amplitudes


class TestFastAgainstDenseOracle:
    @pytest.mark.parametrize("num_nodes", [4, 7, 10])
    def test_statevector_matches_dense(self, num_nodes, rng):
        problem = MaxCutProblem(erdos_renyi_graph(num_nodes, 0.5, seed=num_nodes))
        fast = FastMaxCutEvaluator(problem)
        for _ in range(3):
            parameters = random_parameters(2, rng)
            np.testing.assert_allclose(
                fast.statevector(parameters).data,
                dense_statevector(problem, parameters),
                atol=1e-10,
            )

    def test_expectation_matches_dense(self, small_problem, rng):
        fast = FastMaxCutEvaluator(small_problem)
        for depth in (1, 3):
            parameters = random_parameters(depth, rng)
            dense = np.abs(dense_statevector(small_problem, parameters)) ** 2
            assert fast.expectation(parameters) == pytest.approx(
                dense @ small_problem.cost_diagonal(), abs=1e-10
            )

    def test_no_dense_matrix_attribute(self, small_problem, rng):
        # No 2^n x 2^n operator is ever materialised: the evaluator holds
        # vectors of at most dim entries, and each thread's two buffers hold
        # one block of at most max(dim, _BLOCK_ELEMENTS) amplitudes.
        evaluator = FastMaxCutEvaluator(small_problem)
        evaluator.expectation_batch(rng.uniform(0, 1, size=(300, 4)))
        held = [value for value in vars(evaluator).values() if isinstance(value, np.ndarray)]
        assert held and all(array.ndim == 1 and array.size <= evaluator.dim for array in held)
        limit = max(evaluator.dim, _BLOCK_ELEMENTS)
        assert all(buffer.size <= limit for buffer in evaluator._buffers.pair)

    def test_fast_ceiling_is_raised(self, small_problem):
        # Construction succeeds up to the 26-qubit default ceiling.
        assert FastMaxCutEvaluator(small_problem, max_qubits=26) is not None


class TestExpectationBatch:
    def test_matches_looped_scalar_calls(self, small_problem, rng):
        evaluator = FastMaxCutEvaluator(small_problem)
        matrix = np.array([random_parameters(3, rng).to_vector() for _ in range(9)])
        batch = evaluator.expectation_batch(matrix)
        scalars = np.array([evaluator.expectation(row) for row in matrix])
        np.testing.assert_allclose(batch, scalars, atol=1e-12)

    def test_accepts_parameter_objects(self, triangle_problem, rng):
        evaluator = FastMaxCutEvaluator(triangle_problem)
        params = [random_parameters(2, rng) for _ in range(4)]
        batch = evaluator.expectation_batch(params)
        scalars = [evaluator.expectation(p) for p in params]
        np.testing.assert_allclose(batch, scalars, atol=1e-12)

    def test_counts_evaluations(self, triangle_problem, rng):
        evaluator = FastMaxCutEvaluator(triangle_problem)
        evaluator.expectation_batch(
            np.array([random_parameters(1, rng).to_vector() for _ in range(5)])
        )
        assert evaluator.num_evaluations == 5

    def test_empty_batch(self, triangle_problem):
        evaluator = FastMaxCutEvaluator(triangle_problem)
        assert evaluator.expectation_batch(np.zeros((0, 2))).shape == (0,)

    def test_statevector_batch_columns_are_states(self, small_problem, rng):
        evaluator = FastMaxCutEvaluator(small_problem)
        matrix = np.array([random_parameters(2, rng).to_vector() for _ in range(3)])
        columns = evaluator.statevector_batch(matrix)
        norms = np.linalg.norm(columns, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_mixed_depth_batch_rejected(self, triangle_problem, rng):
        evaluator = FastMaxCutEvaluator(triangle_problem)
        mixed = [random_parameters(1, rng), random_parameters(2, rng)]
        with pytest.raises(ConfigurationError):
            evaluator.expectation_batch(mixed)
        with pytest.raises(ConfigurationError):
            evaluator.statevector_batch(mixed)

    def test_cost_evaluator_batch_both_backends_agree(self, triangle_problem, rng):
        matrix = np.array([random_parameters(2, rng).to_vector() for _ in range(3)])
        fast = ExpectationEvaluator(triangle_problem, 2, context="fast")
        circuit = ExpectationEvaluator(triangle_problem, 2, context="circuit")
        np.testing.assert_allclose(
            fast.expectation_batch(matrix),
            circuit.expectation_batch(matrix),
            atol=1e-9,
        )
        assert fast.num_evaluations == 3
        assert circuit.num_evaluations == 3

    def test_cost_evaluator_batch_validates_width(self, triangle_problem):
        evaluator = ExpectationEvaluator(triangle_problem, 2, context="fast")
        with pytest.raises(ConfigurationError):
            evaluator.expectation_batch(np.zeros((2, 3)))


class TestSolverRewire:
    def test_results_identical_at_fixed_seed(self, small_problem):
        # The batched engine must not change the default optimization flow.
        first = QAOASolver("L-BFGS-B", num_restarts=3, seed=11).solve(small_problem, 2)
        second = QAOASolver("L-BFGS-B", num_restarts=3, seed=11).solve(small_problem, 2)
        assert first.optimal_expectation == second.optimal_expectation
        assert first.optimal_parameters == second.optimal_parameters
        assert first.num_function_calls == second.num_function_calls
        assert first.initialization == "random"

    def test_candidate_pool_screens_starts(self, small_problem):
        solver = QAOASolver("L-BFGS-B", num_restarts=2, candidate_pool=12, seed=4)
        result = solver.solve(small_problem, 2)
        assert result.initialization == "screened"
        assert result.num_restarts == 2
        # Screening evaluations are charged to the function-call budget.
        assert result.num_function_calls >= 12 + sum(
            record.num_function_calls for record in result.restarts
        )

    def test_candidate_pool_finds_no_worse_optimum(self, small_problem):
        plain = QAOASolver("L-BFGS-B", num_restarts=2, seed=8).solve(small_problem, 2)
        screened = QAOASolver(
            "L-BFGS-B", num_restarts=2, candidate_pool=16, seed=8
        ).solve(small_problem, 2)
        assert screened.optimal_expectation >= plain.optimal_expectation - 0.1

    def test_invalid_candidate_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            QAOASolver("L-BFGS-B", candidate_pool=0)

    def test_landscape_matches_scalar_scan(self, triangle_problem):
        scan = depth_one_landscape(triangle_problem, gamma_resolution=6, beta_resolution=5)
        evaluator = FastMaxCutEvaluator(triangle_problem)
        for i, gamma in enumerate(scan.gamma_values):
            for j, beta in enumerate(scan.beta_values):
                assert scan.expectations[i, j] == pytest.approx(
                    evaluator.expectation(
                        QAOAParameters((float(gamma),), (float(beta),))
                    ),
                    abs=1e-12,
                )


class TestEnsembleEvaluator:
    @pytest.fixture(scope="class")
    def problems(self):
        return [
            MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=seed)) for seed in range(4)
        ]

    def test_fans_vector_across_problems(self, problems, rng):
        evaluator = EnsembleEvaluator(problems, 2)
        vector = random_parameters(2, rng).to_vector()
        values = evaluator.expectation(vector)
        assert values.shape == (4,)
        for problem, value in zip(problems, values):
            expected = FastMaxCutEvaluator(problem).expectation(vector)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_batch_shape(self, problems, rng):
        evaluator = EnsembleEvaluator(problems, 2)
        matrix = np.array([random_parameters(2, rng).to_vector() for _ in range(5)])
        assert evaluator.expectation_batch(matrix).shape == (4, 5)

    def test_process_pool_matches_serial(self, problems, rng):
        matrix = np.array([random_parameters(2, rng).to_vector() for _ in range(3)])
        serial = EnsembleEvaluator(problems, 2).expectation_batch(matrix)
        pooled = EnsembleEvaluator(problems, 2, max_workers=2).expectation_batch(matrix)
        np.testing.assert_allclose(serial, pooled, atol=1e-12)

    def test_approximation_ratios_bounded(self, problems, rng):
        evaluator = EnsembleEvaluator(problems, 1)
        ratios = evaluator.approximation_ratios(random_parameters(1, rng).to_vector())
        assert np.all(ratios >= 0.0) and np.all(ratios <= 1.0 + 1e-9)

    def test_accepts_graphs(self, rng):
        graphs = [erdos_renyi_graph(5, 0.5, seed=s) for s in range(2)]
        evaluator = EnsembleEvaluator(graphs, 1)
        assert evaluator.num_problems == 2

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ConfigurationError):
            EnsembleEvaluator([], 1)


class TestSampleCountsVectorized:
    def test_counts_sum_to_shots(self, small_problem, rng):
        state = FastMaxCutEvaluator(small_problem).statevector(
            random_parameters(1, rng)
        )
        counts = state.sample_counts(500, rng=rng)
        assert sum(counts.values()) == 500
        assert all(len(key) == small_problem.num_qubits for key in counts)

    def test_deterministic_given_seeded_rng(self, small_problem):
        state = FastMaxCutEvaluator(small_problem).statevector(
            QAOAParameters((0.4,), (0.3,))
        )
        first = state.sample_counts(200, rng=np.random.default_rng(42))
        second = state.sample_counts(200, rng=np.random.default_rng(42))
        assert first == second
