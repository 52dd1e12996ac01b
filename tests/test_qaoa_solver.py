"""Tests for repro.qaoa.solver and repro.qaoa.landscape."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.graphs.maxcut import MaxCutProblem
from repro.graphs.model import Graph
from repro.optimizers.scipy_optimizers import NelderMeadOptimizer
from repro.qaoa.landscape import depth_one_landscape
from repro.qaoa.parameters import QAOAParameters
from repro.qaoa.solver import QAOASolver


class TestSolverBasics:
    def test_single_edge_p1_reaches_optimum(self):
        problem = MaxCutProblem(Graph(2, [(0, 1)]))
        solver = QAOASolver("L-BFGS-B", num_restarts=3, seed=0)
        result = solver.solve(problem, 1)
        # A depth-1 QAOA solves a single edge exactly (AR = 1).
        assert result.approximation_ratio == pytest.approx(1.0, abs=1e-4)

    def test_ar_improves_with_depth(self, small_problem):
        solver = QAOASolver("L-BFGS-B", num_restarts=3, seed=1)
        shallow = solver.solve(small_problem, 1)
        deep = solver.solve(small_problem, 3)
        assert deep.approximation_ratio >= shallow.approximation_ratio - 0.02

    def test_result_bookkeeping(self, triangle_problem):
        solver = QAOASolver("COBYLA", num_restarts=2, seed=3)
        result = solver.solve(triangle_problem, 2)
        assert result.depth == 2
        assert result.num_restarts == 2
        assert len(result.restarts) == 2
        assert result.num_function_calls == sum(
            record.num_function_calls for record in result.restarts
        )
        assert result.optimal_expectation == pytest.approx(
            max(record.optimal_expectation for record in result.restarts)
        )
        assert result.initialization == "random"
        assert 0.0 < result.approximation_ratio <= 1.0 + 1e-9

    def test_result_to_dict(self, triangle_problem):
        result = QAOASolver(num_restarts=1, seed=0).solve(triangle_problem, 1)
        payload = result.to_dict()
        assert payload["depth"] == 1
        assert payload["problem_name"] == triangle_problem.name
        assert len(payload["optimal_gammas"]) == 1

    def test_warm_start_runs_single_restart(self, triangle_problem):
        solver = QAOASolver("L-BFGS-B", seed=0)
        warm = QAOAParameters((0.6,), (0.4,))
        result = solver.solve(triangle_problem, 1, initial_parameters=warm)
        assert result.num_restarts == 1
        assert result.initialization == "warm"
        assert result.restarts[0].initial_parameters == warm

    def test_warm_start_depth_mismatch_raises(self, triangle_problem):
        solver = QAOASolver(seed=0)
        with pytest.raises(ConfigurationError):
            solver.solve(triangle_problem, 2, initial_parameters=QAOAParameters((0.1,), (0.2,)))

    def test_invalid_restart_counts(self, triangle_problem):
        with pytest.raises(ConfigurationError):
            QAOASolver(num_restarts=0)
        solver = QAOASolver(seed=0)
        with pytest.raises(ConfigurationError):
            solver.solve(triangle_problem, 1, num_restarts=0)

    def test_accepts_optimizer_instance(self, triangle_problem):
        solver = QAOASolver(NelderMeadOptimizer(max_iterations=200), num_restarts=1, seed=2)
        result = solver.solve(triangle_problem, 1)
        assert result.optimizer_name == "Nelder-Mead"
        assert result.approximation_ratio > 0.6

    def test_deterministic_given_seed(self, triangle_problem):
        a = QAOASolver("L-BFGS-B", num_restarts=2, seed=9).solve(triangle_problem, 2)
        b = QAOASolver("L-BFGS-B", num_restarts=2, seed=9).solve(triangle_problem, 2)
        np.testing.assert_allclose(
            a.optimal_parameters.to_vector(), b.optimal_parameters.to_vector()
        )
        assert a.num_function_calls == b.num_function_calls

    def test_circuit_backend_solver(self, triangle_problem):
        solver = QAOASolver("L-BFGS-B", num_restarts=1, context="circuit", seed=4)
        result = solver.solve(triangle_problem, 1)
        assert result.approximation_ratio > 0.6

    def test_bounded_optimization(self, triangle_problem):
        solver = QAOASolver("L-BFGS-B", num_restarts=2, use_bounds=True, seed=5)
        result = solver.solve(triangle_problem, 1)
        gamma, beta = result.optimal_parameters.gammas[0], result.optimal_parameters.betas[0]
        assert 0.0 <= gamma <= 2 * np.pi + 1e-9
        assert 0.0 <= beta <= np.pi + 1e-9


class TestLandscape:
    def test_grid_shape_and_best_point(self, triangle_problem):
        scan = depth_one_landscape(triangle_problem, gamma_resolution=12, beta_resolution=10)
        assert scan.shape == (12, 10)
        assert scan.best_expectation == pytest.approx(scan.expectations.max())
        assert scan.best_parameters.depth == 1

    def test_best_grid_point_close_to_optimizer_result(self, triangle_problem):
        scan = depth_one_landscape(triangle_problem, gamma_resolution=40, beta_resolution=24)
        solver_result = QAOASolver("L-BFGS-B", num_restarts=5, seed=0).solve(
            triangle_problem, 1
        )
        assert solver_result.optimal_expectation >= scan.best_expectation - 1e-6
        assert scan.best_expectation >= 0.9 * solver_result.optimal_expectation

    def test_invalid_resolution_raises(self, triangle_problem):
        with pytest.raises(ConfigurationError):
            depth_one_landscape(triangle_problem, gamma_resolution=1)
