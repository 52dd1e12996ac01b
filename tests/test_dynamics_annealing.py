"""AnnealingSolver: adiabatic convergence, backend gating, payloads."""

import pytest

from repro.dynamics import (
    AnnealingSchedule,
    AnnealingSolver,
    LINDBLAD_MAX_QUBITS,
    SCHRODINGER_MAX_QUBITS,
)
from repro.dynamics.annealing import AnnealingResult, dissipation_payload
from repro.exceptions import ConfigurationError
from repro.execution import ExecutionContext
from repro.graphs import MaxCutProblem, erdos_renyi_graph, random_regular_graph
from repro.quantum.noise import DepolarizingChannel, NoiseModel


@pytest.fixture
def problem(triangle_graph):
    return MaxCutProblem(triangle_graph)


class TestAdiabaticConvergence:
    """Acceptance gate: ratio >= 0.95 on small graphs at long anneal times."""

    @pytest.mark.parametrize(
        "graph",
        [
            erdos_renyi_graph(4, 0.9, seed=5),
            erdos_renyi_graph(6, 0.6, seed=2),
            random_regular_graph(3, 8, seed=1),
        ],
        ids=["er4", "er6", "reg8"],
    )
    def test_long_anneal_reaches_ratio(self, graph):
        solver = AnnealingSolver(rtol=1e-7, atol=1e-9)
        result = solver.solve(MaxCutProblem(graph), anneal_time=15.0)
        assert result.approximation_ratio >= 0.95
        assert result.invariant_drift < 1e-5

    def test_longer_anneal_improves_ratio(self, problem):
        solver = AnnealingSolver(rtol=1e-7, atol=1e-9)
        short = solver.solve(problem, anneal_time=0.5)
        long = solver.solve(problem, anneal_time=12.0)
        assert long.approximation_ratio > short.approximation_ratio

    def test_most_probable_assignment_is_optimal(self, problem):
        result = AnnealingSolver(rtol=1e-7, atol=1e-9).solve(
            problem, anneal_time=15.0
        )
        assert result.most_probable_assignment in problem.optimal_assignments()
        assert result.success_probability > 0.5

    def test_rk4_path_agrees_with_rk45(self, problem):
        adaptive = AnnealingSolver(rtol=1e-8, atol=1e-10).solve(
            problem, anneal_time=6.0
        )
        fixed = AnnealingSolver(method="rk4", num_steps=600).solve(
            problem, anneal_time=6.0
        )
        assert fixed.method == "rk4"
        assert fixed.optimal_expectation == pytest.approx(
            adaptive.optimal_expectation, abs=1e-6
        )

    def test_deterministic(self, problem):
        solver = AnnealingSolver(rtol=1e-7, atol=1e-9)
        first = solver.solve(problem, anneal_time=4.0)
        second = solver.solve(problem, anneal_time=4.0)
        assert first.optimal_expectation == second.optimal_expectation
        assert first.cut_distribution == second.cut_distribution


class TestDissipation:
    def test_dissipation_degrades_success(self, problem):
        closed = AnnealingSolver(rtol=1e-7, atol=1e-9).solve(
            problem, anneal_time=8.0
        )
        open_system = AnnealingSolver(
            rtol=1e-7, atol=1e-9, dissipation=0.1
        ).solve(problem, anneal_time=8.0)
        assert open_system.success_probability < closed.success_probability
        assert open_system.dissipation == {"kind": "depolarizing", "rate": 0.1}
        assert closed.dissipation is None

    def test_rates_mapping_and_noise_model_forms(self, problem):
        by_rates = AnnealingSolver(
            rtol=1e-7, atol=1e-9, dissipation={"Z": 0.05}
        ).solve(problem, anneal_time=4.0)
        assert by_rates.dissipation == {"kind": "rates", "rates": {"Z": 0.05}}
        model = NoiseModel().add_channel(DepolarizingChannel(0.02))
        by_model = AnnealingSolver(
            rtol=1e-7, atol=1e-9, dissipation=model
        ).solve(problem, anneal_time=4.0)
        assert by_model.dissipation["kind"] == "noise_model"

    def test_payload_validation(self):
        with pytest.raises(ConfigurationError, match="unknown jump"):
            dissipation_payload({"W": 0.1})
        with pytest.raises(ConfigurationError, match="rate"):
            dissipation_payload(-0.5)
        with pytest.raises(ConfigurationError, match="NoiseModel"):
            dissipation_payload(object())
        with pytest.raises(ConfigurationError, match="rate >= 0"):
            AnnealingSolver(dissipation=float("nan"))


class TestScheduleResolution:
    def test_explicit_schedule_wins(self, problem):
        ramp = AnnealingSchedule.linear(5.0)
        solver = AnnealingSolver(rtol=1e-7, atol=1e-9)
        result = solver.solve(problem, schedule=ramp)
        assert result.schedule == ramp.payload()
        assert result.anneal_time == 5.0

    def test_contradictory_time_and_schedule(self, problem):
        solver = AnnealingSolver()
        with pytest.raises(ConfigurationError, match="contradicts"):
            solver.solve(problem, anneal_time=3.0, schedule=AnnealingSchedule.linear(5.0))

    def test_solver_default_schedule(self, problem):
        solver = AnnealingSolver(AnnealingSchedule.smooth(4.0), rtol=1e-7, atol=1e-9)
        result = solver.solve(problem)
        assert result.anneal_time == 4.0

    def test_no_time_source_raises(self, problem):
        with pytest.raises(ConfigurationError, match="anneal_time"):
            AnnealingSolver().solve(problem)
        with pytest.raises(ConfigurationError, match="anneal_time"):
            AnnealingSolver().solve(problem, "x")

    def test_bare_time_builds_smooth_ramp(self):
        resolved = AnnealingSolver().resolve_schedule(7.0, None)
        assert resolved == AnnealingSchedule.smooth(7.0)


class TestCapabilityGating:
    def test_fast_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="continuous-time"):
            AnnealingSolver(context="fast")

    def test_context_object_accepted(self):
        solver = AnnealingSolver(context=ExecutionContext(backend="circuit"))
        assert solver.backend == "circuit"
        assert solver.context.backend == "circuit"

    def test_register_ceilings(self):
        big = MaxCutProblem(
            erdos_renyi_graph(SCHRODINGER_MAX_QUBITS + 1, 0.5, seed=0)
        )
        with pytest.raises(ConfigurationError, match="limited to"):
            AnnealingSolver().solve(big, anneal_time=1.0)
        medium = MaxCutProblem(
            erdos_renyi_graph(LINDBLAD_MAX_QUBITS + 1, 0.5, seed=0)
        )
        with pytest.raises(ConfigurationError, match="dissipative"):
            AnnealingSolver(dissipation=0.1).solve(medium, anneal_time=1.0)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError, match="unknown integration method"):
            AnnealingSolver(method="euler")
        with pytest.raises(ConfigurationError, match="AnnealingSchedule"):
            AnnealingSolver(schedule=5.0)
        with pytest.raises(ConfigurationError, match="MaxCutProblem"):
            AnnealingSolver().solve("not a problem", anneal_time=1.0)


class TestResultPayload:
    def test_round_trip(self, problem):
        result = AnnealingSolver(rtol=1e-7, atol=1e-9).solve(problem, anneal_time=4.0)
        rebuilt = AnnealingResult.from_payload(result.to_payload())
        assert rebuilt.optimal_expectation == result.optimal_expectation
        assert rebuilt.approximation_ratio == result.approximation_ratio
        assert rebuilt.schedule == result.schedule
        assert rebuilt.context == result.context
        assert rebuilt.cut_distribution == result.cut_distribution

    def test_to_dict_includes_ratio(self, problem):
        result = AnnealingSolver(rtol=1e-7, atol=1e-9).solve(problem, anneal_time=4.0)
        payload = result.to_dict()
        assert payload["approximation_ratio"] == result.approximation_ratio

    def test_distribution_sums_to_one(self, problem):
        result = AnnealingSolver(rtol=1e-7, atol=1e-9).solve(problem, anneal_time=4.0)
        total = sum(probability for _, probability in result.cut_distribution)
        assert total == pytest.approx(1.0)

    def test_options_payload_shape(self):
        payload = AnnealingSolver(dissipation=0.2).options_payload()
        assert payload["method"] == "rk45"
        assert payload["backend"] == "circuit"
        assert payload["dissipation"] == {"kind": "depolarizing", "rate": 0.2}
