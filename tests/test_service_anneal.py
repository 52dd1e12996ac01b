"""Annealing jobs through the solver service: caching, dedup, metrics."""

import pytest

from repro.dynamics import AnnealingSchedule
from repro.dynamics.annealing import AnnealingResult
from repro.exceptions import ConfigurationError, ServiceError
from repro.graphs import MaxCutProblem, erdos_renyi_graph
from repro.service import JobStatus, SolverService


@pytest.fixture(scope="module")
def problem():
    return MaxCutProblem(erdos_renyi_graph(6, 0.6, seed=2))


@pytest.fixture()
def service():
    svc = SolverService(max_workers=2)
    yield svc
    svc.shutdown()


class TestAnnealJobs:
    def test_submit_and_result(self, service, problem):
        handle = service.submit_anneal(problem, anneal_time=4.0, rtol=1e-6, atol=1e-8)
        result = handle.result(timeout=60)
        assert handle.status is JobStatus.COMPLETED
        assert isinstance(result, AnnealingResult)
        assert result.approximation_ratio > 0.5
        assert service.metrics.to_dict()["jobs"]["anneals"] == 1

    def test_warm_resubmission_from_cache(self, service, problem):
        cold = service.submit_anneal(problem, anneal_time=3.0, rtol=1e-6, atol=1e-8)
        first = cold.result(timeout=60)
        warm = service.submit_anneal(problem, anneal_time=3.0, rtol=1e-6, atol=1e-8)
        assert warm.from_cache
        assert warm.result(timeout=60).optimal_expectation == first.optimal_expectation

    def test_schedule_and_bare_time_share_cache_key(self, service, problem):
        # anneal_time=T resolves to the same smooth ramp as the explicit
        # schedule, so the second submission must hit the result cache.
        service.submit_anneal(problem, anneal_time=3.5, rtol=1e-6, atol=1e-8).result(
            timeout=60
        )
        warm = service.submit_anneal(
            problem,
            schedule=AnnealingSchedule.smooth(3.5),
            rtol=1e-6,
            atol=1e-8,
        )
        assert warm.from_cache

    def test_different_options_miss_cache(self, service, problem):
        service.submit_anneal(problem, anneal_time=3.0, rtol=1e-6, atol=1e-8).result(
            timeout=60
        )
        other = service.submit_anneal(
            problem, anneal_time=3.0, rtol=1e-5, atol=1e-7
        )
        assert not other.from_cache
        assert other.result(timeout=60).approximation_ratio > 0.5

    def test_identical_inflight_submissions_deduplicate(self, problem):
        # A single worker guarantees the second submission arrives while the
        # first is still queued or running.
        service = SolverService(max_workers=1)
        try:
            blocker = service.submit_callable(lambda: __import__("time").sleep(0.3))
            primary = service.submit_anneal(
                problem, anneal_time=3.0, rtol=1e-6, atol=1e-8
            )
            echo = service.submit_anneal(
                problem, anneal_time=3.0, rtol=1e-6, atol=1e-8
            )
            assert echo.deduplicated
            assert not primary.deduplicated
            blocker.result(timeout=60)
            assert (
                echo.result(timeout=60).optimal_expectation
                == primary.result(timeout=60).optimal_expectation
            )
            assert service.metrics.to_dict()["jobs"]["deduplicated"] >= 1
        finally:
            service.shutdown()

    def test_dissipative_anneal_runs(self, service, problem):
        handle = service.submit_anneal(
            problem, anneal_time=3.0, rtol=1e-6, atol=1e-8, dissipation=0.05
        )
        result = handle.result(timeout=60)
        assert result.dissipation == {"kind": "depolarizing", "rate": 0.05}

    def test_invalid_options_raise_at_submit(self, service, problem):
        with pytest.raises(ConfigurationError, match="continuous-time"):
            service.submit_anneal(problem, anneal_time=1.0, context="fast")
        with pytest.raises(ConfigurationError, match="anneal_time"):
            service.submit_anneal(problem)

    def test_shutdown_rejects_new_anneals(self, problem):
        service = SolverService(max_workers=1)
        service.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            service.submit_anneal(problem, anneal_time=1.0)
