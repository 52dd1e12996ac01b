"""Solver service: job lifecycle, caching, coalescing, timeouts, shutdown."""

import threading

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    JobCancelledError,
    JobTimeoutError,
    ServiceError,
    TransientServiceError,
)
from repro.execution import ExecutionContext
from repro.frontend.library import circuit_source
from repro.graphs import Graph, MaxCutProblem, erdos_renyi_graph
from repro.resilience import RetryPolicy
from repro.service import (
    JobStatus,
    LRUCache,
    RequestCoalescer,
    ServiceMetrics,
    SolverService,
)


@pytest.fixture(scope="module")
def problem():
    return MaxCutProblem(erdos_renyi_graph(8, 0.5, seed=7))


@pytest.fixture()
def service():
    svc = SolverService(max_workers=2)
    yield svc
    svc.shutdown()


class TestJobLifecycle:
    def test_submit_returns_handle_and_result(self, service, problem):
        handle = service.submit(problem, depth=1, seed=3)
        result = handle.result(timeout=60)
        assert handle.status is JobStatus.COMPLETED
        assert handle.done
        assert result.approximation_ratio > 0.5
        assert handle.exception() is None

    def test_unseeded_jobs_run_independently(self, service, problem):
        first = service.submit(problem, depth=1)
        second = service.submit(problem, depth=1)
        first.result(timeout=60)
        second.result(timeout=60)
        assert not first.from_cache and not second.from_cache
        assert not first.deduplicated and not second.deduplicated

    def test_failed_job_reraises(self, service):
        def boom():
            raise ValueError("intentional")

        handle = service.submit_callable(boom)
        with pytest.raises(ValueError, match="intentional"):
            handle.result(timeout=30)
        assert handle.status is JobStatus.FAILED
        assert isinstance(handle.exception(), ValueError)

    def test_invalid_depth_rejected(self, service, problem):
        with pytest.raises(ConfigurationError):
            service.submit(problem, depth=0)

    @pytest.mark.parametrize(
        "submit",
        [
            pytest.param(lambda s, p: s.submit(p, "2"), id="depth-str"),
            pytest.param(lambda s, p: s.submit(p, 1.5, seed=1), id="depth-float"),
            pytest.param(lambda s, p: s.submit(p, 1, seed="a"), id="seed-str"),
            pytest.param(
                lambda s, p: s.submit_circuit(circuit_source("ghz"), None),
                id="observable-none",
            ),
            pytest.param(
                lambda s, p: s.submit_circuit(circuit_source("ghz"), "ZZ"),
                id="observable-str",
            ),
            pytest.param(
                lambda s, p: s.submit_callable(lambda: None, timeout="a"),
                id="callable-timeout",
            ),
            pytest.param(
                lambda s, p: s.submit_anneal(p, 1.0, timeout="a"), id="anneal-timeout"
            ),
            pytest.param(lambda s, p: s.submit_anneal(p, "x"), id="anneal-time"),
        ],
    )
    def test_bad_input_raises_configuration_error(self, service, problem, submit):
        with pytest.raises(ConfigurationError):
            submit(service, problem)
        assert service.metrics.to_dict()["jobs"]["submitted"] == 0

    @pytest.mark.parametrize("value", ["2", 1.5, 0])
    @pytest.mark.parametrize("option", ["num_restarts", "candidate_pool"])
    def test_bad_solve_option_refused_at_submit(self, service, problem, option, value):
        with pytest.raises(ConfigurationError, match=option):
            service.submit(problem, 1, seed=1, **{option: value})
        jobs = service.metrics.to_dict()["jobs"]
        assert jobs["submitted"] == 0 and jobs["failed"] == 0

    def test_result_wait_timeout(self, service):
        release = threading.Event()
        handle = service.submit_callable(lambda: release.wait(30))
        with pytest.raises(JobTimeoutError):
            handle.result(timeout=0.05)
        release.set()
        handle.result(timeout=30)

    def test_cancel_pending_job(self):
        service = SolverService(max_workers=1)
        try:
            blocker = threading.Event()
            running = threading.Event()

            def occupy():
                running.set()
                blocker.wait(30)

            service.submit_callable(occupy)
            assert running.wait(5)
            victim = service.submit_callable(lambda: None)
            assert victim.cancel()
            assert victim.status is JobStatus.CANCELLED
            with pytest.raises(JobCancelledError):
                victim.result(timeout=5)
            blocker.set()
        finally:
            service.shutdown()

    def test_cannot_cancel_running_job(self):
        service = SolverService(max_workers=1)
        try:
            started = threading.Event()
            release = threading.Event()

            def wait_for_release():
                started.set()
                release.wait(30)
                return "done"

            handle = service.submit_callable(wait_for_release)
            assert started.wait(5)
            assert not handle.cancel()
            release.set()
            assert handle.result(timeout=30) == "done"
        finally:
            service.shutdown()


class TestTimeouts:
    def test_job_expired_in_queue_fails_without_running(self):
        clock = [0.0]
        service = SolverService(max_workers=1, clock=lambda: clock[0])
        try:
            blocker = threading.Event()
            running = threading.Event()

            def occupy():
                running.set()
                blocker.wait(30)

            service.submit_callable(occupy)
            assert running.wait(5)
            ran = threading.Event()
            victim = service.submit_callable(ran.set, timeout=10.0)
            clock[0] = 100.0  # expire the queued job, then free the worker
            blocker.set()
            with pytest.raises(JobTimeoutError):
                victim.result(timeout=10)
            assert not ran.is_set()
        finally:
            service.shutdown()

    def test_overrunning_job_fails_post_hoc(self):
        clock = [0.0]
        service = SolverService(max_workers=1, clock=lambda: clock[0])
        try:
            def slow():
                clock[0] += 100.0  # simulated long solve
                return "late"

            handle = service.submit_callable(slow, timeout=1.0)
            with pytest.raises(JobTimeoutError):
                handle.result(timeout=10)
        finally:
            service.shutdown()


class TestRetries:
    def test_transient_failures_retried(self, service):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientServiceError("blip")
            return "recovered"

        handle = service.submit_callable(flaky)
        # The module fixture's service allows 1 retry; use a dedicated one.
        with pytest.raises(TransientServiceError):
            handle.result(timeout=30)

        svc = SolverService(
            max_workers=1, max_retries=3, retry_policy=RetryPolicy.no_delay()
        )
        try:
            attempts.clear()
            handle = svc.submit_callable(flaky)
            assert handle.result(timeout=30) == "recovered"
            assert handle.retries == 2
            assert svc.metrics.to_dict()["jobs"]["retries"] == 2
        finally:
            svc.shutdown()

    def test_nontransient_failure_not_retried(self, service):
        attempts = []

        def broken():
            attempts.append(1)
            raise RuntimeError("permanent")

        handle = service.submit_callable(broken)
        with pytest.raises(RuntimeError):
            handle.result(timeout=30)
        assert len(attempts) == 1


class TestCaching:
    def test_warm_resubmission_served_from_cache(self, service, problem):
        cold = service.submit(problem, depth=1, seed=11)
        result = cold.result(timeout=60)
        warm = service.submit(problem, depth=1, seed=11)
        assert warm.from_cache
        assert warm.done
        assert warm.result(timeout=1) is result

    def test_structurally_equal_problems_share_cache(self, service):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
        first = MaxCutProblem(Graph(4, edges, name="first"))
        second = MaxCutProblem(Graph(4, edges, name="second"))
        service.submit(first, depth=1, seed=5).result(timeout=60)
        warm = service.submit(second, depth=1, seed=5)
        assert warm.from_cache

    def test_different_seeds_not_shared(self, service, problem):
        service.submit(problem, depth=1, seed=1).result(timeout=60)
        other = service.submit(problem, depth=1, seed=2)
        assert not other.from_cache
        other.result(timeout=60)

    def test_unseeded_solves_never_cached(self, service, problem):
        service.submit(problem, depth=1).result(timeout=60)
        again = service.submit(problem, depth=1)
        assert not again.from_cache
        again.result(timeout=60)

    def test_program_cache_shared_across_depths_and_jobs(self, service, problem):
        service.expectation(problem, 1, [0.1, 0.2], timeout=30)
        service.expectation(problem, 1, [0.3, 0.4], timeout=30)
        program_stats = service.metrics.to_dict()["caches"]["program"]
        assert program_stats["misses"] == 1
        assert program_stats["hits"] == 1


class TestDeduplication:
    def test_identical_inflight_submissions_coalesce(self):
        service = SolverService(max_workers=1)
        try:
            blocker = threading.Event()
            running = threading.Event()

            def occupy():
                running.set()
                blocker.wait(30)

            service.submit_callable(occupy)
            assert running.wait(5)
            problem = MaxCutProblem(erdos_renyi_graph(8, 0.5, seed=2))
            primary = service.submit(problem, depth=1, seed=9)
            duplicates = [service.submit(problem, depth=1, seed=9) for _ in range(5)]
            assert all(dup.deduplicated for dup in duplicates)
            blocker.set()
            result = primary.result(timeout=60)
            for dup in duplicates:
                assert dup.result(timeout=30) is result
            jobs = service.metrics.to_dict()["jobs"]
            assert jobs["deduplicated"] == 5
            # One real solve fulfilled six handles.
            assert jobs["completed"] >= 1
        finally:
            service.shutdown()


class TestExpectationCoalescing:
    def test_concurrent_requests_batched(self, problem):
        service = SolverService(max_workers=2, coalesce_max_wait_ms=25.0)
        try:
            num_requests = 16
            start = threading.Barrier(num_requests)
            values = [None] * num_requests
            vector = [0.4, 0.3]

            def request(index):
                start.wait(5)
                values[index] = service.expectation(problem, 1, vector, timeout=30)

            threads = [
                threading.Thread(target=request, args=(i,))
                for i in range(num_requests)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert all(value is not None for value in values)
            # Bit-identical: every request saw the same batched evaluation.
            assert len({repr(value) for value in values}) == 1
            coalescer = service.metrics.to_dict()["coalescer"]
            assert coalescer["batched_requests"] == num_requests
            assert coalescer["batches"] < num_requests
            assert coalescer["largest_batch"] > 1
        finally:
            service.shutdown()

    def test_batch_matches_direct_evaluation(self, problem):
        from repro.qaoa import ExpectationEvaluator

        service = SolverService(max_workers=1)
        try:
            vector = [0.25, 0.15]
            batched = service.expectation(problem, 1, vector, timeout=30)
            direct = ExpectationEvaluator(problem, 1).expectation(vector)
            assert batched == pytest.approx(direct, abs=1e-12)
        finally:
            service.shutdown()

    def test_coalescer_standalone_flush_on_max_batch(self, problem):
        from repro.qaoa import ExpectationEvaluator

        metrics = ServiceMetrics()
        coalescer = RequestCoalescer(max_batch=4, max_wait_ms=10_000.0, metrics=metrics)
        coalescer.start()
        try:
            evaluator = ExpectationEvaluator(problem, 1)
            futures = [
                coalescer.submit("k", evaluator, [0.1 * i, 0.2]) for i in range(4)
            ]
            values = [future.result(timeout=10) for future in futures]
            assert len(values) == 4
            snapshot = metrics.to_dict()["coalescer"]
            assert snapshot["batches"] == 1
            assert snapshot["largest_batch"] == 4
        finally:
            coalescer.stop()

    def test_stopped_coalescer_degrades_to_inline(self, problem):
        from repro.qaoa import ExpectationEvaluator

        coalescer = RequestCoalescer(max_batch=8, max_wait_ms=5.0)
        evaluator = ExpectationEvaluator(problem, 1)
        value = coalescer.submit("k", evaluator, [0.3, 0.2]).result(timeout=5)
        direct = ExpectationEvaluator(problem, 1).expectation([0.3, 0.2])
        assert value == pytest.approx(direct, abs=1e-12)


class TestShutdown:
    def test_shutdown_drains_queued_jobs(self, problem):
        service = SolverService(max_workers=1)
        handles = [service.submit(problem, depth=1, seed=index) for index in range(3)]
        service.shutdown(drain=True)
        for handle in handles:
            handle.result(timeout=5)  # all ran to completion

    def test_shutdown_without_drain_cancels_pending(self):
        service = SolverService(max_workers=1)
        blocker = threading.Event()
        running = threading.Event()

        def occupy():
            running.set()
            blocker.wait(30)
            return "survivor"

        first = service.submit_callable(occupy)
        assert running.wait(5)
        pending = [service.submit_callable(lambda: None) for _ in range(3)]
        # Cancel the queue while the worker is still busy, then release it.
        service.shutdown(wait=False, drain=False)
        blocker.set()
        assert first.result(timeout=10) == "survivor"
        for handle in pending:
            assert handle.status is JobStatus.CANCELLED

    def test_submit_after_shutdown_rejected(self, problem):
        service = SolverService(max_workers=1)
        service.shutdown()
        with pytest.raises(ServiceError):
            service.submit(problem, depth=1, seed=0)

    def test_context_manager(self, problem):
        with SolverService(max_workers=1) as service:
            handle = service.submit(problem, depth=1, seed=0)
        handle.result(timeout=5)

    def test_bounded_queue_rejects_overflow(self):
        service = SolverService(max_workers=1, max_queue=1)
        try:
            blocker = threading.Event()
            running = threading.Event()

            def occupy():
                running.set()
                blocker.wait(30)

            service.submit_callable(occupy)
            assert running.wait(5)
            service.submit_callable(lambda: None)  # fills the queue slot
            with pytest.raises(ServiceError, match="full"):
                for _ in range(10):
                    service.submit_callable(lambda: None)
            blocker.set()
        finally:
            service.shutdown()


class TestMetrics:
    def test_refused_submissions_are_counted_nowhere(self, problem):
        service = SolverService(max_workers=1, max_queue=1)
        blocker = threading.Event()
        running = threading.Event()

        def occupy():
            running.set()
            blocker.wait(30)

        admitted = [service.submit_callable(occupy)]
        assert running.wait(5)
        admitted.append(service.submit_callable(lambda: None))  # fills the queue
        for refused in (
            lambda: service.submit_callable(lambda: None),
            lambda: service.submit(problem, depth=1, seed=0),
            lambda: service.submit_anneal(problem, 1.0),
        ):
            with pytest.raises(ServiceError, match="full"):
                refused()
        blocker.set()
        service.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            service.submit(problem, depth=1, seed=1)
        for handle in admitted:
            handle.result(timeout=30)
        jobs = service.metrics.to_dict()["jobs"]
        assert jobs["submitted"] == len(admitted)
        assert jobs["anneals"] == 0
        terminal = jobs["completed"] + jobs["failed"] + jobs["cancelled"]
        assert jobs["submitted"] - (terminal + jobs["deduplicated"]) == 0

    def test_injectable_clock_latencies(self):
        clock = [0.0]
        metrics = ServiceMetrics(clock=lambda: clock[0])
        metrics.job_submitted()
        clock[0] = 2.0
        metrics.job_completed(latency=2.0, queue_wait=0.5, run_time=1.5)
        snapshot = metrics.to_dict()
        assert snapshot["latency"]["job_seconds"]["p50"] == 2.0
        assert snapshot["latency"]["queue_wait_seconds"]["p99"] == 0.5
        assert snapshot["uptime_seconds"] == 2.0

    def test_percentiles_interpolate(self):
        metrics = ServiceMetrics()
        for value in range(1, 101):
            metrics.job_completed(latency=float(value))
        snapshot = metrics.to_dict()["latency"]["job_seconds"]
        assert snapshot["count"] == 100
        assert 50.0 <= snapshot["p50"] <= 51.0
        assert 99.0 <= snapshot["p99"] <= 100.0

    def test_service_snapshot_shape(self, service, problem):
        service.submit(problem, depth=1, seed=0).result(timeout=60)
        snapshot = service.metrics.to_dict()
        assert set(snapshot) == {
            "uptime_seconds",
            "jobs",
            "coalescer",
            "caches",
            "resilience",
            "queue",
            "latency",
        }
        assert snapshot["jobs"]["completed"] >= 1
        assert snapshot["queue"]["depth"] == 0

    def test_queue_depth_gauge_returns_to_zero(self, service, problem):
        handles = [service.submit(problem, depth=1, seed=i) for i in range(4)]
        for handle in handles:
            handle.result(timeout=60)
        assert service.queue_depth == 0
        assert service.metrics.to_dict()["queue"]["max_depth"] >= 1


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh recency
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            LRUCache(0)


class TestExecutionContextIntegration:
    def test_service_with_shot_context(self):
        problem = MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=4))
        context = ExecutionContext(backend="fast", shots=64)
        with SolverService(context, max_workers=1) as service:
            result = service.submit(problem, depth=1, seed=0).result(timeout=60)
        assert result.num_shots > 0

    def test_deterministic_across_service_instances(self):
        problem = MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=4))
        with SolverService(max_workers=2) as first:
            a = first.submit(problem, depth=1, seed=42).result(timeout=60)
        with SolverService(max_workers=2) as second:
            b = second.submit(problem, depth=1, seed=42).result(timeout=60)
        assert a.optimal_expectation == b.optimal_expectation
        assert np.allclose(
            a.optimal_parameters.to_vector(), b.optimal_parameters.to_vector()
        )
