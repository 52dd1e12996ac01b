"""Service-level chaos tests: everything wired together, faults on a
deterministic schedule, and the invariant that matters — results under
chaos are **bit-identical** to fault-free runs.

Fault schedules come from explicit :class:`FaultPlan` scripts or seeds, so
any failure here reproduces exactly.  All sleeps (retry backoff, latency
faults) are injected recorders: no wall-clock waiting.
"""

import pytest

from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    ServiceError,
    TransientServiceError,
)
from repro.execution import ExecutionContext
from repro.graphs import MaxCutProblem, erdos_renyi_graph
from repro.resilience import (
    CircuitBreaker,
    Fault,
    FaultInjector,
    FaultPlan,
    FileCheckpointStore,
    MemoryCheckpointStore,
    RetryPolicy,
)
from repro.service import PersistentResultCache, SolverService

NO_SLEEP = lambda seconds: None  # noqa: E731 - shared injected sleep


@pytest.fixture
def problem():
    return MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=3))


def fault_free_result(problem, **service_options):
    with SolverService(max_workers=1, **service_options) as service:
        return service.submit(problem, depth=1, seed=7).result(timeout=120)


class TestRetryUnderChaos:
    def test_transient_storm_retried_to_bit_identical_result(self, problem):
        baseline = fault_free_result(problem)
        injector = FaultInjector(
            FaultPlan(
                [
                    Fault("worker.run", 0, "transient"),
                    Fault("worker.run", 1, "transient"),
                ]
            ),
            sleep=NO_SLEEP,
        )
        policy = RetryPolicy.no_delay()
        with SolverService(
            max_workers=1, max_retries=3, retry_policy=policy, fault_injector=injector
        ) as service:
            handle = service.submit(problem, depth=1, seed=7)
            result = handle.result(timeout=120)
        assert handle.retries == 2
        assert result.optimal_expectation == baseline.optimal_expectation
        assert result.num_function_calls == baseline.num_function_calls
        assert result.num_shots == baseline.num_shots

    def test_retry_budget_exhaustion_fails_with_last_error(self, problem):
        injector = FaultInjector(
            FaultPlan([Fault("worker.run", i, "transient") for i in range(5)]),
            sleep=NO_SLEEP,
        )
        with SolverService(
            max_workers=1,
            max_retries=1,
            retry_policy=RetryPolicy.no_delay(),
            fault_injector=injector,
        ) as service:
            handle = service.submit(problem, depth=1, seed=7)
            with pytest.raises(TransientServiceError):
                handle.result(timeout=60)
            assert service.metrics.to_dict()["jobs"]["failed"] == 1

    def test_retry_delays_follow_policy_schedule(self, problem):
        slept = []
        policy = RetryPolicy(base=0.1, cap=1.0, jitter="none", sleep=slept.append)
        injector = FaultInjector(
            FaultPlan(
                [
                    Fault("worker.run", 0, "transient"),
                    Fault("worker.run", 1, "transient"),
                    Fault("worker.run", 2, "transient"),
                ]
            ),
            sleep=NO_SLEEP,
        )
        with SolverService(
            max_workers=1, max_retries=3, retry_policy=policy, fault_injector=injector
        ) as service:
            service.submit(problem, depth=1, seed=7).result(timeout=120)
        assert slept == pytest.approx([0.1, 0.2, 0.4])

    def test_latency_fault_delays_but_does_not_change_result(self, problem):
        baseline = fault_free_result(problem)
        slept = []
        injector = FaultInjector(
            FaultPlan([Fault("worker.run", 0, "latency", latency=0.5)]),
            sleep=slept.append,
        )
        with SolverService(max_workers=1, fault_injector=injector) as service:
            result = service.submit(problem, depth=1, seed=7).result(timeout=120)
        assert slept == [0.5]
        assert result.optimal_expectation == baseline.optimal_expectation

    def test_fault_metrics_counted_by_kind(self, problem):
        injector = FaultInjector(
            FaultPlan([Fault("worker.run", 0, "transient")]), sleep=NO_SLEEP
        )
        with SolverService(
            max_workers=1,
            max_retries=2,
            retry_policy=RetryPolicy.no_delay(),
            fault_injector=injector,
        ) as service:
            service.submit(problem, depth=1, seed=7).result(timeout=120)
            snapshot = service.metrics.to_dict()["resilience"]["faults_injected"]
        assert snapshot["total"] == 1
        assert snapshot["by_kind"] == {"transient": 1}


class TestBreakerUnderChaos:
    def test_breaker_opens_and_sheds_then_recovers(self, problem):
        now = [0.0]
        breaker = CircuitBreaker(
            min_failures=2,
            failure_rate=0.5,
            window=4,
            recovery_time=10.0,
            probe_budget=1,
            clock=lambda: now[0],
        )

        def boom():
            raise TransientServiceError("backend down")

        with SolverService(max_workers=1, max_retries=0, breaker=breaker) as service:
            for _ in range(2):
                with pytest.raises(TransientServiceError):
                    service.submit_callable(boom).result(timeout=60)
            assert breaker.state == "open"
            # Open breaker sheds new work fast.
            with pytest.raises(CircuitOpenError):
                service.submit_callable(lambda: 1).result(timeout=60)
            snapshot = service.metrics.to_dict()["resilience"]["breaker"]
            assert snapshot["rejections"] == 1
            assert snapshot["transitions"]["closed->open"] == 1
            # After the recovery window a probe success closes it again.
            now[0] = 11.0
            assert service.submit_callable(lambda: 42).result(timeout=60) == 42
            assert breaker.state == "closed"
            transitions = service.metrics.to_dict()["resilience"]["breaker"][
                "transitions"
            ]
            assert transitions["open->half-open"] == 1
            assert transitions["half-open->closed"] == 1

    def test_solves_after_recovery_are_bit_identical(self, problem):
        baseline = fault_free_result(problem)
        now = [0.0]
        breaker = CircuitBreaker(
            min_failures=1, window=2, recovery_time=5.0, probe_budget=1,
            clock=lambda: now[0],
        )
        with SolverService(max_workers=1, max_retries=0, breaker=breaker) as service:
            with pytest.raises(ServiceError):
                service.submit_callable(
                    lambda: (_ for _ in ()).throw(ServiceError("down"))
                ).result(timeout=60)
            assert breaker.state == "open"
            now[0] = 6.0
            result = service.submit(problem, depth=1, seed=7).result(timeout=120)
        assert result.optimal_expectation == baseline.optimal_expectation


class TestPersistentCacheUnderChaos:
    def test_warm_restart_serves_bit_identical_result(self, problem, tmp_path):
        with SolverService(max_workers=1, persistent_cache_dir=tmp_path) as service:
            first = service.submit(problem, depth=1, seed=7).result(timeout=120)
        # "Restart": a brand-new service over the same directory.
        with SolverService(max_workers=1, persistent_cache_dir=tmp_path) as service:
            handle = service.submit(problem, depth=1, seed=7)
            second = handle.result(timeout=120)
            assert handle.from_cache
            assert service.metrics.to_dict()["caches"]["persistent"]["hits"] == 1
        assert second.optimal_expectation == first.optimal_expectation
        assert second.num_function_calls == first.num_function_calls
        assert second.to_payload() == first.to_payload()

    def test_corrupted_entry_quarantined_and_recomputed(self, problem, tmp_path):
        with SolverService(max_workers=1, persistent_cache_dir=tmp_path) as service:
            first = service.submit(problem, depth=1, seed=7).result(timeout=120)
        (entry,) = tmp_path.glob("*.result.json")
        entry.write_bytes(b"\x00 torn write \xff" * 10)
        with SolverService(max_workers=1, persistent_cache_dir=tmp_path) as service:
            handle = service.submit(problem, depth=1, seed=7)
            recomputed = handle.result(timeout=120)
            assert not handle.from_cache
            persistent = service.metrics.to_dict()["caches"]["persistent"]
            assert persistent["corruptions"] == 1
        assert recomputed.optimal_expectation == first.optimal_expectation
        assert list((tmp_path / "quarantine").iterdir())

    def test_injected_write_corruption_degrades_to_miss(self, problem, tmp_path):
        # Corrupt the bytes on their way to disk: the write "lands" torn,
        # the next read must quarantine it and treat it as a miss.
        injector = FaultInjector(
            FaultPlan([Fault("cache.write", 0, "corrupt")]), sleep=NO_SLEEP
        )
        with SolverService(
            max_workers=1, persistent_cache_dir=tmp_path, fault_injector=injector
        ) as service:
            first = service.submit(problem, depth=1, seed=7).result(timeout=120)
        with SolverService(max_workers=1, persistent_cache_dir=tmp_path) as service:
            handle = service.submit(problem, depth=1, seed=7)
            recomputed = handle.result(timeout=120)
            assert not handle.from_cache
        assert recomputed.optimal_expectation == first.optimal_expectation

    def test_injected_read_fault_never_raises(self, problem, tmp_path):
        cache = PersistentResultCache(
            tmp_path,
            fault_injector=FaultInjector(
                FaultPlan([Fault("cache.read", 0, "transient")]), sleep=NO_SLEEP
            ),
        )
        with SolverService(max_workers=1) as service:
            result = service.submit(problem, depth=1, seed=7).result(timeout=120)
        assert cache.put("k", result)
        assert cache.get("k") is None  # injected fault: a miss, not an error
        restored = cache.get("k")  # index 1: no fault planned
        assert restored.to_payload() == result.to_payload()


class TestCheckpointUnderChaos:
    CONTEXT = ExecutionContext(shots=64)

    def baseline(self, problem):
        with SolverService(
            context=self.CONTEXT, max_workers=1, num_restarts=3
        ) as service:
            return service.submit(problem, depth=1, seed=9).result(timeout=180)

    def test_killed_job_resumes_bit_identically(self, problem):
        baseline = self.baseline(problem)
        store = MemoryCheckpointStore()
        injector = FaultInjector(
            FaultPlan([Fault("backend.evaluate", 60, "fatal")]), sleep=NO_SLEEP
        )
        with SolverService(
            context=self.CONTEXT,
            max_workers=1,
            num_restarts=3,
            checkpoint_store=store,
            fault_injector=injector,
        ) as service:
            handle = service.submit(problem, depth=1, seed=9, checkpoint=True)
            with pytest.raises(ServiceError):
                handle.result(timeout=180)
        assert len(store) == 1  # the snapshot survived the "crash"
        with SolverService(
            context=self.CONTEXT,
            max_workers=1,
            num_restarts=3,
            checkpoint_store=store,
        ) as service:
            handle = service.submit(problem, depth=1, seed=9, checkpoint=True)
            resumed = handle.result(timeout=180)
            assert handle.resumed
            checkpoints = service.metrics.to_dict()["resilience"]["checkpoints"]
            assert checkpoints["resumed"] == 1
            assert checkpoints["saved"] >= 1
        assert resumed.optimal_expectation == baseline.optimal_expectation
        assert resumed.num_shots == baseline.num_shots
        assert resumed.num_function_calls == baseline.num_function_calls
        assert len(store) == 0  # completed jobs clean up their snapshot

    def test_transient_retry_resumes_within_one_job(self, problem):
        baseline = self.baseline(problem)
        store = MemoryCheckpointStore()
        injector = FaultInjector(
            FaultPlan([Fault("backend.evaluate", 60, "transient")]), sleep=NO_SLEEP
        )
        with SolverService(
            context=self.CONTEXT,
            max_workers=1,
            num_restarts=3,
            max_retries=1,
            retry_policy=RetryPolicy.no_delay(),
            checkpoint_store=store,
            fault_injector=injector,
        ) as service:
            handle = service.submit(problem, depth=1, seed=9, checkpoint=True)
            result = handle.result(timeout=180)
            assert handle.retries == 1
            assert handle.resumed  # the retry picked up the mid-job snapshot
        assert result.optimal_expectation == baseline.optimal_expectation
        assert result.num_shots == baseline.num_shots

    def test_file_store_survives_service_restart(self, problem, tmp_path):
        baseline = self.baseline(problem)
        store_dir = tmp_path / "checkpoints"
        injector = FaultInjector(
            FaultPlan([Fault("backend.evaluate", 60, "fatal")]), sleep=NO_SLEEP
        )
        with SolverService(
            context=self.CONTEXT,
            max_workers=1,
            num_restarts=3,
            checkpoint_store=FileCheckpointStore(store_dir),
            fault_injector=injector,
        ) as service:
            with pytest.raises(ServiceError):
                service.submit(problem, depth=1, seed=9, checkpoint=True).result(
                    timeout=180
                )
        # A different process would build a fresh store over the same path.
        with SolverService(
            context=self.CONTEXT,
            max_workers=1,
            num_restarts=3,
            checkpoint_store=FileCheckpointStore(store_dir),
        ) as service:
            handle = service.submit(problem, depth=1, seed=9, checkpoint=True)
            resumed = handle.result(timeout=180)
            assert handle.resumed
        assert resumed.optimal_expectation == baseline.optimal_expectation

    def test_checkpoint_requires_store_and_seed(self, problem):
        with SolverService(max_workers=1) as service:
            with pytest.raises(ConfigurationError, match="checkpoint_store"):
                service.submit(problem, depth=1, seed=0, checkpoint=True)
        with SolverService(
            max_workers=1, checkpoint_store=MemoryCheckpointStore()
        ) as service:
            with pytest.raises(ConfigurationError, match="seed"):
                service.submit(problem, depth=1, checkpoint=True)


class TestCoalescerUnderChaos:
    def test_poisoned_batch_fails_only_its_own_request(self, problem):
        from repro.service.coalescer import RequestCoalescer

        class FlakyEvaluator:
            def __init__(self):
                self.calls = 0

            def expectation_batch(self, matrix):
                self.calls += 1
                if self.calls == 1 and len(matrix) > 1:
                    raise ServiceError("batch-wide failure")
                if float(matrix[0][0]) > 100.0:
                    raise ServiceError("poisoned vector")
                return [float(row[0]) for row in matrix]

        coalescer = RequestCoalescer(max_batch=8, max_wait_ms=0.0)
        # Flusher never started: submissions degrade to inline execution,
        # which is deterministic for this test.
        evaluator = FlakyEvaluator()
        from repro.service.coalescer import _Group

        group = _Group(evaluator, 0.0)
        import numpy as np

        futures = []
        for value in (1.0, 999.0, 3.0):
            from repro.service.coalescer import BatchFuture

            future = BatchFuture()
            group.vectors.append(np.array([value, 0.0]))
            group.futures.append(future)
            futures.append(future)
        coalescer._execute(group)
        assert futures[0].result(timeout=1) == 1.0
        with pytest.raises(ServiceError, match="poisoned"):
            futures[1].result(timeout=1)
        assert futures[2].result(timeout=1) == 3.0


class TestSeededStorm:
    def test_seeded_chaos_storm_is_reproducible_and_survivable(self, problem):
        baseline = fault_free_result(problem)
        plan = FaultPlan.from_seed(
            1234,
            rates={"worker.run": 0.5},
            horizon=8,
            kinds=("transient", "latency"),
            latency=0.01,
        )
        results = []
        for _ in range(2):
            injector = FaultInjector(plan, sleep=NO_SLEEP)
            with SolverService(
                max_workers=1,
                max_retries=8,
                retry_policy=RetryPolicy.no_delay(),
                fault_injector=injector,
            ) as service:
                result = service.submit(problem, depth=1, seed=7).result(timeout=120)
                results.append((result.optimal_expectation, injector.injected))
        # Identical storms, identical outcomes, and the storm never changed
        # the answer.
        assert results[0] == results[1]
        assert results[0][0] == baseline.optimal_expectation
