"""Unit tests for the resilience primitives (:mod:`repro.resilience`).

Covers the deterministic fault-injection machinery, the retry policy, the
circuit-breaker state machine, the crash-safe storage helpers, and solver
checkpoint/resume — each in isolation.  Service-level chaos (everything
wired together) lives in ``test_service_chaos.py``.
"""

import json

import pytest

from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ServiceError,
    TransientServiceError,
)
from repro.execution import ExecutionContext
from repro.graphs import MaxCutProblem, erdos_renyi_graph
from repro.qaoa.solver import QAOASolver
from repro.resilience import (
    CircuitBreaker,
    Fault,
    FaultInjector,
    FaultPlan,
    FileCheckpointStore,
    MemoryCheckpointStore,
    RetryPolicy,
    SolverCheckpoint,
)
from repro.resilience.checkpoint import (
    CheckpointSlot,
    capture_rng_state,
    restore_rng_state,
)
from repro.resilience.storage import (
    CorruptEntryError,
    atomic_write_bytes,
    decode_document,
    encode_document,
)


@pytest.fixture
def problem():
    return MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=3))


class TestFaultPlan:
    def test_explicit_plan_fires_at_exact_index(self):
        plan = FaultPlan([Fault("worker.run", 2, "transient")])
        injector = FaultInjector(plan)
        injector.check("worker.run")
        injector.check("worker.run")
        with pytest.raises(TransientServiceError):
            injector.check("worker.run")
        injector.check("worker.run")
        assert injector.injected == [("worker.run", 2, "transient")]

    def test_duplicate_site_index_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate fault"):
            FaultPlan(
                [Fault("a", 0, "transient"), Fault("a", 0, "fatal")]
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            Fault("a", 0, "explode")

    def test_seeded_plan_is_reproducible(self):
        first = FaultPlan.from_seed(7, rates={"worker.run": 0.3, "cache.read": 0.1})
        second = FaultPlan.from_seed(7, rates={"worker.run": 0.3, "cache.read": 0.1})
        assert first.faults == second.faults
        assert len(first) > 0

    def test_seeded_plan_differs_across_seeds(self):
        first = FaultPlan.from_seed(1, rates={"s": 0.5})
        second = FaultPlan.from_seed(2, rates={"s": 0.5})
        assert first.faults != second.faults

    def test_seeded_plan_rate_bounds(self):
        with pytest.raises(ConfigurationError, match="must be in"):
            FaultPlan.from_seed(0, rates={"s": 1.5})

    def test_fatal_fault_raises_service_error(self):
        injector = FaultInjector(FaultPlan([Fault("s", 0, "fatal")]))
        with pytest.raises(ServiceError):
            injector.check("s")

    def test_latency_fault_uses_injected_sleep(self):
        slept = []
        injector = FaultInjector(
            FaultPlan([Fault("s", 0, "latency", latency=0.25)]),
            sleep=slept.append,
        )
        injector.check("s")
        assert slept == [0.25]

    def test_corrupt_fault_flips_bytes_deterministically(self):
        plan = FaultPlan([Fault("cache.read", 0, "corrupt")])
        data = b"x" * 64
        first = FaultInjector(plan).filter_bytes("cache.read", data)
        second = FaultInjector(plan).filter_bytes("cache.read", data)
        assert first == second
        assert first != data

    def test_corrupt_ignored_on_check_sites(self):
        injector = FaultInjector(FaultPlan([Fault("s", 0, "corrupt")]))
        injector.check("s")  # must not raise

    def test_reset_replays_from_zero(self):
        injector = FaultInjector(FaultPlan([Fault("s", 0, "transient")]))
        with pytest.raises(TransientServiceError):
            injector.check("s")
        injector.check("s")
        injector.reset()
        with pytest.raises(TransientServiceError):
            injector.check("s")

    def test_wrap_guards_callable(self):
        injector = FaultInjector(FaultPlan([Fault("s", 1, "transient")]))
        guarded = injector.wrap("s", lambda x: x * 2)
        assert guarded(3) == 6
        with pytest.raises(TransientServiceError):
            guarded(3)


class TestRetryPolicy:
    def test_first_delay_is_exactly_base(self):
        for jitter in ("none", "full", "decorrelated"):
            policy = RetryPolicy(base=0.05, jitter=jitter, seed=0)
            assert policy.delay(1) == 0.05

    def test_pure_exponential_schedule(self):
        policy = RetryPolicy(base=0.1, cap=1.0, jitter="none")
        assert policy.preview(5) == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.0])

    def test_decorrelated_jitter_bounded_and_seeded(self):
        first = RetryPolicy(base=0.1, cap=2.0, seed=42).preview(6)
        second = RetryPolicy(base=0.1, cap=2.0, seed=42).preview(6)
        assert first == second
        for delay in first:
            assert 0.1 <= delay <= 2.0

    def test_sleep_before_uses_injected_sleep(self):
        slept = []
        policy = RetryPolicy(base=0.2, jitter="none", sleep=slept.append)
        previous = policy.sleep_before(1)
        policy.sleep_before(2, previous)
        assert slept == pytest.approx([0.2, 0.4])

    def test_no_delay_policy_never_sleeps(self):
        policy = RetryPolicy.no_delay()
        assert policy.preview(4) == [0.0, 0.0, 0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(base=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base=1.0, cap=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter="bogus")
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay(0)


class TestCircuitBreaker:
    def make(self, **overrides):
        self.now = [0.0]
        defaults = dict(
            min_failures=2,
            failure_rate=0.5,
            window=8,
            recovery_time=10.0,
            probe_budget=2,
            clock=lambda: self.now[0],
        )
        defaults.update(overrides)
        return CircuitBreaker(**defaults)

    def test_trips_on_failure_threshold(self):
        breaker = self.make()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed"  # min_failures floor
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.rejections == 1

    def test_successes_dilute_failure_rate(self):
        breaker = self.make()
        for _ in range(6):
            breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        # 2 failures out of 8 outcomes: below the 0.5 rate.
        assert breaker.state == "closed"

    def test_recovery_half_open_probe_closes(self):
        breaker = self.make()
        breaker.record_failure(), breaker.record_failure()
        self.now[0] = 11.0
        assert breaker.allow()  # probe 1
        assert breaker.allow()  # probe 2
        assert not breaker.allow()  # probe budget exhausted
        breaker.record_success()
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.failure_count == 0

    def test_probe_failure_reopens(self):
        breaker = self.make()
        breaker.record_failure(), breaker.record_failure()
        self.now[0] = 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        # The re-open starts a fresh recovery window.
        self.now[0] = 22.0
        assert breaker.allow()

    def test_listener_sees_transitions(self):
        transitions = []
        breaker = self.make(listener=lambda old, new: transitions.append((old, new)))
        breaker.record_failure(), breaker.record_failure()
        self.now[0] = 11.0
        breaker.allow()
        breaker.record_success(), breaker.record_success()
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_add_listener_chains(self):
        first, second = [], []
        breaker = self.make(listener=lambda o, n: first.append((o, n)))
        breaker.add_listener(lambda o, n: second.append((o, n)))
        breaker.record_failure(), breaker.record_failure()
        assert first == second == [("closed", "open")]

    def test_reset_closes(self):
        breaker = self.make()
        breaker.record_failure(), breaker.record_failure()
        breaker.reset()
        assert breaker.state == "closed"
        assert breaker.allow()


class TestStorage:
    def test_document_roundtrip(self):
        payload = {"value": [1.5, 2.5], "nested": {"a": 1}}
        data = encode_document(payload, format="fmt", version=1, key="k")
        assert decode_document(data, format="fmt", version=1, key="k") == payload

    def test_checksum_mismatch_detected(self):
        data = encode_document({"v": 1}, format="fmt", version=1, key="k")
        document = json.loads(data)
        document["payload"]["v"] = 2
        tampered = json.dumps(document).encode("utf-8")
        with pytest.raises(CorruptEntryError, match="checksum"):
            decode_document(tampered, format="fmt", version=1, key="k")

    def test_version_and_format_and_key_validated(self):
        data = encode_document({"v": 1}, format="fmt", version=1, key="k")
        with pytest.raises(CorruptEntryError):
            decode_document(data, format="other", version=1, key="k")
        with pytest.raises(CorruptEntryError):
            decode_document(data, format="fmt", version=2, key="k")
        with pytest.raises(CorruptEntryError):
            decode_document(data, format="fmt", version=1, key="other")

    def test_garbage_is_corrupt_not_crash(self):
        with pytest.raises(CorruptEntryError):
            decode_document(b"\xff\x00 garbage", format="fmt", version=1)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "entry.json"
        atomic_write_bytes(target, b"hello")
        assert target.read_bytes() == b"hello"
        assert list(tmp_path.iterdir()) == [target]


class TestCheckpointStores:
    def test_memory_store_roundtrip(self):
        store = MemoryCheckpointStore()
        store.save("k", {"version": 1})
        assert store.load("k") == {"version": 1}
        assert "k" in store and len(store) == 1
        store.delete("k")
        assert store.load("k") is None

    def test_file_store_roundtrip_and_keys(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        checkpoint = SolverCheckpoint(
            depth=1, initialization="random", starts=[[0.1, 0.2]]
        )
        store.save("job-a", checkpoint.to_payload())
        assert store.keys() == ["job-a"]
        loaded = SolverCheckpoint.from_payload(store.load("job-a"))
        assert loaded.starts == [[0.1, 0.2]]

    def test_file_store_quarantines_corruption(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        store.save("job-a", SolverCheckpoint(1, "random", [[0.0, 0.0]]).to_payload())
        (entry,) = tmp_path.glob("*.ckpt.json")
        entry.write_bytes(b"not json at all")
        assert store.load("job-a") is None
        assert list((tmp_path / "quarantine").iterdir())

    def test_slot_counts_saves_and_resume(self):
        saves, resumes = [], []
        slot = CheckpointSlot(
            MemoryCheckpointStore(),
            "k",
            on_save=lambda: saves.append(1),
            on_resume=lambda: resumes.append(1),
        )
        assert slot.load() is None
        slot.save(SolverCheckpoint(1, "random", [[0.0, 0.0]]))
        assert slot.saves == 1 and len(saves) == 1
        assert slot.load() is not None
        assert slot.resumed and len(resumes) == 1

    def test_checkpoint_payload_validation(self):
        with pytest.raises(CheckpointError, match="version"):
            SolverCheckpoint.from_payload({"version": 99})
        with pytest.raises(CheckpointError, match="records"):
            SolverCheckpoint.from_payload(
                {
                    "version": 1,
                    "depth": 1,
                    "initialization": "random",
                    "starts": [],
                    "records": [{"x": 1}],
                }
            )

    def test_rng_state_roundtrips_exactly(self):
        import numpy as np

        rng = np.random.default_rng(123)
        rng.random(17)  # advance the stream
        state = capture_rng_state(rng)
        restored = restore_rng_state(json.loads(json.dumps(state)))
        assert restored.random(5).tolist() == rng.random(5).tolist()


class TestSolverCheckpointing:
    CONTEXT = ExecutionContext(shots=64)

    def test_checkpointed_run_is_bit_identical(self, problem):
        plain = QAOASolver(context=self.CONTEXT, num_restarts=3).solve(
            problem, depth=1, seed=7
        )
        slot = CheckpointSlot(MemoryCheckpointStore(), "job")
        checkpointed = QAOASolver(context=self.CONTEXT, num_restarts=3).solve(
            problem, depth=1, seed=7, checkpoint=slot
        )
        assert checkpointed.optimal_expectation == plain.optimal_expectation
        assert checkpointed.num_shots == plain.num_shots
        assert checkpointed.num_function_calls == plain.num_function_calls
        # Initial pin + one snapshot per restart.
        assert slot.saves == 4

    def test_interrupted_solve_resumes_bit_identically(self, problem):
        plain = QAOASolver(context=self.CONTEXT, num_restarts=3).solve(
            problem, depth=1, seed=7
        )
        store = MemoryCheckpointStore()
        injector = FaultInjector(
            FaultPlan([Fault("backend.evaluate", 60, "fatal")])
        )
        crashed = QAOASolver(
            context=self.CONTEXT, num_restarts=3, fault_injector=injector
        )
        with pytest.raises(ServiceError):
            crashed.solve(
                problem, depth=1, seed=7, checkpoint=CheckpointSlot(store, "job")
            )
        resume_slot = CheckpointSlot(store, "job")
        resumed = QAOASolver(context=self.CONTEXT, num_restarts=3).solve(
            problem, depth=1, seed=7, checkpoint=resume_slot
        )
        assert resume_slot.resumed
        assert resumed.optimal_expectation == plain.optimal_expectation
        assert resumed.num_shots == plain.num_shots
        assert resumed.num_function_calls == plain.num_function_calls

    def test_payload_with_progress_marker_still_resumes(self, problem):
        # Older snapshots carry an observational "progress" marker; it is
        # ignored on load, and the resume is still bit-identical.
        counter = FaultInjector(FaultPlan())
        plain = QAOASolver(
            context=self.CONTEXT, num_restarts=3, fault_injector=counter
        ).solve(problem, depth=1, seed=7)
        # Kill the last restart, so the snapshot holds completed records.
        kill_at = counter.operations("backend.evaluate") - 5
        store = MemoryCheckpointStore()
        injector = FaultInjector(
            FaultPlan([Fault("backend.evaluate", kill_at, "fatal")])
        )
        crashed = QAOASolver(
            context=self.CONTEXT, num_restarts=3, fault_injector=injector
        )
        with pytest.raises(ServiceError):
            crashed.solve(
                problem, depth=1, seed=7, checkpoint=CheckpointSlot(store, "job")
            )
        payload = dict(store.load("job"))
        assert "progress" not in payload and payload["records"]
        payload["progress"] = {"restart_index": 1, "evaluations": 10, "best_value": 1.5}
        store.save("job", payload)
        snapshot = SolverCheckpoint.from_payload(payload)
        assert snapshot.to_payload() == {k: v for k, v in payload.items() if k != "progress"}
        resume_slot = CheckpointSlot(store, "job")
        resumed = QAOASolver(context=self.CONTEXT, num_restarts=3).solve(
            problem, depth=1, seed=7, checkpoint=resume_slot
        )
        assert resume_slot.resumed
        assert resumed.to_payload() == plain.to_payload()

    def test_resume_skips_completed_restarts(self, problem):
        store = MemoryCheckpointStore()
        solver = QAOASolver(context=self.CONTEXT, num_restarts=3)
        solver.solve(problem, depth=1, seed=7, checkpoint=CheckpointSlot(store, "job"))
        snapshot = SolverCheckpoint.from_payload(store.load("job"))
        assert len(snapshot.records) == 3
        calls = []
        injector = FaultInjector(FaultPlan())
        counted = QAOASolver(
            context=self.CONTEXT,
            num_restarts=3,
            fault_injector=injector,
        )
        resumed = counted.solve(
            problem, depth=1, seed=7, checkpoint=CheckpointSlot(store, "job")
        )
        # Everything was already done: no new objective evaluations at all.
        assert injector.operations("backend.evaluate") == 0
        assert resumed.num_restarts == 3
        del calls

    def test_depth_mismatch_rejected(self, problem):
        store = MemoryCheckpointStore()
        QAOASolver(seed=0).solve(
            problem, depth=1, seed=0, checkpoint=CheckpointSlot(store, "job")
        )
        with pytest.raises(CheckpointError, match="depth"):
            QAOASolver(seed=0).solve(
                problem, depth=2, seed=0, checkpoint=CheckpointSlot(store, "job")
            )

    def test_bare_store_derives_key(self, problem):
        store = MemoryCheckpointStore()
        QAOASolver(seed=0).solve(problem, depth=1, seed=0, checkpoint=store)
        assert len(store) == 1

    def test_invalid_checkpoint_argument(self, problem):
        with pytest.raises(CheckpointError, match="CheckpointSlot"):
            QAOASolver(seed=0).solve(problem, depth=1, seed=0, checkpoint=object())

    def test_exact_backend_checkpoint_roundtrip(self, problem):
        # The deterministic oracle has no rng consumption; resume must
        # still be exact.
        plain = QAOASolver(num_restarts=2).solve(problem, depth=1, seed=5)
        slot = CheckpointSlot(MemoryCheckpointStore(), "job")
        checkpointed = QAOASolver(num_restarts=2).solve(
            problem, depth=1, seed=5, checkpoint=slot
        )
        assert checkpointed.optimal_expectation == plain.optimal_expectation
