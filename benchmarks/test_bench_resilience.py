"""Benchmarks of the resilience layer.

Two headline measurements, both written to ``BENCH_resilience.json``:

* **Persistent warm-hit latency** — serving an already-solved configuration
  from the on-disk tier after a "process restart" (fresh service over the
  same cache directory) versus recomputing the solve.  The gate counts work,
  not time: an empty-plan :class:`~repro.resilience.FaultInjector` is a pure
  call counter, and each restarted-service hit adds no ``worker.run`` and
  no ``backend.evaluate``.  The speed-up is only recorded.
* **Resume-vs-restart saving** — a multi-restart solve killed near the end
  and then resumed from its checkpoint versus re-run from scratch, compared
  in *objective evaluations* (the paper's cost unit — every evaluation is a
  quantum-circuit execution).  The floor asserts resuming costs <= half the
  evaluations of a full re-run.

A third record captures the overhead the checkpoint machinery adds to an
uninterrupted solve, so the "resilience is cheap when nothing fails" claim
is tracked over time.
"""

import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.execution import ExecutionContext
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.solver import QAOASolver
from repro.resilience import Fault, FaultInjector, FaultPlan, MemoryCheckpointStore
from repro.resilience.checkpoint import CheckpointSlot
from repro.service import SolverService

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"
_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json(bench_smoke):
    """Write every recorded measurement to ``BENCH_resilience.json``."""
    yield
    payload = {
        "benchmark": "resilience",
        "smoke": bool(bench_smoke),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": _RESULTS,
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_persistent_warm_hit_latency(bench_smoke, tmp_path):
    """A disk-tier hit after a restart runs no solve and no evaluation."""
    problem = MaxCutProblem(erdos_renyi_graph(8, 0.5, seed=31))
    depth = 1 if bench_smoke else 2
    # An empty fault plan makes the injector a pure per-site call counter.
    counter = FaultInjector(FaultPlan())

    def service():
        return SolverService(
            max_workers=1, persistent_cache_dir=tmp_path, fault_injector=counter
        )

    with service() as cold_service:
        start = time.perf_counter()
        cold_result = cold_service.submit(problem, depth, seed=5).result(timeout=300)
        cold_seconds = time.perf_counter() - start
    cold_evaluations = counter.operations("backend.evaluate")
    assert cold_evaluations == cold_result.num_function_calls > 0
    assert counter.operations("worker.run") == 1

    # "Restart": a brand-new service (empty in-memory LRU) over the same
    # directory, so the hit is served from disk, deserialization included.
    warm_seconds = float("inf")
    for _ in range(5):
        with service() as warm_service:
            start = time.perf_counter()
            handle = warm_service.submit(problem, depth, seed=5)
            warm_result = handle.result(timeout=30)
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
        assert handle.from_cache
        assert warm_result.to_payload() == cold_result.to_payload()
        assert counter.operations("backend.evaluate") == cold_evaluations
        assert counter.operations("worker.run") == 1

    _RESULTS["persistent_warm_hit"] = {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds,
        "cold_evaluations": cold_evaluations,
    }


def test_resume_saves_at_least_half_the_evaluations(bench_smoke):
    """Resuming a killed multi-restart solve must cost <= 50% of a re-run.

    Cost is counted in objective evaluations (== quantum circuit runs).
    The solve is killed by a scripted fault during its final restart, so a
    checkpoint-aware resume only pays for that one restart while a naive
    re-run pays for all of them again.
    """
    problem = MaxCutProblem(erdos_renyi_graph(8, 0.5, seed=3))
    context = ExecutionContext(shots=64)
    num_restarts = 3 if bench_smoke else 4
    seed = 9

    # Fault-free baseline: total evaluations of the full solve.  An empty
    # fault plan makes the injector a pure per-site call counter.
    counter = FaultInjector(FaultPlan())
    baseline_solver = QAOASolver(
        context=context, num_restarts=num_restarts, fault_injector=counter
    )
    baseline = baseline_solver.solve(problem, depth=1, seed=seed)
    full_evaluations = counter.operations("backend.evaluate")
    assert full_evaluations > 0

    # Kill the solve late: ~90% of the way through the evaluation budget.
    kill_at = int(full_evaluations * 0.9)
    store = MemoryCheckpointStore()
    injector = FaultInjector(
        FaultPlan([Fault("backend.evaluate", kill_at, "fatal")])
    )
    crashed = QAOASolver(
        context=context, num_restarts=num_restarts, fault_injector=injector
    )
    with pytest.raises(ServiceError):
        crashed.solve(
            problem, depth=1, seed=seed, checkpoint=CheckpointSlot(store, "job")
        )
    wasted_evaluations = injector.operations("backend.evaluate")

    # Resume: only the interrupted restart re-runs.
    resume_counter = FaultInjector(FaultPlan())
    resumed_solver = QAOASolver(
        context=context, num_restarts=num_restarts, fault_injector=resume_counter
    )
    resumed = resumed_solver.solve(
        problem, depth=1, seed=seed, checkpoint=CheckpointSlot(store, "job")
    )
    resume_evaluations = resume_counter.operations("backend.evaluate")

    # Exactness first: the resumed run is the uninterrupted run.
    assert resumed.optimal_expectation == baseline.optimal_expectation
    assert resumed.num_shots == baseline.num_shots
    assert resumed.num_function_calls == baseline.num_function_calls

    saving = full_evaluations / max(resume_evaluations, 1)
    _RESULTS["resume_vs_restart"] = {
        "num_restarts": num_restarts,
        "full_run_evaluations": int(full_evaluations),
        "evaluations_before_kill": int(wasted_evaluations),
        "resume_evaluations": int(resume_evaluations),
        "saving_factor": saving,
    }
    assert saving >= 2.0, (
        f"resume cost {resume_evaluations} evaluations vs {full_evaluations} for "
        f"a full re-run — only a {saving:.2f}x saving (floor: 2x)"
    )


def test_checkpoint_overhead_on_uninterrupted_solve(bench_smoke):
    """Record what checkpointing costs when nothing fails (no floor)."""
    problem = MaxCutProblem(erdos_renyi_graph(8, 0.5, seed=3))
    context = ExecutionContext(shots=64)
    num_restarts = 2 if bench_smoke else 3

    start = time.perf_counter()
    plain = QAOASolver(context=context, num_restarts=num_restarts).solve(
        problem, depth=1, seed=7
    )
    plain_seconds = time.perf_counter() - start

    slot = CheckpointSlot(MemoryCheckpointStore(), "job")
    start = time.perf_counter()
    checkpointed = QAOASolver(context=context, num_restarts=num_restarts).solve(
        problem, depth=1, seed=7, checkpoint=slot
    )
    checkpointed_seconds = time.perf_counter() - start

    assert checkpointed.optimal_expectation == plain.optimal_expectation
    _RESULTS["checkpoint_overhead"] = {
        "plain_seconds": plain_seconds,
        "checkpointed_seconds": checkpointed_seconds,
        "overhead_fraction": (checkpointed_seconds - plain_seconds)
        / max(plain_seconds, 1e-9),
        "snapshots_saved": slot.saves,
    }
