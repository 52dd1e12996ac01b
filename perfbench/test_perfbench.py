"""Self-tests of the benchmark harness: counts and arithmetic only.

They never run a workload pass and never compare wall-clock times, so they
are safe inside the repository's regular test command.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


# -- percentile helper -------------------------------------------------------
def test_percentile_reports_value_and_sample_count():
    result = stats.percentile(list(range(1, 21)), 50)
    assert result == {"value": 10.5, "q": 50, "samples": 20}


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 50)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(100)), 91)
    assert stats.percentile(list(range(100)), 90)["samples"] == 100


def test_tail_percentile_is_highest_with_ten_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(36) == 72
    assert stats.tail_percentile(288) == 96
    assert stats.tail_percentile(1000) == 99


def test_relative_spread_uses_quartiles_over_median():
    assert stats.relative_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert stats.relative_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# -- self-time arithmetic ----------------------------------------------------
class _Clock:
    """A clock each thread advances explicitly (no wall time involved)."""

    def __init__(self):
        self._local = threading.local()

    def set(self, value: float) -> None:
        self._local.now = value

    def __call__(self) -> float:
        return self._local.now


def test_self_time_across_two_threads():
    clock = _Clock()
    tracer = tracing.Tracer(clock=clock, sampled=("job",))

    def client():
        # pass [0, 10] > service.submit [1, 3] > execution.keys [1.5, 2]
        for time, action in ((0, "pass"), (1, "service.submit"), (1.5, "execution.keys")):
            clock.set(time)
            tracer.enter(action)
        for time in (2, 3, 10):
            clock.set(time)
            tracer.exit()

    def worker():
        # job [0, 8] > engine [1, 4] > engine (nested, same layer) [2, 3]
        for time, action in ((0, "job"), (1, "engine"), (2, "engine")):
            clock.set(time)
            tracer.enter(action)
        for time in (3, 4, 8):
            clock.set(time)
            tracer.exit()
        tracer.count("rows", 3)

    for target in (client, worker):
        thread = threading.Thread(target=target)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    summary = tracer.summary()
    assert dict(summary["self_time"]) == {
        "pass": 8.0,
        "service.submit": 1.5,
        "execution.keys": 0.5,
        "job": 5.0,
        "engine": 3.0,
    }
    # The nested engine span counts once towards totals and calls.
    assert summary["total"]["engine"] == 3.0
    assert summary["calls"]["engine"] == 1
    assert summary["samples"]["job"] == [8.0]
    assert summary["counts"]["rows"] == 3


def test_install_counts_calls_and_restore_leaves_library_unchanged():
    from repro.execution import keys
    from repro.graphs import MaxCutProblem, erdos_renyi_graph
    from repro.qaoa.cost import ExpectationEvaluator
    from repro.qaoa.solver import QAOASolver

    original_hash = keys.stable_hash
    original_expectation = ExpectationEvaluator.expectation
    problem = MaxCutProblem(erdos_renyi_graph(5, 0.5, seed=3))
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert keys.stable_hash is not original_hash
        evaluator = ExpectationEvaluator(problem, 2, context="circuit")
        evaluator.expectation([0.1, 0.2, 0.3, 0.4])
        evaluator.expectation_batch([[0.1, 0.2, 0.3, 0.4]] * 3)
        result = QAOASolver(seed=1).solve(problem, 1)
    finally:
        patches.restore()
    assert keys.stable_hash is original_hash
    assert ExpectationEvaluator.expectation is original_expectation
    summary = tracer.summary()
    assert summary["counts"]["qaoa.evaluator.rows"] == 4 + result.num_function_calls
    assert summary["counts"]["quantum.engine.rows"] == 4
    assert summary["counts"]["optimizers.calls"] == result.num_function_calls
    assert summary["calls"]["qaoa.compile"] == 2


# -- seeded inputs -----------------------------------------------------------
@pytest.mark.parametrize("name", ["table1", "large_n", "service_mix", "noisy_density"])
def test_second_seed_gives_different_inputs_of_the_same_shape(name):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    first, again, second = (workload.make_inputs(seed) for seed in (1, 1, 2))
    assert first.content() == again.content()
    assert first.shape() == second.shape()
    assert first.content() != second.content()


# -- benchmark description ---------------------------------------------------
def test_benchmark_json_lists_the_metrics_the_runner_prints():
    from workloads import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.per_layer_metrics()
    )
