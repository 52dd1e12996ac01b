"""Smoke gate and measurements for the noise / finite-shot subsystem.

Exercises the stochastic oracle end to end — seeded determinism, fast vs
circuit backend trajectory parity, shot-estimation overhead, and the
``noise_robustness`` ablation — and appends every measurement to
``BENCH_noise.json`` in the repository root (uploaded by CI as part of the
``bench-results`` artifact, like every other ``BENCH_*.json``).

The assertions gate the *qualitative* shape only: stochastic estimates are
seed-deterministic, the two backends sample the same noise trajectories
bit for bit (both run them on the compiled engine), and strong depolarizing
noise measurably degrades the optimized approximation ratio relative to the
exact-oracle baseline.
"""

import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.execution import ExecutionContext
from repro.experiments.noise_robustness import run_noise_robustness
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.parameters import random_parameters
from repro.quantum.noise import NoiseModel

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_noise.json"
_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json(bench_smoke):
    """Write every recorded measurement to ``BENCH_noise.json``."""
    yield
    payload = {
        "benchmark": "noise",
        "smoke": bool(bench_smoke),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": _RESULTS,
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _problem(num_nodes: int) -> MaxCutProblem:
    return MaxCutProblem(erdos_renyi_graph(num_nodes, 0.5, seed=num_nodes))


def _best_of(repeats: int, func) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_stochastic_oracle_is_seed_deterministic(bench_smoke):
    """Same seed, same estimate — on both backends, shots and noise alike."""
    problem = _problem(8)
    point = random_parameters(2, 0).to_vector()
    model = NoiseModel.uniform_depolarizing(0.01)
    mismatches = {}
    for backend in ("fast", "circuit"):
        estimates = [
            ExpectationEvaluator(
                problem,
                2,
                context=ExecutionContext(
                    backend=backend, shots=256, noise_model=model, trajectories=2
                ),
                rng=11,
            ).expectation(point)
            for _ in range(2)
        ]
        mismatches[backend] = abs(estimates[0] - estimates[1])
    _RESULTS["seed_determinism_abs_diff"] = mismatches
    assert all(diff == 0.0 for diff in mismatches.values()), mismatches


def test_noisy_trajectory_backend_parity(bench_smoke):
    """Fast and circuit backends realise the same noise model.

    The fast program delegates trajectories to a compiled-engine program of
    the same problem and depth, so a shared seed reproduces the same error
    pattern and the same estimate, bit for bit.
    """
    problem = _problem(8)
    point = random_parameters(2, 1).to_vector()
    model = NoiseModel.uniform_depolarizing(0.02)
    worst = 0.0
    for seed in range(3 if bench_smoke else 8):
        values = [
            ExpectationEvaluator(
                problem,
                2,
                context=ExecutionContext(
                    backend=backend, noise_model=model, trajectories=4
                ),
                rng=seed,
            ).expectation(point)
            for backend in ("fast", "circuit")
        ]
        worst = max(worst, abs(values[0] - values[1]))
    _RESULTS["backend_parity_max_abs_diff"] = worst
    assert worst == 0.0, worst


def test_shot_estimation_overhead(bench_smoke):
    """Measure the cost of finite-shot readout over the exact readout."""
    num_nodes = 8 if bench_smoke else 12
    problem = _problem(num_nodes)
    point = random_parameters(2, 2).to_vector()
    exact = ExpectationEvaluator(problem, 2)
    sampled = ExpectationEvaluator(
        problem, 2, context=ExecutionContext(shots=1024), rng=0
    )
    exact.expectation(point), sampled.expectation(point)  # warm-up
    exact_time = _best_of(5, lambda: exact.expectation(point))
    sampled_time = _best_of(5, lambda: sampled.expectation(point))
    _RESULTS["shot_readout_overhead"] = {
        "num_nodes": num_nodes,
        "shots": 1024,
        "exact_ms": exact_time * 1e3,
        "sampled_ms": sampled_time * 1e3,
        "overhead_ratio": sampled_time / exact_time,
    }
    # The multinomial draw is O(dim); it must not dominate the fast evolve
    # by orders of magnitude at practical sizes.
    assert sampled_time < exact_time * 50, (exact_time, sampled_time)


def test_noise_robustness_ablation(bench_smoke, bench_config):
    """The headline gate: the ablation runs and noise visibly hurts.

    Strong depolarizing noise must cost approximation ratio relative to the
    exact-oracle baseline even at a generous shot budget; every swept cell
    must stay a valid ratio and account for its shot budget exactly.
    """
    shot_budgets = (32, 256) if bench_smoke else (64, 256, 1024)
    strengths = (0.0, 0.02) if bench_smoke else (0.0, 0.005, 0.02)
    result = run_noise_robustness(
        bench_config.scaled(max_iterations=300),
        depth=2,
        shot_budgets=shot_budgets,
        noise_strengths=strengths,
        num_graphs=2 if bench_smoke else 3,
        trajectories=2 if bench_smoke else 4,
    )
    _RESULTS["noise_robustness"] = {
        "exact_mean_ar": result.exact_mean_ar,
        "exact_mean_fc": result.exact_mean_fc,
        "rows": [dict(row) for row in result.table],
    }
    for row in result.table:
        assert 0.0 < row["mean_ar"] <= 1.0 + 1e-9, row
        assert row["mean_total_shots"] == pytest.approx(
            row["shots"] * row["mean_fc"]
        ), row
    strongest = max(strengths)
    most_shots = max(shot_budgets)
    degradation = result.ar_degradation(most_shots, strongest)
    assert degradation > 0.0, (
        f"depolarizing strength {strongest} should degrade the optimized AR "
        f"below the exact baseline {result.exact_mean_ar:.4f}, measured "
        f"degradation {degradation:+.4f}"
    )


def test_exact_configuration_is_unchanged(bench_smoke):
    """shots=None, noise_model=None stays the exact oracle on both backends."""
    problem = _problem(8)
    point = random_parameters(2, 3).to_vector()
    fast = ExpectationEvaluator(problem, 2).expectation(point)
    circuit = ExpectationEvaluator(problem, 2, context="circuit").expectation(point)
    _RESULTS["exact_backend_abs_diff"] = abs(fast - circuit)
    assert fast == pytest.approx(circuit, abs=1e-9)
    assert ExpectationEvaluator(problem, 2).shots_used == 0
