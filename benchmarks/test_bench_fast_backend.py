"""Benchmarks of the fast MaxCut evaluator.

The two pytest-benchmark timings follow one scalar evaluation at n = 16 and
one 32-row batch.  The batch gate counts work instead of timing it: a batch
evolves cache-sized blocks of rows, so it makes one block sweep per block
where the scalar loop makes one per row.  A last check holds the evaluator
to the generic simulator's dense state.
"""

import math

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.circuit_builder import build_parametric_qaoa_circuit
from repro.qaoa.fast_backend import FastMaxCutEvaluator
from repro.qaoa.parameters import random_parameters
from repro.quantum.simulator import StatevectorSimulator


def _problem(num_nodes: int) -> MaxCutProblem:
    return MaxCutProblem(erdos_renyi_graph(num_nodes, 0.3, seed=num_nodes))


def test_bench_fast_expectation_n16(benchmark):
    """One expectation at n = 16 (a 1 MiB state)."""
    evaluator = FastMaxCutEvaluator(_problem(16))
    vector = random_parameters(2, 0).to_vector()
    value = benchmark(evaluator.expectation, vector)
    assert 0.0 <= value <= evaluator.problem.max_cut_value() + 1e-9


def test_bench_expectation_batch_n12(benchmark, bench_smoke):
    """A whole batch of angle sets through the blocked sweep."""
    evaluator = FastMaxCutEvaluator(_problem(10 if bench_smoke else 12))
    matrix = np.array(
        [random_parameters(2, seed).to_vector() for seed in range(32)]
    )
    values = benchmark(evaluator.expectation_batch, matrix)
    assert values.shape == (32,)


def test_batch_faster_than_scalar_loop(bench_smoke, monkeypatch):
    """A 64-row batch takes ceil(64 / rows-per-block) block sweeps; the loop 64.

    Both give the same values (to 1e-12).
    """
    evaluator = FastMaxCutEvaluator(_problem(8 if bench_smoke else 10))
    matrix = np.array([random_parameters(2, seed).to_vector() for seed in range(64)])
    sweeps = []  # the row count of every block sweep
    evolve = FastMaxCutEvaluator._evolve

    def counting_evolve(self, block):
        sweeps.append(block.shape[0])
        return evolve(self, block)

    monkeypatch.setattr(FastMaxCutEvaluator, "_evolve", counting_evolve)
    batch_values, batch_sweeps = evaluator.expectation_batch(matrix), sweeps.copy()
    sweeps.clear()
    loop_values = np.array([evaluator.expectation(row) for row in matrix])
    np.testing.assert_allclose(loop_values, batch_values, rtol=0, atol=1e-12)
    assert len(batch_sweeps) == math.ceil(64 / evaluator._rows_per_block)
    assert sum(batch_sweeps) == 64 and sweeps == [1] * 64


def test_fast_and_dense_agree():
    """The fast evaluator and the gate-by-gate dense state agree (1e-10)."""
    problem = _problem(8)
    fast = FastMaxCutEvaluator(problem)
    simulator = StatevectorSimulator(compiled=False)
    rng = np.random.default_rng(3)
    for depth in (1, 3):
        vector = random_parameters(depth, rng).to_vector()
        circuit, gammas, betas = build_parametric_qaoa_circuit(problem, depth)
        state = simulator.run(circuit, dict(zip(list(gammas) + list(betas), vector)))
        dense = problem.cost_hamiltonian().expectation(state)
        assert fast.expectation(vector) == pytest.approx(dense, abs=1e-10)
