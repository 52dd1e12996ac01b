"""Beyond the paper: weighted MaxCut and low-level simulator access.

Demonstrates (a) solving a weighted MaxCut instance, (b) inspecting the
gate-level QAOA circuit, and (c) sampling cut distributions from the final
state.  Run with::

    python examples/weighted_maxcut.py

Set ``EXAMPLES_SMOKE=1`` to shrink every size for the CI smoke job.
"""

import os

from repro.graphs import MaxCutProblem, weighted_erdos_renyi_graph
from repro.qaoa import (
    FastMaxCutEvaluator,
    QAOASolver,
    build_maxcut_qaoa_circuit,
    depth_one_landscape,
)

SMOKE = os.environ.get("EXAMPLES_SMOKE") == "1"


def main() -> None:
    graph = weighted_erdos_renyi_graph(
        8, 0.5, weight_low=0.5, weight_high=2.0, seed=13
    )
    problem = MaxCutProblem(graph)
    print(f"Weighted problem: {graph.num_edges} edges, total weight {graph.total_weight():.2f}")
    print(f"Exact optimum: {problem.max_cut_value():.3f}")

    # Scan the depth-1 landscape to see where the optimum lives.
    scan = depth_one_landscape(
        problem,
        gamma_resolution=12 if SMOKE else 24,
        beta_resolution=8 if SMOKE else 16,
    )
    print(
        f"Depth-1 landscape optimum ~ {scan.best_expectation:.3f} at "
        f"gamma={scan.best_parameters.gammas[0]:.3f}, beta={scan.best_parameters.betas[0]:.3f}"
    )

    # Optimize a deeper circuit.  The candidate pool pre-screens random
    # starts in one batched evaluation and only optimizes the best few.
    depth = 2 if SMOKE else 3
    pool = 16 if SMOKE else 32
    solver = QAOASolver(
        "L-BFGS-B",
        num_restarts=2 if SMOKE else 5,
        candidate_pool=pool,
        seed=3,
    )
    result = solver.solve(problem, depth)
    print(
        f"Depth-{depth} QAOA ({pool} screened starts): "
        f"AR = {result.approximation_ratio:.4f} "
        f"using {result.num_function_calls} circuit evaluations"
    )

    # Inspect the gate-level circuit the paper's Fig. 1(a) describes.
    circuit = build_maxcut_qaoa_circuit(problem, result.optimal_parameters)
    print(f"Gate counts of the optimized circuit: {circuit.count_ops()}")
    print(f"Two-qubit gate count: {circuit.two_qubit_gate_count()}, depth: {circuit.depth()}")

    # Sample measurement outcomes and report the best sampled cut.
    evaluator = FastMaxCutEvaluator(problem)
    samples = evaluator.sample_cut_distribution(
        result.optimal_parameters, shots=200 if SMOKE else 500, rng=0
    )
    best_bitstring = max(samples, key=lambda key: samples[key]["cut_value"])
    print(
        f"Best sampled assignment {best_bitstring} cuts "
        f"{samples[best_bitstring]['cut_value']:.3f} "
        f"(optimum {problem.max_cut_value():.3f})"
    )


if __name__ == "__main__":
    main()
