"""The stable top-level API: :func:`solve`, :func:`compare`, :func:`serve`.

These three functions are the supported entry points for the common
workflows; everything else in the package is a building block they are
composed from.  They accept either a :class:`~repro.graphs.model.Graph` or a
:class:`~repro.graphs.maxcut.MaxCutProblem` and thread one
:class:`~repro.execution.context.ExecutionContext` through the whole run.

* :func:`solve` — one QAOA MaxCut optimization, returning a
  :class:`~repro.qaoa.result.QAOAResult`;
* :func:`compare` — the paper's head-to-head of the naive multi-restart flow
  against the ML-accelerated two-level flow, returning a
  :class:`~repro.acceleration.comparison.ComparisonRecord`;
* :func:`serve` — a long-lived :class:`~repro.service.SolverService` for
  concurrent submissions with coalescing and caching.

Examples
--------
>>> import repro
>>> from repro.graphs import erdos_renyi_graph
>>> graph = erdos_renyi_graph(8, 0.5, seed=7)
>>> result = repro.solve(graph, depth=1, seed=0)
>>> result.approximation_ratio > 0.7
True
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.execution.context import ContextLike
from repro.graphs.maxcut import MaxCutProblem
from repro.graphs.model import Graph

__all__ = ["solve", "compare", "serve"]


def _as_problem(graph: Union[Graph, MaxCutProblem]) -> MaxCutProblem:
    """Coerce a graph-or-problem argument to a :class:`MaxCutProblem`."""
    if isinstance(graph, MaxCutProblem):
        return graph
    return MaxCutProblem(graph)


def solve(
    graph: Union[Graph, MaxCutProblem],
    depth: int,
    context: ContextLike = None,
    *,
    optimizer: Any = None,
    num_restarts: int = 1,
    candidate_pool: Optional[int] = None,
    initial_parameters: Any = None,
    seed: Any = None,
    **solver_options: Any,
) -> Any:
    """Solve one MaxCut instance with QAOA; returns a ``QAOAResult``.

    *graph* may be a :class:`~repro.graphs.model.Graph` or an existing
    :class:`~repro.graphs.maxcut.MaxCutProblem`; *context* selects the
    backend / shot / noise configuration (default: exact fast backend).
    Remaining keyword arguments are forwarded to
    :class:`~repro.qaoa.solver.QAOASolver`.
    """
    from repro.qaoa.solver import QAOASolver

    problem = _as_problem(graph)
    solver = QAOASolver(
        optimizer,
        context,
        num_restarts=num_restarts,
        candidate_pool=candidate_pool,
        seed=seed,
        **solver_options,
    )
    return solver.solve(problem, depth, initial_parameters=initial_parameters)


def compare(
    graph: Union[Graph, MaxCutProblem],
    target_depth: int,
    context: ContextLike = None,
    *,
    predictor: Any = None,
    optimizer: Optional[str] = None,
    num_restarts: Optional[int] = None,
    seed: Any = None,
    **options: Any,
) -> Any:
    """Run the naive-vs-two-level comparison on one instance.

    When *predictor* is omitted the default predictor is trained first: 12
    graphs x depths 1-5 x 3 L-BFGS-B restarts, about 12 s on a 2-vCPU
    host.  Pass a trained *predictor* to compare many instances, and train
    one on a larger ensemble for reproduction-quality numbers.  Returns a
    :class:`~repro.acceleration.comparison.ComparisonRecord` with both
    flows' approximation ratios, function-call counts and speedup.
    """
    from repro.acceleration.comparison import compare_on_problem

    problem = _as_problem(graph)
    if predictor is None:
        from repro.prediction.pipeline import train_default_predictor

        predictor, _ = train_default_predictor(seed=seed if seed is not None else 2020)
    if num_restarts is not None:
        options["num_restarts"] = num_restarts
    return compare_on_problem(
        problem,
        target_depth,
        predictor,
        context,
        optimizer=optimizer,
        seed=seed,
        **options,
    )


def serve(context: ContextLike = None, **service_options: Any):
    """Start a :class:`~repro.service.SolverService` for concurrent solves.

    The service owns a bounded worker pool, deduplicates identical in-flight
    submissions, batches concurrent expectation requests, and caches both
    compiled programs and deterministic solve results.  Use it as a context
    manager (``with repro.serve() as service: ...``) or call
    :meth:`~repro.service.SolverService.shutdown` explicitly.
    """
    from repro.service import SolverService

    return SolverService(context, **service_options)
