"""Execution layer: one context object + a backend registry for the oracle.

:class:`ExecutionContext` is the single way to describe *how* cost
expectations are computed (backend, shots, noise, density, readout, seed
policy); the :mod:`~repro.execution.registry` dispatches backend names to
capability-tagged :class:`Backend` objects.  Every consumer —
:class:`~repro.qaoa.cost.ExpectationEvaluator`,
:class:`~repro.qaoa.solver.QAOASolver`, the acceleration runners, the
experiment harness — accepts ``context=`` and threads the same object down
unchanged.
"""

from repro.execution.context import ExecutionContext, as_execution_context
from repro.execution.keys import (
    canonical_json,
    canonical_payload,
    compile_cache_key,
    graph_cache_key,
    problem_cache_key,
    solve_cache_key,
    stable_hash,
)
from repro.execution.registry import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "ExecutionContext",
    "as_execution_context",
    "Backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "canonical_json",
    "canonical_payload",
    "compile_cache_key",
    "graph_cache_key",
    "problem_cache_key",
    "solve_cache_key",
    "stable_hash",
]
