"""Execution layer: one context object describing how the oracle runs.

:class:`ExecutionContext` is the single way to describe *how* cost
expectations are computed: which of the two engines (``"fast"``, the
MaxCut-specialised evaluator, or ``"circuit"``, the compiled gate-level engine),
shots, noise, density, readout and seed policy.  Every consumer —
:class:`~repro.qaoa.cost.ExpectationEvaluator`,
:class:`~repro.qaoa.solver.QAOASolver`, the acceleration runners, the
experiment harness — accepts ``context=`` and threads the same object down
unchanged; :mod:`repro.qaoa.backends` compiles programs from it.
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

__all__ = [
    "ExecutionContext",
    "as_execution_context",
    "canonical_json",
    "canonical_payload",
    "compile_cache_key",
    "graph_cache_key",
    "problem_cache_key",
    "solve_cache_key",
    "stable_hash",
]
