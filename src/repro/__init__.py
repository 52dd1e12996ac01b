"""repro — reproduction of ML-accelerated QAOA (Alam et al., DATE 2020).

The package is organised as a set of substrates (quantum simulator, graph /
MaxCut tooling, classical optimizers, regression models) and the paper's core
contribution on top of them (QAOA solver, ML parameter predictor, two-level
accelerated flow, experiment harness).

The stable entry points live at the top level:

* :func:`repro.solve` — one QAOA MaxCut optimization;
* :func:`repro.compare` — naive vs ML-accelerated two-level flow;
* :func:`repro.serve` — a concurrent solver service with coalescing and
  caching (see :mod:`repro.service`).

Heavyweight subsystems are imported lazily on first attribute access
(PEP 562), so ``import repro`` stays light.

Quickstart
----------
>>> import repro
>>> from repro.graphs import erdos_renyi_graph
>>> graph = erdos_renyi_graph(8, 0.5, seed=7)
>>> result = repro.solve(graph, depth=1, seed=0)
>>> result.approximation_ratio > 0.7
True
"""

from repro.version import __version__
from repro.exceptions import (
    CheckpointError,
    CircuitError,
    CircuitOpenError,
    ConfigurationError,
    DatasetError,
    GraphError,
    JobCancelledError,
    JobTimeoutError,
    ModelError,
    OptimizationError,
    QasmSyntaxError,
    ReproError,
    ServiceError,
    SimulationError,
    TransientServiceError,
)
from repro.config import PaperSetup, paper_setup
from repro.execution import ExecutionContext

#: Lazily-resolved exports: attribute name -> providing module.  Modules on
#: this map are only imported when the attribute is first touched, keeping
#: ``import repro`` free of scipy / the ML stack / service threads.
_LAZY_EXPORTS = {
    # Stable top-level API.
    "solve": "repro.api",
    "compare": "repro.api",
    "serve": "repro.api",
    # Problem construction.
    "Graph": "repro.graphs",
    "MaxCutProblem": "repro.graphs",
    "erdos_renyi_graph": "repro.graphs",
    "random_regular_graph": "repro.graphs",
    # Solver layer.
    "QAOASolver": "repro.qaoa",
    "QAOAResult": "repro.qaoa",
    "ExpectationEvaluator": "repro.qaoa",
    # Acceleration flows.
    "NaiveQAOARunner": "repro.acceleration",
    "TwoLevelQAOARunner": "repro.acceleration",
    "ComparisonRecord": "repro.acceleration",
    "compare_on_problem": "repro.acceleration",
    # Ingestion frontend.
    "ingest": "repro.frontend",
    "parse_qasm": "repro.frontend",
    "CircuitIR": "repro.frontend",
    "CircuitExpectationEvaluator": "repro.frontend",
    # Continuous-time dynamics.
    "AnnealingSolver": "repro.dynamics",
    "AnnealingSchedule": "repro.dynamics",
    "Lindbladian": "repro.dynamics",
    "evolve": "repro.dynamics",
    # Service tier.
    "SolverService": "repro.service",
    "JobHandle": "repro.service",
    "JobStatus": "repro.service",
    "ServiceMetrics": "repro.service",
    # Resilience layer.
    "FaultPlan": "repro.resilience",
    "FaultInjector": "repro.resilience",
    "RetryPolicy": "repro.resilience",
    "CircuitBreaker": "repro.resilience",
    "CheckpointSlot": "repro.resilience",
    "MemoryCheckpointStore": "repro.resilience",
    "FileCheckpointStore": "repro.resilience",
}

__all__ = [
    # Stable top-level API.
    "solve",
    "compare",
    "serve",
    # Execution configuration.
    "ExecutionContext",
    # Problem construction.
    "Graph",
    "MaxCutProblem",
    "erdos_renyi_graph",
    "random_regular_graph",
    # Solver layer.
    "QAOASolver",
    "QAOAResult",
    "ExpectationEvaluator",
    # Acceleration flows.
    "NaiveQAOARunner",
    "TwoLevelQAOARunner",
    "ComparisonRecord",
    "compare_on_problem",
    # Ingestion frontend.
    "ingest",
    "parse_qasm",
    "CircuitIR",
    "CircuitExpectationEvaluator",
    # Continuous-time dynamics.
    "AnnealingSolver",
    "AnnealingSchedule",
    "Lindbladian",
    "evolve",
    # Service tier.
    "SolverService",
    "JobHandle",
    "JobStatus",
    "ServiceMetrics",
    # Resilience layer.
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "CircuitBreaker",
    "CheckpointSlot",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    # Package metadata and configuration.
    "__version__",
    "PaperSetup",
    "paper_setup",
    # Exceptions.
    "ReproError",
    "CircuitError",
    "SimulationError",
    "GraphError",
    "OptimizationError",
    "ModelError",
    "DatasetError",
    "ConfigurationError",
    "ServiceError",
    "TransientServiceError",
    "JobCancelledError",
    "JobTimeoutError",
    "CircuitOpenError",
    "CheckpointError",
    "QasmSyntaxError",
]


def __getattr__(name: str):
    """Resolve lazy exports on first access (PEP 562)."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: subsequent accesses skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
