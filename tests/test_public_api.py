"""Snapshot tests pinning the stable public facade of :mod:`repro`.

``repro.__all__`` is the supported surface: additions are deliberate API
decisions and removals are breaking changes, so this module pins the exact
set.  If a test here fails, either revert the accidental change or update
the snapshot *and* the docs in the same commit.
"""

import subprocess
import sys

import pytest

import repro
from repro.quantum.noise import NoiseModel

#: The supported top-level API, alphabetised.  Keep in sync with docs.
PUBLIC_API_SNAPSHOT = sorted(
    [
        # Stable entry points.
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
        # Metadata and configuration.
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
)

SERVICE_API_SNAPSHOT = sorted(
    [
        "BatchFuture",
        "JobHandle",
        "JobStatus",
        "LRUCache",
        "LatencyHistogram",
        "PersistentResultCache",
        "ProgramCache",
        "RequestCoalescer",
        "ResultCache",
        "ServiceMetrics",
        "SolverService",
    ]
)

RESILIENCE_API_SNAPSHOT = sorted(
    [
        "FAULT_KINDS",
        "CheckpointSlot",
        "CheckpointStore",
        "CircuitBreaker",
        "CorruptEntryError",
        "Fault",
        "FaultInjector",
        "FaultPlan",
        "FileCheckpointStore",
        "MemoryCheckpointStore",
        "RetryPolicy",
        "SolverCheckpoint",
    ]
)


class TestFacadeSnapshot:
    def test_all_matches_snapshot_exactly(self):
        assert sorted(repro.__all__) == PUBLIC_API_SNAPSHOT

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_dir_covers_all(self):
        listed = set(dir(repro))
        assert set(repro.__all__) <= listed

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist

    def test_service_package_snapshot(self):
        import repro.service

        assert sorted(repro.service.__all__) == SERVICE_API_SNAPSHOT

    def test_resilience_package_snapshot(self):
        import repro.resilience

        assert sorted(repro.resilience.__all__) == RESILIENCE_API_SNAPSHOT


class TestLazyLoading:
    def test_import_repro_stays_light(self):
        # Run in a clean interpreter: importing the package must not pull
        # scipy, the ML stack, or start service threads.
        script = (
            "import sys; import repro; "
            "heavy = [m for m in ('scipy', 'repro.api', 'repro.service', "
            "'repro.qaoa', 'repro.prediction', 'repro.acceleration', "
            "'repro.dynamics') "
            "if m in sys.modules]; "
            "sys.exit(1 if heavy else 0)"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr

    def test_lazy_attribute_cached_after_first_access(self):
        first = repro.solve
        assert repro.__dict__.get("solve") is first
        assert repro.solve is first


class TestFacadeBehaviour:
    def test_solve_accepts_graph_and_problem(self):
        graph = repro.erdos_renyi_graph(6, 0.5, seed=3)
        from_graph = repro.solve(graph, depth=1, seed=0)
        from_problem = repro.solve(repro.MaxCutProblem(graph), depth=1, seed=0)
        assert from_graph.optimal_expectation == from_problem.optimal_expectation

    def test_solve_threads_context(self):
        graph = repro.erdos_renyi_graph(6, 0.5, seed=3)
        context = repro.ExecutionContext(backend="fast", shots=32)
        result = repro.solve(graph, 1, context, seed=0)
        assert result.num_shots > 0

    def test_serve_returns_service(self):
        graph = repro.erdos_renyi_graph(6, 0.5, seed=3)
        with repro.serve(max_workers=1) as service:
            assert isinstance(service, repro.SolverService)
            handle = service.submit(repro.MaxCutProblem(graph), 1, seed=0)
            assert handle.result(timeout=60).approximation_ratio > 0.5

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda g, p: repro.solve(g, depth="2"), id="solve-depth-str"),
            pytest.param(lambda g, p: repro.solve(g, depth=1.5), id="solve-depth-float"),
            pytest.param(
                lambda g, p: repro.compare(g, target_depth=1.5, predictor=p),
                id="compare-depth-float",
            ),
            pytest.param(
                lambda g, p: repro.ExpectationEvaluator(repro.MaxCutProblem(g), "2"),
                id="evaluator-depth-str",
            ),
            pytest.param(
                lambda g, p: repro.ExpectationEvaluator(repro.MaxCutProblem(g), 1.5),
                id="evaluator-depth-float",
            ),
            pytest.param(lambda g, p: repro.QAOASolver(num_restarts="2"), id="restarts-str"),
            pytest.param(lambda g, p: repro.QAOASolver(candidate_pool="2"), id="pool-str"),
            pytest.param(
                lambda g, p: repro.QAOASolver().solve(repro.MaxCutProblem(g), 1, num_restarts="2"),
                id="solve-restarts-str",
            ),
            pytest.param(
                lambda g, p: repro.QAOASolver().solve(
                    repro.MaxCutProblem(g), 1, candidate_pool="2"
                ),
                id="solve-pool-str",
            ),
            pytest.param(
                lambda g, p: NoiseModel.from_dict({"rules": [{}]}), id="noise-rule-empty"
            ),
            pytest.param(lambda g, p: NoiseModel.from_dict([]), id="noise-payload-list"),
        ],
    )
    def test_bad_input_raises_configuration_error(self, small_graph, tiny_predictor, call):
        with pytest.raises(repro.ConfigurationError):
            call(small_graph, tiny_predictor)
