"""The four benchmark workloads: seeded inputs, set-up, one pass, output checks.

Every workload draws its inputs from the ``--seed`` generator only, so the
library sees nothing but generated problems.  A different seed gives a
different input set of the same *shape*: the same job kinds and counts, graph
sizes, edge counts and depths (:meth:`Inputs.shape`).  Fixing the edge count
of each Erdős–Rényi draw (rejection sampling of ``G(n, 0.5)``) keeps the work
of a pass comparable across seeds.

A pass runs the workload once through the public API and returns a
:class:`PassResult`; the runner repeats it and reports medians.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.acceleration import comparison
from repro.dynamics import AnnealingSolver
from repro.execution import ExecutionContext
from repro.frontend.evaluator import CircuitExpectationEvaluator
from repro.frontend.library import circuit_source
from repro.graphs import MaxCutProblem, erdos_renyi_graph
from repro.prediction.pipeline import PredictorPipelineConfig, train_default_predictor
from repro.qaoa.circuit_builder import build_parametric_qaoa_circuit
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.solver import QAOASolver
from repro.quantum.density import DensityMatrixSimulator
from repro.quantum.noise import NoiseModel
from repro.quantum.operators import PauliSum
from repro.service import SolverService

#: Seconds a result may take before the client counts it as failed.
RESULT_TIMEOUT = 120.0

#: Predictor training set (set-up of ``table1`` and ``large_n``).
PREDICTOR_CONFIG = PredictorPipelineConfig(
    num_graphs=3, num_nodes=8, depths=(1, 2, 3, 4), num_restarts=1
)


def service_workers() -> int:
    """Service worker threads: one core stays with the single client thread."""
    return max(1, (os.cpu_count() or 1) - 1)


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


def _graph(rng: np.random.Generator, num_nodes: int, num_edges: int, name: str):
    """A ``G(n, 0.5)`` draw conditioned on exactly *num_edges* edges."""
    while True:
        graph = erdos_renyi_graph(num_nodes, 0.5, seed=_draw_seed(rng), name=name)
        if graph.num_edges == num_edges:
            return MaxCutProblem(graph)


def _edges(problem: MaxCutProblem) -> tuple:
    return tuple(tuple(edge) for edge in problem.graph.edges)


@dataclass
class Inputs:
    """Generated inputs of one workload.

    ``items`` is the ordered operation list; ``layout`` holds, per item, the
    part a seed does not decide (kind, graph index, optimizer, depth).
    """

    problems: List[MaxCutProblem]
    items: List[tuple]
    layout: List[tuple]
    extra: dict = field(default_factory=dict)

    def shape(self) -> dict:
        """Seed-independent description: operations, graph sizes and edge counts."""
        return {
            "layout": list(self.layout),
            "graphs": [(p.num_qubits, p.graph.num_edges) for p in self.problems],
        }

    def content(self) -> tuple:
        """Everything a seed decides (graph edges, seeds, bindings)."""
        return (
            tuple(_edges(p) for p in self.problems),
            tuple(repr(item) for item in self.items),
            repr(sorted(self.extra.items())),
        )


@dataclass
class PassResult:
    """What one pass did, in the units the metrics need."""

    wall_s: float
    attempted: int
    latencies: List[float]
    qc_calls: int
    ratios: List[float]
    failed: int
    counts: Dict[str, int]
    outputs: list
    layer_values: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: ``make_inputs`` and ``prepare`` form the timed set-up."""

    name = ""
    why = ""
    workers = 0
    #: Nominal seconds of one pass; a run makes ``--seconds`` worth of passes.
    pass_seconds = 6.0
    #: Set-up repetitions per run (``setup_s`` is their median); cheap
    #: set-ups repeat more so that their median is steady.
    setup_repeats = 9

    def make_inputs(self, seed: int) -> Inputs:
        raise NotImplementedError

    def prepare(self, inputs: Inputs):
        return None

    def warm(self, inputs: Inputs, state) -> None:
        """Untimed first use of each code path (imports, lazy caches)."""

    def run_pass(self, inputs: Inputs, state) -> PassResult:
        raise NotImplementedError

    def check(self, inputs: Inputs, state, result: PassResult) -> List[str]:
        return []


# ---------------------------------------------------------------------------
# table1 and large_n: naive vs two-level compare rows
# ---------------------------------------------------------------------------
class _CompareWorkload(Workload):
    """Rows of ``compare_on_problem``; the predictor is trained in set-up."""

    num_restarts = 1
    candidate_pool = None
    setup_repeats = 3

    def prepare(self, inputs: Inputs):
        predictor, _ = train_default_predictor(
            PREDICTOR_CONFIG, seed=inputs.extra["training_seed"]
        )
        return predictor

    def warm(self, inputs: Inputs, state) -> None:
        problem = inputs.problems[0]
        for optimizer in sorted({item[2] for item in inputs.items}):
            QAOASolver(optimizer, seed=0, max_iterations=20).solve(problem, 2)

    def _row(self, inputs: Inputs, predictor, item):
        _, index, optimizer, depth, tolerance, max_iterations, seed = item
        options = {} if tolerance is None else {"tolerance": tolerance}
        return comparison.compare_on_problem(
            inputs.problems[index],
            depth,
            predictor,
            optimizer=optimizer,
            num_restarts=self.num_restarts,
            max_iterations=max_iterations,
            candidate_pool=self.candidate_pool,
            seed=seed,
            **options,
        )

    def run_pass(self, inputs: Inputs, predictor) -> PassResult:
        latencies, records, failed = [], [], 0
        started = time.perf_counter()
        for item in inputs.items:
            begin = time.perf_counter()
            try:
                records.append(self._row(inputs, predictor, item))
            except Exception:  # counted as a failed operation
                records.append(None)
                failed += 1
            latencies.append(time.perf_counter() - begin)
        wall = time.perf_counter() - started
        done = [record for record in records if record is not None]
        screening = self.candidate_pool if self.candidate_pool else 0
        naive = sum(round(r.naive_mean_fc * self.num_restarts) + screening for r in done)
        level1 = sum(r.level1_fc for r in done)
        level2 = sum(r.level2_fc for r in done)
        ratios = [value for r in done for value in (r.naive_mean_ar, r.two_level_ar)]
        reductions = [r.fc_reduction_percent for r in done]
        return PassResult(
            wall_s=wall,
            attempted=len(inputs.items),
            latencies=latencies,
            qc_calls=naive + level1 + level2,
            ratios=ratios,
            failed=failed,
            counts={
                "qc_calls": naive + level1 + level2,
                "rows": len(done),
                "rows_below_naive": sum(r.two_level_ar < r.naive_mean_ar - 0.05 for r in done),
                "naive_calls": naive,
                "level1_calls": level1,
                "level2_calls": level2,
            },
            outputs=records,
            layer_values={
                "acceleration.naive_calls": naive,
                "acceleration.level1_calls": level1,
                "acceleration.level2_calls": level2,
                "acceleration.fc_reduction_pct": float(np.mean(reductions)) if reductions else 0.0,
            },
        )

    def check(self, inputs: Inputs, predictor, result: PassResult) -> List[str]:
        """The two-level flow may not lose more than 0.05 AR to the naive flow.

        Checked on the pass mean.  Single rows below the margin are counted
        in ``result.counts["rows_below_naive"]`` instead: with a predictor
        trained on three graphs during set-up, about one row in ten falls
        below it on some seeds while the pass mean holds.
        """
        done = [record for record in result.outputs if record is not None]
        if not done:
            return []
        two_level = float(np.mean([r.two_level_ar for r in done]))
        naive = float(np.mean([r.naive_mean_ar for r in done]))
        if two_level < naive - 0.05:
            return [f"mean two-level AR {two_level:.4f} < mean naive AR {naive:.4f} - 0.05"]
        return []


class Table1(_CompareWorkload):
    name = "table1"
    why = (
        "Table I rows at n=8, naive vs two-level: L-BFGS-B depths 2-4 and COBYLA depth 2 "
        "on fixed budgets; small-state FWHT kernels against optimizer overhead"
    )
    num_restarts = 2
    #: (optimizer, depth, tolerance, max_iterations).  Every run has a fixed
    #: budget (L-BFGS-B iterations; COBYLA function evaluations, with 1e-3 as
    #: its final trust-region radius), so most runs spend all of it and a
    #: pass costs nearly the same on every seed.
    ROWS = (
        ("L-BFGS-B", 2, None, 12),
        ("L-BFGS-B", 3, None, 12),
        ("L-BFGS-B", 4, None, 12),
        ("COBYLA", 2, 1e-3, 60),
    )
    EDGES = (12, 13, 14, 15)
    #: Short passes, many per run: the median of several passes follows the
    #: host's fast/slow phases less than one long pass does.
    pass_seconds = 4.0

    def make_inputs(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        problems = [_graph(rng, 8, m, f"t1-{i}") for i, m in enumerate(self.EDGES)]
        items = [
            ("row", index, optimizer, depth, tolerance, max_iterations, _draw_seed(rng))
            for index in range(len(problems))
            for optimizer, depth, tolerance, max_iterations in self.ROWS
        ]
        layout = [item[:4] for item in items]
        return Inputs(problems, items, layout, {"training_seed": _draw_seed(rng)})


class LargeN(_CompareWorkload):
    name = "large_n"
    why = (
        "compare rows at n=14 and n=16 (256 KiB-1 MiB states) with candidate_pool=32 "
        "screening: scalar and batched sweeps past the FWHT/engine crossover"
    )
    candidate_pool = 32
    pass_seconds = 6.5
    #: COBYLA function evaluations per run: every run spends exactly this
    #: budget, which keeps an n=16 row to a few seconds and the work of a
    #: pass the same on every seed.
    OPTIMIZER = "COBYLA"
    MAX_EVALUATIONS = 20
    ROWS = ((14, 45, 4), (16, 60, 3))

    def make_inputs(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        problems = [_graph(rng, n, m, f"ln-{n}") for n, m, _ in self.ROWS]
        items = [
            ("row", index, self.OPTIMIZER, depth, None, self.MAX_EVALUATIONS, _draw_seed(rng))
            for index, (_, _, depth) in enumerate(self.ROWS)
        ]
        layout = [item[:4] for item in items]
        return Inputs(problems, items, layout, {"training_seed": _draw_seed(rng)})

    def check(self, inputs: Inputs, predictor, result: PassResult) -> List[str]:
        """Default and circuit backends agree to 1e-10 at the predictor's angles.

        The AR comparison of the compare rows is not gated here: under a
        20-evaluation budget the naive flow's screened starts decide it, not
        the two-level flow.
        """
        failures = []
        for item in inputs.items:
            problem, depth = inputs.problems[item[1]], item[3]
            angles = predictor.predict(0.6, 0.4, depth).to_vector()
            default = ExpectationEvaluator(problem, depth).expectation(angles)
            circuit = ExpectationEvaluator(problem, depth, context="circuit").expectation(angles)
            if abs(default - circuit) > 1e-10:
                failures.append(
                    f"n={problem.num_qubits} p={depth}: default {default!r} vs circuit "
                    f"{circuit!r} differ by more than 1e-10"
                )
        return failures


# ---------------------------------------------------------------------------
# service_mix: waves of mixed jobs through one SolverService
# ---------------------------------------------------------------------------
HWE_QUBITS = 4
QFT_QUBITS = 8


def _observable(num_qubits: int) -> PauliSum:
    terms = [(1.0, "I" * i + "ZZ" + "I" * (num_qubits - i - 2)) for i in range(num_qubits - 1)]
    terms.append((0.5, "X" + "I" * (num_qubits - 1)))
    return PauliSum(terms)


class ServiceMix(Workload):
    name = "service_mix"
    why = (
        "closed loop, one client: waves of seeded solves, QASM circuit jobs, "
        "anneals and coalesced expectation bursts through a fresh SolverService"
    )
    WAVES = 24
    pass_seconds = 2.5
    SOLVE_GRAPHS = (13, 14, 15)
    ANNEAL_KEYS = 3
    ANNEAL_TIME = 5.0
    HWE_PER_WAVE = 3
    QFT_PER_WAVE = 2
    EXPECTATIONS_PER_WAVE = 16
    #: L-BFGS-B iterations per solve: a fixed budget keeps the work of a pass
    #: nearly the same on every seed.
    MAX_ITERATIONS = 10

    @property
    def workers(self) -> int:
        return service_workers()

    def make_inputs(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        problems = [_graph(rng, 8, m, f"sm-{i}") for i, m in enumerate(self.SOLVE_GRAPHS)]
        # Two new solve keys per wave; a same-wave duplicate of the first one
        # (deduplicated) and one earlier key (a result-cache hit).
        keys = [
            (index % len(problems), 1 + (index // len(problems)) % 2, _draw_seed(rng))
            for index in range(2 * self.WAVES)
        ]
        hwe_parameters = CircuitExpectationEvaluator(
            circuit_source("hwe_ansatz"), _observable(HWE_QUBITS)
        ).num_parameters
        items = []
        for wave in range(self.WAVES):
            first, second = keys[2 * wave], keys[2 * wave + 1]
            earlier = keys[2 * wave - 1] if wave else second
            for key in (first, second, first, earlier):
                items.append(("solve", wave) + key)
            for _ in range(self.HWE_PER_WAVE):
                items.append(("circuit", wave, "hwe_ansatz", rng.uniform(0, 2 * np.pi, hwe_parameters)))
            for _ in range(self.QFT_PER_WAVE):
                items.append(("circuit", wave, "qft8", None))
            items.append(("anneal", wave, wave % self.ANNEAL_KEYS, self.ANNEAL_TIME))
            graph = wave % len(problems)
            for _ in range(self.EXPECTATIONS_PER_WAVE):
                items.append(("expectation", wave, graph, 2, rng.uniform(0, np.pi, 4)))
        return Inputs(problems, items, [self._layout(item) for item in items])

    @staticmethod
    def _layout(item: tuple) -> tuple:
        """Kind and wave, plus the circuit name or the solve/expectation depth."""
        if item[0] == "circuit":
            return item[:3]
        if item[0] in ("solve", "expectation"):
            return item[:2] + (item[3],)
        return item[:2]

    def _start(self) -> SolverService:
        return SolverService(max_workers=self.workers, max_iterations=self.MAX_ITERATIONS)

    def prepare(self, inputs: Inputs):
        # Start-up is part of set-up; each pass then starts its own service
        # outside the timed region so every pass begins with cold caches.
        service = self._start()
        service.shutdown()
        sources = {name: circuit_source(name) for name in ("hwe_ansatz", "qft8")}
        observables = {"hwe_ansatz": _observable(HWE_QUBITS), "qft8": _observable(QFT_QUBITS)}
        return {"sources": sources, "observables": observables}

    def warm(self, inputs: Inputs, state) -> None:
        self._run(inputs, state, waves=1)

    def run_pass(self, inputs: Inputs, state) -> PassResult:
        return self._run(inputs, state, waves=self.WAVES)

    def _submit(self, service, inputs, state, item):
        kind = item[0]
        if kind == "solve":
            _, _, graph, depth, seed = item
            return service.submit(inputs.problems[graph], depth, seed=seed)
        if kind == "circuit":
            name, bindings = item[2], item[3]
            return service.submit_circuit(
                state["sources"][name], state["observables"][name], parameters=bindings
            )
        if kind == "anneal":
            return service.submit_anneal(inputs.problems[item[2]], item[3])
        _, _, graph, depth, parameters = item
        return service.submit_expectation(inputs.problems[graph], depth, parameters)

    def _run(self, inputs: Inputs, state, waves: int) -> PassResult:
        service = self._start()
        outputs, latencies, failed = [], [], 0
        try:
            started = time.perf_counter()
            for wave in range(waves):
                batch = [item for item in inputs.items if item[1] == wave]
                pending = []
                for item in batch:
                    try:
                        pending.append((item, self._submit(service, inputs, state, item)))
                    except Exception:
                        pending.append((item, None))
                for item, handle in pending:
                    try:
                        value = handle.result(RESULT_TIMEOUT)
                    except Exception:
                        value = None
                    if value is None:
                        failed += 1
                    outputs.append((item, handle, value))
                    if item[0] == "expectation":
                        continue
                    if value is not None and handle.finished_at is not None:
                        latencies.append(handle.finished_at - handle.submitted_at)
                    else:
                        latencies.append(RESULT_TIMEOUT)
            wall = time.perf_counter() - started
            snapshot = service.metrics.to_dict()
        finally:
            service.shutdown()
        return self._summarize(outputs, latencies, failed, wall, snapshot)

    @staticmethod
    def _summarize(outputs, latencies, failed, wall, snapshot) -> PassResult:
        unique = {}
        ratios = []
        expectation_rows = 0
        for item, handle, value in outputs:
            if value is None:
                continue
            if item[0] == "expectation":
                expectation_rows += 1
                continue
            unique.setdefault(handle.cache_key, (item, value))
            if item[0] in ("solve", "anneal"):
                ratios.append(value.approximation_ratio)
        solve_calls = sum(v.num_function_calls for i, v in unique.values() if i[0] == "solve")
        circuit_runs = sum(1 for i, _ in unique.values() if i[0] == "circuit")
        anneal_rhs = sum(v.num_rhs_evaluations for i, v in unique.values() if i[0] == "anneal")
        jobs = snapshot["jobs"]
        result_cache = snapshot["caches"]["result"]
        qc_calls = solve_calls + circuit_runs + expectation_rows
        return PassResult(
            wall_s=wall,
            attempted=len(outputs),
            latencies=latencies,
            qc_calls=qc_calls,
            ratios=ratios,
            failed=failed,
            counts={
                "qc_calls": qc_calls,
                "unique_jobs": len(unique),
                "jobs_run": result_cache["misses"] - jobs["deduplicated"],
                "compiles": snapshot["caches"]["program"]["misses"],
                "expectation_rows": snapshot["coalescer"]["batched_requests"],
                "rhs_evaluations": anneal_rhs,
            },
            outputs=outputs,
            layer_values={
                "service.served_cheaply": (result_cache["hits"] + jobs["deduplicated"])
                / max(1, jobs["submitted"]),
                "service.program_cache.hit_rate": snapshot["caches"]["program"]["hit_rate"] or 0.0,
                "service.coalescer.mean_batch": snapshot["coalescer"]["mean_batch_size"] or 0.0,
                "service.queue_wait_ms": 1e3
                * (snapshot["latency"]["queue_wait_seconds"]["p50"] or 0.0),
                "job_latencies": latencies,
            },
        )

    def check(self, inputs: Inputs, state, result: PassResult) -> List[str]:
        failures = []
        by_key: Dict[str, tuple] = {}
        for item, handle, value in result.outputs:
            if value is None:
                continue
            if item[0] == "expectation":
                problem = inputs.problems[item[2]]
                direct = ExpectationEvaluator(problem, item[3]).expectation(item[4])
                if abs(direct - value) > 1e-12:
                    failures.append(f"coalesced expectation {value!r} vs direct {direct!r}")
                continue
            first = by_key.setdefault(handle.cache_key, (item, value))
            if first[1] is not value and not _same(first[1], value):
                failures.append(f"{item[:2]}: repeated key returned a different result")
        for item, value in by_key.values():
            if item[0] == "solve":
                direct = QAOASolver(max_iterations=self.MAX_ITERATIONS).solve(
                    inputs.problems[item[2]], item[3], seed=item[4]
                )
                ok = _same(direct, value)
            elif item[0] == "circuit":
                direct = CircuitExpectationEvaluator(
                    state["sources"][item[2]], state["observables"][item[2]]
                ).expectation(item[3])
                ok = direct == value
            else:
                direct = AnnealingSolver().solve(inputs.problems[item[2]], item[3])
                ok = direct.optimal_expectation == value.optimal_expectation
            if not ok:
                failures.append(f"{item[:3]}: service result differs from the direct call")
        return failures


def _same(left, right) -> bool:
    """Bit-for-bit equality of two solve results (or plain values)."""
    if hasattr(left, "optimal_parameters"):
        return (
            left.optimal_expectation == right.optimal_expectation
            and left.num_function_calls == right.num_function_calls
            and np.array_equal(
                left.optimal_parameters.to_vector(), right.optimal_parameters.to_vector()
            )
        )
    if hasattr(left, "optimal_expectation"):
        return left.optimal_expectation == right.optimal_expectation
    return left == right


# ---------------------------------------------------------------------------
# noisy_density: exact noisy solves and dissipative anneals
# ---------------------------------------------------------------------------
class NoisyDensity(Workload):
    name = "noisy_density"
    why = (
        "density-mode QAOA solves at n=6 (PTM superoperator kernels on vec(rho)) "
        "and Lindblad anneals on the same graphs"
    )
    EDGES = (7, 8)
    DEPTHS = (2, 3)
    pass_seconds = 3.0
    #: COBYLA function evaluations per density solve: a fixed budget that
    #: every solve spends, so a pass costs the same on every seed.
    OPTIMIZER = "COBYLA"
    MAX_EVALUATIONS = 25
    ANNEAL_TIME = 2.0
    DISSIPATION = 0.01

    @staticmethod
    def noise_model() -> NoiseModel:
        return NoiseModel.uniform_depolarizing(0.002, 0.01)

    def make_inputs(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        problems = [_graph(rng, 6, m, f"nd-{i}") for i, m in enumerate(self.EDGES)]
        items = [
            ("solve", index, depth, _draw_seed(rng))
            for index, depth in enumerate(self.DEPTHS)
        ]
        items += [("anneal", index, self.ANNEAL_TIME) for index in range(len(problems))]
        return Inputs(problems, items, [item[:3] for item in items])

    def prepare(self, inputs: Inputs):
        model = self.noise_model()
        context = ExecutionContext(backend="circuit", density=True, noise_model=model)
        return {"context": context, "model": model}

    def warm(self, inputs: Inputs, state) -> None:
        solver = QAOASolver(self.OPTIMIZER, state["context"], seed=0, max_iterations=10)
        solver.solve(inputs.problems[0], 1)
        AnnealingSolver(dissipation=self.DISSIPATION).solve(inputs.problems[0], 0.1)

    def _operation(self, inputs: Inputs, state, item):
        if item[0] == "solve":
            _, index, depth, seed = item
            solver = QAOASolver(
                self.OPTIMIZER, state["context"], seed=seed, max_iterations=self.MAX_EVALUATIONS
            )
            return solver.solve(inputs.problems[index], depth)
        solver = AnnealingSolver(dissipation=self.DISSIPATION)
        return solver.solve(inputs.problems[item[1]], item[2])

    def run_pass(self, inputs: Inputs, state) -> PassResult:
        latencies, outputs, failed = [], [], 0
        started = time.perf_counter()
        for item in inputs.items:
            begin = time.perf_counter()
            try:
                outputs.append(self._operation(inputs, state, item))
            except Exception:
                outputs.append(None)
                failed += 1
            latencies.append(time.perf_counter() - begin)
        wall = time.perf_counter() - started
        done = [(item, out) for item, out in zip(inputs.items, outputs) if out is not None]
        qc_calls = sum(out.num_function_calls for item, out in done if item[0] == "solve")
        rhs = sum(out.num_rhs_evaluations for item, out in done if item[0] == "anneal")
        steps = sum(out.num_steps for item, out in done if item[0] == "anneal")
        return PassResult(
            wall_s=wall,
            attempted=len(inputs.items),
            latencies=latencies,
            qc_calls=qc_calls,
            ratios=[out.approximation_ratio for _, out in done],
            failed=failed,
            counts={"qc_calls": qc_calls, "rhs_evaluations": rhs, "integrator_steps": steps},
            outputs=outputs,
        )

    def check(self, inputs: Inputs, state, result: PassResult) -> List[str]:
        failures = []
        oracle = DensityMatrixSimulator(compiled=False)
        for item, out in zip(inputs.items, result.outputs):
            if out is None or item[0] != "solve":
                continue
            problem, depth = inputs.problems[item[1]], item[2]
            circuit, gammas, betas = build_parametric_qaoa_circuit(problem, depth)
            parameters = out.optimal_parameters
            bindings = dict(zip(gammas, parameters.gammas))
            bindings.update(zip(betas, parameters.betas))
            rho = oracle.run(circuit, bindings, noise_model=state["model"])
            value = rho.expectation_diagonal(problem.cost_diagonal())
            if abs(value - out.optimal_expectation) > 1e-10:
                failures.append(
                    f"n={problem.num_qubits} p={depth}: Kraus oracle {value!r} vs "
                    f"reported optimum {out.optimal_expectation!r}"
                )
        return failures


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    workload.name: workload for workload in (Table1, LargeN, ServiceMix, NoisyDensity)
}
