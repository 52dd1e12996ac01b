"""The asynchronous solver service: submit solves, get future-like handles.

:class:`SolverService` turns the library's synchronous
:class:`~repro.qaoa.solver.QAOASolver` into a long-lived, concurrent
solve endpoint:

* **Async job API** — :meth:`~SolverService.submit` returns a
  :class:`~repro.service.jobs.JobHandle` immediately; a bounded pool of
  worker threads drains the queue.  Handles support ``result(timeout=)``,
  ``status`` and cooperative ``cancel()``.
* **Request coalescing** — identical concurrent submissions (same graph
  content, depth, context, seed and options) share one computation: the
  first becomes the *primary* job, the rest attach to it and are fulfilled
  from its result.  Scalar expectation requests
  (:meth:`~SolverService.submit_expectation`) are batched per compile key
  through a :class:`~repro.service.coalescer.RequestCoalescer` into single
  vectorized ``expectation_batch`` sweeps.
* **Two-level caching** — compiled backend programs are shared across
  workers via a :class:`~repro.service.cache.ProgramCache`; finished
  *deterministic* solves (explicit integer seed) land in a
  :class:`~repro.service.cache.ResultCache`, so a warm resubmission
  completes without touching the queue.
* **Circuit jobs** — :meth:`~SolverService.submit_circuit` runs imported
  frontend workloads (OpenQASM text, a
  :class:`~repro.frontend.ir.CircuitIR`, or an emitted
  :class:`~repro.quantum.circuit.QuantumCircuit`) against an arbitrary
  :class:`~repro.quantum.operators.PauliSum` through the same queue,
  caches, deduplication and breaker machinery as solves; the prepared
  evaluator is shared across submissions through the program cache, keyed
  on circuit *content*.
* **Observability** — every component reports into one
  :class:`~repro.service.metrics.ServiceMetrics`
  (``service.metrics.to_dict()``).

Reliability semantics (see ``docs/reliability.md`` for the full story):

* **Per-job timeout** is cooperative (worker threads cannot be killed): a
  job that expires while still queued fails with
  :class:`~repro.exceptions.JobTimeoutError` without running; a job whose
  solve finishes after its deadline fails post-hoc.
* **Transient failures** (:class:`~repro.exceptions.TransientServiceError`)
  are retried up to ``max_retries`` times under a
  :class:`~repro.resilience.retry.RetryPolicy` (capped exponential backoff
  with decorrelated jitter).
* **Circuit breaking** — an optional
  :class:`~repro.resilience.breaker.CircuitBreaker` sheds jobs fast with
  :class:`~repro.exceptions.CircuitOpenError` while the backend is
  persistently failing, instead of burning the retry schedule per job.
* **Checkpoint/resume** — with a configured ``checkpoint_store``,
  ``submit(..., checkpoint=True)`` snapshots optimizer state at restart
  boundaries; a retried (or resubmitted) job resumes from the last
  completed restart and still returns a bit-identical result.
* **Persistent results** — ``persistent_cache_dir=`` adds a crash-safe
  on-disk tier under the in-memory result cache (atomic writes, per-entry
  checksums, corrupted entries quarantined and treated as a miss), so a
  restarted process keeps its warm results.
* **Graceful shutdown** — :meth:`~SolverService.shutdown` stops intake and
  either drains the queue (default) or cancels everything still pending.

Examples
--------
>>> from repro.graphs import MaxCutProblem, erdos_renyi_graph
>>> from repro.service import SolverService
>>> problem = MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=3))
>>> with SolverService(max_workers=2) as service:
...     handle = service.submit(problem, depth=1, seed=7)
...     result = handle.result(timeout=60)
>>> result.approximation_ratio > 0.7
True
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    JobTimeoutError,
    ServiceError,
    TransientServiceError,
)
from repro.execution.context import ContextLike, as_execution_context
from repro.execution.keys import (
    canonical_payload,
    circuit_cache_key,
    observable_cache_key,
    stable_hash,
)
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.solver import QAOASolver
from repro.quantum.operators import PauliSum
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.checkpoint import CheckpointSlot, CheckpointStore
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.service.cache import ProgramCache, ResultCache
from repro.service.coalescer import BatchFuture, RequestCoalescer
from repro.service.jobs import JobHandle
from repro.service.metrics import ServiceMetrics
from repro.service.persistence import PersistentResultCache
from repro.utils.validation import _integer

__all__ = ["SolverService"]

_SHUTDOWN = object()


class _Job:
    """Internal queue item: a handle plus everything needed to run it."""

    __slots__ = ("handle", "work", "deadline", "cacheable", "backend", "attached")

    def __init__(
        self,
        handle: JobHandle,
        work: Callable[[], Any],
        deadline: Optional[float],
        cacheable: bool,
        backend: Optional[str],
    ):
        self.handle = handle
        self.work = work
        self.deadline = deadline
        self.cacheable = cacheable
        #: Execution backend the job runs on (selects its circuit breaker).
        self.backend = backend
        #: Handles of deduplicated submissions fulfilled from this job.
        self.attached: List[JobHandle] = []


class SolverService:
    """A bounded-concurrency, caching, coalescing QAOA solve service.

    Parameters
    ----------
    context:
        The :class:`~repro.execution.context.ExecutionContext` every solve
        runs under (default: exact fast backend).
    max_workers:
        Worker-thread pool size.
    max_queue:
        Upper bound on queued (not yet running) jobs; ``None`` = unbounded.
        A full queue makes :meth:`submit` raise :class:`ServiceError`.
    default_timeout:
        Per-job timeout in seconds applied when ``submit`` gets none.
    max_retries:
        How many times a :class:`~repro.exceptions.TransientServiceError`
        is retried.
    retry_policy:
        The :class:`~repro.resilience.retry.RetryPolicy` spacing those
        retries (default: capped exponential backoff with decorrelated
        jitter from a 0.05 s base).
    breaker:
        Optional :class:`~repro.resilience.breaker.CircuitBreaker` guarding
        the service's configured backend; open-state submissions fail fast
        with :class:`~repro.exceptions.CircuitOpenError`.  Its state
        transitions are reported into the service metrics.
    breakers:
        Optional mapping of backend name to
        :class:`~repro.resilience.breaker.CircuitBreaker` for services
        running jobs on several backends (e.g. solves on ``"fast"`` and
        circuit jobs on ``"circuit"``).  Each job is gated by the breaker
        registered under its own backend, so one failing backend sheds its
        jobs without tripping the others.  Composable with *breaker* as
        long as the keys don't collide; metrics report per-backend
        transitions and rejections alongside the aggregate counters.
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector`; installs
        the ``worker.run`` site around job attempts, the
        ``backend.evaluate`` site inside the solver loop, and the
        ``cache.read`` / ``cache.write`` sites on the persistent cache.
    checkpoint_store:
        Optional :class:`~repro.resilience.checkpoint.CheckpointStore`
        enabling ``submit(..., checkpoint=True)``.
    persistent_cache_dir:
        Optional directory for the crash-safe on-disk result-cache tier.
    persistent_max_entries / persistent_ttl_seconds:
        Eviction policy of the on-disk tier (capacity bound swept after
        every write / per-entry time-to-live); ``None`` disables each.
    program_cache_size / result_cache_size:
        Capacities of the two cache levels.
    coalesce_max_batch / coalesce_max_wait_ms:
        Flush thresholds of the expectation coalescer.
    clock:
        Injectable monotonic time source (drives metrics and timeouts).
    **solver_options:
        Forwarded to :class:`~repro.qaoa.solver.QAOASolver` (``optimizer``,
        ``num_restarts``, ``tolerance``, ``max_iterations``, ``use_bounds``,
        ``candidate_pool``).
    """

    def __init__(
        self,
        context: ContextLike = None,
        *,
        max_workers: int = 4,
        max_queue: Optional[int] = None,
        default_timeout: Optional[float] = None,
        max_retries: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        breakers: Optional[Dict[str, CircuitBreaker]] = None,
        fault_injector: Optional[FaultInjector] = None,
        checkpoint_store: Optional[CheckpointStore] = None,
        persistent_cache_dir: Optional[Any] = None,
        persistent_max_entries: Optional[int] = None,
        persistent_ttl_seconds: Optional[float] = None,
        program_cache_size: int = 64,
        result_cache_size: int = 256,
        coalesce_max_batch: int = 64,
        coalesce_max_wait_ms: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
        seed: Optional[int] = None,
        **solver_options: Any,
    ):
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        if max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        if max_queue is not None and max_queue < 1:
            raise ConfigurationError(f"max_queue must be >= 1, got {max_queue}")
        self._context = as_execution_context(context)
        self._clock = clock
        self._default_timeout = default_timeout
        self._max_retries = int(max_retries)
        self._retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.metrics = ServiceMetrics(clock=clock)
        # Breaker registry keyed by backend name.  The scalar ``breaker=``
        # guards the service's configured backend; ``breakers=`` registers
        # one gate per backend, so a failing circuit engine sheds circuit
        # jobs without also shedding fast-backend solves.
        self._breakers: Dict[str, CircuitBreaker] = {}
        if breaker is not None:
            self._register_breaker(self._context.backend, breaker)
        for backend_name, backend_breaker in (breakers or {}).items():
            if backend_name in self._breakers:
                raise ConfigurationError(
                    f"two circuit breakers registered for backend {backend_name!r}"
                )
            self._register_breaker(backend_name, backend_breaker)
        self._fault_injector = fault_injector
        if fault_injector is not None:
            fault_injector.attach_metrics(self.metrics)
        self._checkpoint_store = checkpoint_store
        self.programs = ProgramCache(program_cache_size, metrics=self.metrics)
        persistent = None
        if persistent_cache_dir is not None:
            persistent = PersistentResultCache(
                persistent_cache_dir,
                metrics=self.metrics,
                fault_injector=fault_injector,
                max_entries=persistent_max_entries,
                ttl_seconds=persistent_ttl_seconds,
            )
        self.results = ResultCache(
            result_cache_size, metrics=self.metrics, persistent=persistent
        )
        self._coalescer = RequestCoalescer(
            max_batch=coalesce_max_batch,
            max_wait_ms=coalesce_max_wait_ms,
            metrics=self.metrics,
            clock=clock,
        )
        # One shared solver: its compiled-program LRU and the service-level
        # ProgramCache both key on content, and solve() is thread-safe when
        # every job carries its own integer seed (which the service
        # guarantees below).
        self._solver_options = dict(solver_options)
        self._solver = QAOASolver(
            context=self._context, fault_injector=fault_injector, **solver_options
        )
        # The options part of the solve-result key: everything that changes
        # what solve() computes besides (problem, depth, context, seed).
        self._options_signature = canonical_payload(
            {
                "optimizer": self._solver.optimizer.name,
                "tolerance": self._solver.optimizer.tolerance,
                "max_iterations": self._solver.optimizer.max_iterations,
                "num_restarts": self._solver_options.get("num_restarts", 1),
                "use_bounds": bool(self._solver_options.get("use_bounds", False)),
                "candidate_pool": self._solver_options.get("candidate_pool"),
            }
        )
        # Per-job seed derivation for unseeded submissions: independent
        # streams per job, no shared-generator contention across workers.
        self._seed_sequence = np.random.SeedSequence(seed)
        self._seed_lock = threading.Lock()
        # Job intake and the in-flight index for submission deduplication.
        self._queue: "queue.Queue" = queue.Queue()
        self._max_queue = max_queue
        self._queued_jobs = 0
        self._inflight: Dict[str, _Job] = {}
        self._state_lock = threading.Lock()
        self._accepting = True
        self._workers: List[threading.Thread] = []
        for index in range(int(max_workers)):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-service-{index}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        self._coalescer.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def context(self):
        """The execution context every solve runs under."""
        return self._context

    @property
    def max_workers(self) -> int:
        return len(self._workers)

    @property
    def queue_depth(self) -> int:
        """Number of jobs queued and not yet picked up by a worker."""
        with self._state_lock:
            return self._queued_jobs

    def _derive_seed(self) -> int:
        with self._seed_lock:
            child = self._seed_sequence.spawn(1)[0]
        return int(child.generate_state(1, dtype="uint64")[0] % (2**63))

    # ------------------------------------------------------------------
    # Circuit breakers
    # ------------------------------------------------------------------
    def _register_breaker(self, backend: str, breaker: CircuitBreaker) -> None:
        self._breakers[backend] = breaker

        def listener(old_state: str, new_state: str, _backend: str = backend) -> None:
            self.metrics.breaker_transition(old_state, new_state, backend=_backend)

        breaker.add_listener(listener)

    def _breaker_for(self, backend: Optional[str]) -> Optional[CircuitBreaker]:
        """The breaker gating jobs on *backend* (``None`` = ungated)."""
        if backend is None:
            return None
        return self._breakers.get(backend)

    @property
    def breakers(self) -> Dict[str, CircuitBreaker]:
        """The registered circuit breakers, keyed by backend name (a copy)."""
        return dict(self._breakers)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        problem: MaxCutProblem,
        depth: int,
        *,
        seed: Optional[int] = None,
        timeout: Optional[float] = None,
        initial_parameters: Any = None,
        num_restarts: Optional[int] = None,
        candidate_pool: Optional[int] = None,
        checkpoint: bool = False,
    ) -> JobHandle:
        """Queue one QAOA solve; returns its :class:`JobHandle` immediately.

        With an explicit integer *seed* the solve is deterministic, so the
        service consults the result cache first (a warm hit completes the
        handle synchronously) and deduplicates against identical in-flight
        submissions.  Without a seed each job gets an independent derived
        seed and always runs.

        ``checkpoint=True`` (requires a configured ``checkpoint_store`` and
        an explicit *seed*) snapshots optimizer state at every restart
        boundary under this job's cache key: a killed or timed-out job
        resubmitted with the same arguments resumes from the last completed
        restart (``handle.resumed`` reports it) and still returns a result
        bit-identical to the uninterrupted run.  Transient-failure retries
        of the same job resume the same way.  The snapshot is deleted once
        the job completes.
        """
        depth = _integer(depth, "depth", minimum=1)
        explicit_seed = seed is not None
        if explicit_seed:
            seed = _integer(seed, "seed")
        if num_restarts is not None:
            num_restarts = _integer(num_restarts, "num_restarts", minimum=1)
        if candidate_pool is not None:
            candidate_pool = _integer(candidate_pool, "candidate_pool", minimum=1)
        if checkpoint:
            if self._checkpoint_store is None:
                raise ConfigurationError(
                    "checkpoint=True requires the service to be built with a "
                    "checkpoint_store"
                )
            if not explicit_seed:
                raise ConfigurationError(
                    "checkpoint=True requires an explicit integer seed (resume "
                    "is only bit-identical for deterministic submissions)"
                )
        key = self.results.key(
            problem,
            depth,
            self._context,
            seed if explicit_seed else None,
            options={
                "service": self._options_signature,
                "per_call": {
                    "num_restarts": num_restarts,
                    "candidate_pool": candidate_pool,
                    "initial_parameters": _vector_payload(initial_parameters),
                },
            },
        )
        handle = JobHandle(key, self._clock)
        run_seed = seed if explicit_seed else self._derive_seed()

        slot: Optional[CheckpointSlot] = None
        if checkpoint:
            slot = CheckpointSlot(
                self._checkpoint_store,
                key,
                on_save=self.metrics.checkpoint_saved,
                on_resume=self.metrics.checkpoint_resumed,
            )

        def work() -> Any:
            result = self._solver.solve(
                problem,
                depth,
                initial_parameters=initial_parameters,
                num_restarts=num_restarts,
                candidate_pool=candidate_pool,
                seed=run_seed,
                checkpoint=slot,
            )
            if slot is not None:
                handle.resumed = slot.resumed
                # The job is done; its snapshot has served its purpose.
                slot.delete()
            return result

        return self._admit(
            handle, work, self._context.backend, timeout, cacheable=explicit_seed
        )

    def submit_callable(
        self,
        work: Callable[[], Any],
        *,
        timeout: Optional[float] = None,
    ) -> JobHandle:
        """Queue an arbitrary callable on the worker pool (advanced).

        The callable runs under the same timeout/retry/metrics machinery as
        a solve but bypasses both caches.  Useful for tests and for custom
        workloads that want the service's concurrency control.
        """
        return self._admit(
            JobHandle(None, self._clock),
            work,
            self._context.backend,
            timeout,
            cacheable=False,
        )

    def _admit(
        self,
        handle: JobHandle,
        work: Callable[[], Any],
        backend: Optional[str],
        timeout: Optional[float],
        *,
        cacheable: bool = True,
    ) -> JobHandle:
        """The one admission path behind every ``submit*`` method.

        A cacheable job (keyed by ``handle.cache_key``) is first served from
        the result cache, then attached to an identical in-flight job;
        otherwise it is queued with its breaker *backend* and deadline.  A
        refused submission raises before any job counter moves.
        """
        if timeout is None:
            timeout = self._default_timeout
        deadline = None
        if timeout is not None:
            try:
                deadline = handle.submitted_at + float(timeout)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"timeout must be a number of seconds, got {timeout!r}"
                ) from None
        key = handle.cache_key
        if cacheable:
            cached = self.results.get(key)
            if cached is not None:
                handle.from_cache = True
                handle._mark_completed(cached)
                self.metrics.job_submitted()
                self.metrics.job_completed(latency=0.0, queue_wait=0.0, run_time=0.0)
                return handle
        with self._state_lock:
            if not self._accepting:
                raise ServiceError("service is shut down; submissions are closed")
            primary = self._inflight.get(key) if cacheable else None
            if primary is None and (
                self._max_queue is not None and self._queued_jobs >= self._max_queue
            ):
                raise ServiceError(
                    f"service queue is full ({self._max_queue} jobs); try again later"
                )
            self.metrics.job_submitted()
            if primary is not None:
                primary.attached.append(handle)
                handle.deduplicated = True
                self.metrics.job_deduplicated()
                return handle
            job = _Job(handle, work, deadline, cacheable, backend)
            if cacheable:
                self._inflight[key] = job
            self._queued_jobs += 1
            self.metrics.queue_depth_changed(1)
            self._queue.put(job)
        return handle

    # ------------------------------------------------------------------
    # Circuit jobs
    # ------------------------------------------------------------------
    def submit_circuit(
        self,
        source: Any,
        observable: Any,
        *,
        parameters: Any = None,
        compiled: bool = True,
        lower_to: Optional[Any] = None,
        timeout: Optional[float] = None,
        name: Optional[str] = None,
    ) -> JobHandle:
        """Queue one imported-circuit expectation; returns its handle.

        *source* is anything the frontend ingests — OpenQASM 2 text, a
        :class:`~repro.frontend.ir.CircuitIR`, or an already-emitted
        :class:`~repro.quantum.circuit.QuantumCircuit` — and *observable*
        is any :class:`~repro.quantum.operators.PauliSum`.  The handle's
        ``result()`` is the scalar ``⟨observable⟩`` at *parameters* (a
        mapping or a vector in the circuit's first-appearance order;
        ``None`` for parameter-free circuits).

        The prepared
        :class:`~repro.frontend.evaluator.CircuitExpectationEvaluator` is
        shared through the service's program cache, keyed on circuit
        *content* (:meth:`~repro.frontend.ir.CircuitIR.cache_key`), the
        observable, the lowering basis and the *compiled* flag — so warm
        re-submissions with new parameter values re-bind one compiled
        program instead of re-parsing and re-lowering.  Expectations are
        exact and deterministic, hence always result-cached and
        deduplicated against identical in-flight submissions.  Circuit
        jobs run on the gate-level engine and are gated by the breaker
        registered under ``"circuit"`` (see the ``breakers=`` knob).
        """
        from repro.frontend.evaluator import CircuitExpectationEvaluator
        from repro.frontend.ir import CircuitIR
        from repro.frontend.parser import parse_qasm

        if not isinstance(observable, PauliSum):
            raise ConfigurationError(
                f"observable must be a PauliSum, got {type(observable).__name__}"
            )
        if isinstance(source, str):
            source = parse_qasm(source, name=name or "qasm")
        if isinstance(source, CircuitIR):
            circuit_key = source.cache_key()
        else:
            circuit_key = circuit_cache_key(source)
        program_key = stable_hash(
            {
                "kind": "circuit-expectation",
                "circuit": circuit_key,
                "observable": observable_cache_key(observable),
                "compiled": bool(compiled),
                "lower_to": None if lower_to is None else sorted(lower_to),
            }
        )
        prepared = source
        evaluator = self.programs.get_or_create(
            program_key,
            lambda: CircuitExpectationEvaluator(
                prepared, observable, compiled=compiled, lower_to=lower_to, name=name
            ),
        )
        key = stable_hash(
            {
                "kind": "circuit-result",
                "program": program_key,
                "parameters": _binding_payload(parameters),
            }
        )

        def work() -> float:
            return evaluator.expectation(parameters)

        return self._admit(JobHandle(key, self._clock), work, "circuit", timeout)

    # ------------------------------------------------------------------
    # Annealing jobs
    # ------------------------------------------------------------------
    def submit_anneal(
        self,
        problem: MaxCutProblem,
        anneal_time: Optional[float] = None,
        *,
        schedule: Any = None,
        method: str = "rk45",
        rtol: float = 1e-8,
        atol: float = 1e-10,
        num_steps: int = 400,
        dissipation: Any = None,
        context: Any = None,
        timeout: Optional[float] = None,
    ) -> JobHandle:
        """Queue one continuous-time anneal; returns its handle.

        Runs an :class:`~repro.dynamics.AnnealingSolver` solve — uniform
        superposition evolved through *schedule* (or a smooth ramp of length
        *anneal_time*) — on the worker pool; the handle's ``result()`` is
        its :class:`~repro.dynamics.AnnealingResult`.

        Anneals are seedless and deterministic, hence always result-cached
        (keyed on graph content, the canonical schedule payload and the
        solver options) and deduplicated against identical in-flight
        submissions.  The shared :class:`~repro.dynamics.AnnealingSolver`
        is reused through the program cache, keyed on its options.  The
        *context* (default: the gate-level ``"circuit"`` backend, the only
        one with continuous-time evolution) selects the circuit breaker
        gating the job — see the ``breakers=`` knob.

        *dissipation* switches the anneal to a Lindblad master equation
        (a rate, a ``{jump: rate}`` mapping, or a
        :class:`~repro.quantum.noise.NoiseModel`).
        """
        from repro.dynamics.annealing import AnnealingSolver, dissipation_payload
        from repro.execution.keys import anneal_cache_key

        solver_key = stable_hash(
            {
                "kind": "anneal-solver",
                "method": str(method),
                "rtol": float(rtol),
                "atol": float(atol),
                "num_steps": int(num_steps),
                "dissipation": (
                    None if dissipation is None else dissipation_payload(dissipation)
                ),
                "context": (
                    None if context is None else as_execution_context(context).cache_key()
                ),
            }
        )
        solver = self.programs.get_or_create(
            solver_key,
            lambda: AnnealingSolver(
                method=method,
                rtol=rtol,
                atol=atol,
                num_steps=num_steps,
                dissipation=dissipation,
                context=context,
            ),
        )
        resolved = solver.resolve_schedule(anneal_time, schedule)
        key = anneal_cache_key(
            problem, resolved.payload(), options=solver.options_payload()
        )

        def work() -> Any:
            return solver.solve(problem, schedule=resolved)

        handle = self._admit(JobHandle(key, self._clock), work, solver.backend, timeout)
        self.metrics.anneal_submitted()
        return handle

    # ------------------------------------------------------------------
    # Expectation coalescing
    # ------------------------------------------------------------------
    def submit_expectation(
        self, problem: MaxCutProblem, depth: int, parameters: Any
    ) -> BatchFuture:
        """Request one cost expectation; concurrent requests sharing this
        problem/depth/context are batched into a single vectorized sweep.

        Returns a :class:`~repro.service.coalescer.BatchFuture`; call
        ``result(timeout=)`` for the value.
        """
        key, program = self.programs.get_or_compile(problem, depth, self._context)
        evaluator = ExpectationEvaluator(
            problem, depth, context=self._context, program=program
        )
        return self._coalescer.submit(key, evaluator, parameters)

    def expectation(
        self,
        problem: MaxCutProblem,
        depth: int,
        parameters: Any,
        timeout: Optional[float] = None,
    ) -> float:
        """Synchronous convenience wrapper around :meth:`submit_expectation`."""
        return self.submit_expectation(problem, depth, parameters).result(timeout)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _SHUTDOWN:
                return
            with self._state_lock:
                self._queued_jobs -= 1
            self.metrics.queue_depth_changed(-1)
            self._run_job(job)

    def _finish(self, job: _Job, result: Any = None, error: Optional[BaseException] = None) -> None:
        """Drop *job* from the in-flight index, then fulfil its handle and
        every attached duplicate (a cancelled handle stays cancelled)."""
        with self._state_lock:
            if job.cacheable:
                self._inflight.pop(job.handle.cache_key, None)
            handles = [job.handle] + job.attached
        for handle in handles:
            if error is None:
                handle._mark_completed(result)
            else:
                handle._mark_failed(error)

    def _run_job(self, job: _Job) -> None:
        handle = job.handle
        now = self._clock()
        if job.deadline is not None and now > job.deadline:
            # Expired while queued: fail without running.
            self.metrics.job_failed(timed_out=True)
            self._finish(
                job,
                error=JobTimeoutError(
                    f"job {handle.job_id} spent {now - handle.submitted_at:.3f} s "
                    f"in the queue, exceeding its timeout"
                ),
            )
            return
        if not handle._mark_running():
            # Cancelled while queued.  Duplicates attached to it still expect
            # an answer; fail them explicitly rather than leaving them hanging.
            self.metrics.job_cancelled()
            self._finish(
                job,
                error=ServiceError(
                    f"primary job {handle.job_id} for this submission was cancelled"
                ),
            )
            return

        queue_wait = (handle.started_at or now) - handle.submitted_at
        attempts = 0
        previous_delay: Optional[float] = None
        breaker = self._breaker_for(job.backend)
        while True:
            if breaker is not None and not breaker.allow():
                # The backend is considered unhealthy: shed the job fast
                # instead of burning its whole retry schedule.
                self.metrics.breaker_rejected(backend=job.backend)
                self.metrics.job_failed()
                self._finish(
                    job,
                    error=CircuitOpenError(
                        f"circuit breaker {breaker.name!r} is "
                        f"{breaker.state}; job {handle.job_id} shed"
                    ),
                )
                return
            started = self._clock()
            try:
                if self._fault_injector is not None:
                    self._fault_injector.check("worker.run")
                result = job.work()
                if breaker is not None:
                    breaker.record_success()
                break
            except TransientServiceError as error:
                if breaker is not None:
                    breaker.record_failure()
                attempts += 1
                if attempts > self._max_retries:
                    self.metrics.job_failed()
                    self._finish(job, error=error)
                    return
                handle.retries = attempts
                self.metrics.job_retried()
                previous_delay = self._retry_policy.sleep_before(
                    attempts, previous_delay
                )
            except BaseException as error:  # noqa: B036 - forwarded to the handle
                if breaker is not None:
                    breaker.record_failure()
                self.metrics.job_failed()
                self._finish(job, error=error)
                return
        run_time = self._clock() - started
        if job.deadline is not None and self._clock() > job.deadline:
            # The solve outlived its budget; timeouts are cooperative, so
            # this is detected after the fact.
            self.metrics.job_failed(timed_out=True)
            self._finish(
                job,
                error=JobTimeoutError(
                    f"job {handle.job_id} ran {run_time:.3f} s, exceeding its timeout"
                ),
            )
            return
        if job.cacheable and handle.cache_key is not None:
            self.results.put(handle.cache_key, result)
        self._finish(job, result=result)
        latency = self._clock() - handle.submitted_at
        self.metrics.job_completed(
            latency=latency, queue_wait=queue_wait, run_time=run_time
        )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the service.

        *drain* (default) lets queued jobs run to completion; otherwise
        everything still pending is cancelled.  *wait* joins the worker
        threads (bounded by *timeout* seconds per thread).  Idempotent.
        """
        with self._state_lock:
            if not self._accepting:
                return
            self._accepting = False
        if not drain:
            # Cancel every job still waiting in the queue.  Workers skip
            # cancelled jobs, so no new solves start after this loop.
            drained: List[_Job] = []
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if job is _SHUTDOWN:
                    continue
                drained.append(job)
            for job in drained:
                with self._state_lock:
                    self._queued_jobs -= 1
                self.metrics.queue_depth_changed(-1)
                # A queued job is pending or already cancelled by its client;
                # either way it ends cancelled here and is counted once.
                job.handle.cancel()
                self.metrics.job_cancelled()
                self._finish(job, error=ServiceError("service shut down before the job ran"))
        for _ in self._workers:
            self._queue.put(_SHUTDOWN)
        if wait:
            for worker in self._workers:
                worker.join(timeout)
        self._coalescer.stop(drain=drain)

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"SolverService(backend={self._context.backend!r}, "
            f"workers={len(self._workers)}, queue_depth={self.queue_depth})"
        )


def _vector_payload(parameters: Any) -> Optional[list]:
    """Canonicalise initial parameters for the solve-result key."""
    if parameters is None:
        return None
    vector = getattr(parameters, "to_vector", None)
    if callable(vector):
        parameters = vector()
    return [float(value) for value in parameters]


def _binding_payload(parameters: Any) -> Any:
    """Canonicalise circuit parameter bindings for the circuit-result key.

    Mappings key by parameter *name* (a positional vector and a mapping are
    hashed differently on purpose — they only coincide when the mapping
    happens to follow first-appearance order, which the key must not guess).
    """
    if parameters is None:
        return None
    if isinstance(parameters, Mapping):
        return {
            getattr(key, "name", str(key)): float(value)
            for key, value in parameters.items()
        }
    return [float(value) for value in np.asarray(parameters, dtype=float).ravel()]
