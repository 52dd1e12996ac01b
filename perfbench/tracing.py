"""Outside-in layer tracing: spans around the public calls into each layer.

Nothing here edits the library.  :func:`install` wraps public methods and
functions of ``repro`` in place, and :meth:`Patches.restore` puts the
originals back, so untraced passes run the library exactly as users do.

Three rules keep the numbers honest:

* one span stack per thread, so time spent on service worker threads lands
  on the layers of the job it serves, not on the client;
* a function imported by name (``from repro.execution.keys import
  stable_hash``) is patched in every ``repro`` module that holds it, because
  that is where its caller looks it up;
* a span nested inside a span of the same layer (``NoisyCompiledProgram``
  segments calling ``CompiledProgram.apply``) counts once: layer totals, call
  counts and work counts come from the outermost span only, while self time
  (span time minus child-span time) is still attributed exactly.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: Every compiled-op kind the engine reports in ``operation_summary()``.
ENGINE_OP_KINDS = (
    "DiagonalOp",
    "RightGemmOp",
    "LeftGemmOp",
    "BmmOp",
    "TwoQubitOp",
    "CXOp",
    "SwapOp",
    "GenericOp",
    "SuperOp",
)

#: Bytes per amplitude of the engine's complex128 state.
AMPLITUDE_BYTES = 16


class _ThreadState:
    __slots__ = ("stack", "depth", "self_time", "total", "calls", "counts", "samples")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.depth: Counter = Counter()
        self.self_time: Dict[str, float] = defaultdict(float)
        self.total: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)


class Tracer:
    """Per-thread span stacks with self-time and outermost-span accounting.

    Each thread accumulates into its own state (no lock on the hot path);
    :meth:`summary` merges them.  Outermost-span durations of the layers
    named in *sampled* are also kept one by one, for percentiles.  *clock*
    is injectable for tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, sampled=()):
        self._clock = clock
        self._sampled = frozenset(sampled)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._register = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._register:
                self._states.append(state)
        return state

    def enter(self, layer: str) -> bool:
        """Open a span; returns whether it is the outermost of its layer."""
        state = self._state()
        outermost = state.depth[layer] == 0
        state.depth[layer] += 1
        state.stack.append([layer, self._clock(), 0.0])
        return outermost

    def exit(self) -> None:
        """Close the innermost span."""
        end = self._clock()
        state = self._state()
        layer, start, child_time = state.stack.pop()
        duration = end - start
        state.self_time[layer] += duration - child_time
        state.depth[layer] -= 1
        if state.depth[layer] == 0:
            state.total[layer] += duration
            state.calls[layer] += 1
            if layer in self._sampled:
                state.samples[layer].append(duration)
        if state.stack:
            state.stack[-1][2] += duration

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to the named work counter."""
        self._state().counts[name] += amount

    def summary(self) -> dict:
        """Merged ``self_time``/``total``/``calls``/``counts``/``samples``."""
        merged = {
            "self_time": defaultdict(float),
            "total": defaultdict(float),
            "calls": Counter(),
            "counts": Counter(),
            "samples": defaultdict(list),
        }
        with self._register:
            states = list(self._states)
        for state in states:
            for key in ("self_time", "total"):
                for layer, value in getattr(state, key).items():
                    merged[key][layer] += value
            merged["calls"].update(state.calls)
            merged["counts"].update(state.counts)
            for layer, values in state.samples.items():
                merged["samples"][layer].extend(values)
        return merged


def traced(tracer: Tracer, layer: str, function: Callable, after=None) -> Callable:
    """Wrap *function* in a *layer* span.

    *after(outermost, args, kwargs, result)* runs once the span has closed,
    to record work counts without charging them to the layer.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        outermost = tracer.enter(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(outermost, args, kwargs, result)
        return result

    return wrapper


class Patches:
    """Installed wrappers, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def method(self, cls, name: str, wrap: Callable[[Callable], Callable]) -> bool:
        """Replace ``cls.name`` (plain, class or static method) with ``wrap(fn)``."""
        if cls is None or name not in cls.__dict__:
            return False
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(wrap(original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(wrap(original.__func__))
        else:
            replacement = wrap(original)
        setattr(cls, name, replacement)
        self._undo.append((cls, name, original))
        return True

    def function(self, function: Optional[Callable], wrapped: Callable) -> int:
        """Patch *function* in every loaded ``repro`` module that holds it."""
        if function is None:
            return 0
        name = function.__name__
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            if module.__dict__.get(name) is function:
                setattr(module, name, wrapped)
                self._undo.append((module, name, function))
                patched += 1
        return patched

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _lookup(module_name: str, *names: str):
    """``module.names[0].names[1]...`` or ``None`` when any part is missing."""
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = __import__(module_name, fromlist=["_"])
        except ImportError:
            return None
    value = module
    for name in names:
        value = getattr(value, name, None)
        if value is None:
            return None
    return value


def _rows(state) -> int:
    shape = getattr(state, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _batch_rows(matrix) -> int:
    """Rows of a ``(batch, P)`` parameter matrix (a flat vector is one row)."""
    shape = getattr(matrix, "shape", None)
    if shape is None:
        first = matrix[0] if len(matrix) else None
        return len(matrix) if isinstance(first, (list, tuple)) or hasattr(first, "shape") else 1
    return int(shape[0]) if len(shape) == 2 else 1


def install(tracer: Tracer) -> Patches:
    """Wrap the public calls into every layer; returns the undo record."""
    patches = Patches()

    def wrap(layer, after=None):
        return lambda function: traced(tracer, layer, function, after)

    # -- service (client side) ------------------------------------------
    service_cls = _lookup("repro.service.service", "SolverService")
    for name in ("submit", "submit_circuit", "submit_anneal", "submit_expectation"):
        patches.method(service_cls, name, wrap("service.submit"))
    for name in ("__init__", "shutdown"):
        patches.method(service_cls, name, wrap("service.lifecycle"))
    for cls in (
        _lookup("repro.service.jobs", "JobHandle"),
        _lookup("repro.service.coalescer", "BatchFuture"),
    ):
        patches.method(cls, "result", wrap("service.wait"))

    # -- execution: stable hashing and cache keys -------------------------
    keys = _lookup("repro.execution.keys")
    if keys is not None:
        for name in (
            "stable_hash",
            "graph_cache_key",
            "problem_cache_key",
            "compile_cache_key",
            "circuit_cache_key",
            "observable_cache_key",
            "anneal_cache_key",
            "solve_cache_key",
        ):
            function = getattr(keys, name, None)
            if function is not None:
                patches.function(function, traced(tracer, "execution.keys", function))

    # -- frontend ----------------------------------------------------------
    for module_name, name, layer in (
        ("repro.frontend.parser", "parse_qasm", "frontend.parse"),
        ("repro.frontend.passes", "lower_to_native", "frontend.lower"),
        ("repro.frontend.emit", "to_circuit", "frontend.emit"),
    ):
        function = _lookup(module_name, name)
        if function is not None:
            patches.function(function, traced(tracer, layer, function))

    # -- optimizers: maximize minus its objective calls --------------------
    optimizer_cls = _lookup("repro.optimizers.base", "Optimizer")

    def wrap_maximize(maximize):
        @functools.wraps(maximize)
        def wrapper(self, objective, *args, **kwargs):
            def counted(point):
                tracer.count("optimizers.calls")
                return objective(point)

            return maximize(self, counted, *args, **kwargs)

        return traced(tracer, "optimizers", wrapper)

    patches.method(optimizer_cls, "maximize", wrap_maximize)

    # -- qaoa --------------------------------------------------------------
    def count_rows(counter: str, batched: bool):
        def after(outermost, args, kwargs, result):
            if outermost:
                tracer.count(counter, _batch_rows(args[1]) if batched else 1)

        return after

    for module_name, name, layer in (
        ("repro.qaoa.cost", "ExpectationEvaluator", "qaoa.evaluator"),
        ("repro.qaoa.fast_backend", "FastMaxCutEvaluator", "qaoa.fast"),
    ):
        cls = _lookup(module_name, name)
        for method in ("expectation", "statevector", "expectation_batch", "statevector_batch"):
            after = count_rows(f"{layer}.rows", method.endswith("_batch"))
            patches.method(cls, method, wrap(layer, after))
    patches.method(_lookup("repro.qaoa.solver", "QAOASolver"), "solve", wrap("qaoa.solver"))
    for name in ("FastBackend", "CircuitBackend"):
        patches.method(_lookup("repro.qaoa.backends", name), "compile", wrap("qaoa.compile"))

    # -- quantum: engine sweeps, simulators, density/PTM --------------------
    summaries: Dict[int, tuple] = {}

    def count_engine(outermost, args, kwargs, result):
        if not outermost:
            return
        program, state = args[0], args[1]
        entry = summaries.get(id(program))
        if entry is None or entry[0] is not program:
            entry = (program, program.operation_summary())
            summaries[id(program)] = entry
        rows = _rows(state)
        state_bytes = int(state.shape[-1]) * AMPLITUDE_BYTES
        tracer.count("quantum.engine.rows", rows)
        for kind, number in entry[1].items():
            tracer.count(f"quantum.engine.ops.{kind}", number * rows)
            tracer.count("quantum.engine.bytes", number * rows * state_bytes * 2)

    for name in ("CompiledProgram", "NoisyCompiledProgram"):
        patches.method(
            _lookup("repro.quantum.engine", name), "apply", wrap("quantum.engine", count_engine)
        )

    simulator_cls = _lookup("repro.quantum.simulator", "StatevectorSimulator")
    for name in ("run", "run_batch", "expectation", "expectation_batch"):
        patches.method(simulator_cls, name, wrap("quantum.simulator"))

    def wrap_simulator_compile(compile_method):
        @functools.wraps(compile_method)
        def wrapper(self, circuit):
            misses = self.program_cache_misses
            program = compile_method(self, circuit)
            outcome = "hits" if self.program_cache_misses == misses else "misses"
            tracer.count(f"quantum.simulator.program_cache.{outcome}")
            return program

        return traced(tracer, "quantum.compile", wrapper)

    patches.method(simulator_cls, "compile", wrap_simulator_compile)

    density_cls = _lookup("repro.quantum.density", "DensityMatrixSimulator")
    patches.method(density_cls, "run", wrap("quantum.density"))
    patches.method(density_cls, "compile_noisy", wrap("quantum.ptm"))

    # -- dynamics: right-hand sides and the integrator ----------------------
    for module_name, name, method in (
        ("repro.dynamics.schedules", "InterpolatedHamiltonian", "apply"),
        ("repro.dynamics.lindblad", "Lindbladian", "rhs"),
    ):
        patches.method(_lookup(module_name, name), method, wrap("dynamics.rhs"))

    def count_steps(outermost, args, kwargs, result):
        if outermost:
            tracer.count("dynamics.steps", getattr(result, "num_steps", 0))

    patches.method(
        _lookup("repro.dynamics.annealing", "AnnealingSolver"),
        "solve",
        wrap("dynamics.integrator", count_steps),
    )
    evolve = _lookup("repro.dynamics.integrators", "evolve")
    if evolve is not None:
        patches.function(evolve, traced(tracer, "dynamics.integrator", evolve))

    # -- prediction and acceleration ---------------------------------------
    patches.method(
        _lookup("repro.prediction.dataset", "TrainingDataset"), "generate", wrap("prediction.dataset")
    )
    predictor_cls = _lookup("repro.prediction.predictor", "ParameterPredictor")
    patches.method(predictor_cls, "fit", wrap("prediction.fit"))
    patches.method(predictor_cls, "predict", wrap("prediction.predict"))
    compare = _lookup("repro.acceleration.comparison", "compare_on_problem")
    if compare is not None:
        patches.function(compare, traced(tracer, "acceleration", compare))
    return patches
