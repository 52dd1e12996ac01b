"""Thread-safe caches backing the solver service.

Two levels, mirroring what is expensive at each layer:

* :class:`ProgramCache` — compiled backend programs keyed on
  :func:`~repro.execution.keys.compile_cache_key` (graph content, depth,
  backend, density).  Programs are structure-bound and immutable after
  compilation, so one cached program serves every worker thread at once.
  For the circuit backend the program carries its own simulator whose
  engine-level LRU (:meth:`~repro.quantum.simulator.StatevectorSimulator.compile`)
  continues to deduplicate circuit lowering underneath this cache — the
  service layer caches the *program object*, the engine caches the
  *kernel lowering*.
* :class:`ResultCache` — finished solve results keyed on
  :func:`~repro.execution.keys.solve_cache_key`.  Only deterministic solves
  (explicit integer seed) are cached: without a pinned seed two submissions
  of the same problem legitimately produce different optimization runs, and
  serving a cached one would silently change semantics.

Both wrap the same bounded :class:`~repro.utils.lru.LRUCache` (the one the
solver's program cache uses); hit/miss accounting flows into
:class:`~repro.service.metrics.ServiceMetrics` when one is attached.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.execution.keys import compile_cache_key, solve_cache_key
from repro.qaoa.backends import compile_program
from repro.utils.lru import LRUCache

__all__ = ["LRUCache", "ProgramCache", "ResultCache"]


class ProgramCache:
    """Shared compiled-program cache for the service tier.

    ``get_or_compile`` is the only entry point: it resolves the compile key,
    reuses a cached program when present, and otherwise dispatches one
    backend compilation.  Compilation runs outside the cache lock; two
    threads racing on a cold key may both compile and one result wins the
    slot — duplicated work, never corruption.
    """

    def __init__(self, capacity: int = 64, metrics=None):
        self._cache = LRUCache(capacity)
        self._metrics = metrics

    def __len__(self) -> int:
        return len(self._cache)

    def get_or_compile(self, problem, depth: int, context) -> Tuple[str, Any]:
        """The ``(compile_key, program)`` pair for this solve configuration."""
        key = compile_cache_key(problem, depth, context)
        return key, self.get_or_create(
            key, lambda: compile_program(problem, depth, context)
        )

    def get_or_create(self, key: str, factory) -> Any:
        """The program cached under *key*, building it via *factory* on a miss.

        The generic entry point behind :meth:`get_or_compile`; circuit jobs
        (:meth:`~repro.service.service.SolverService.submit_circuit`) use it
        with frontend content keys, sharing hit/miss accounting and the LRU
        with compiled solve programs.
        """
        program = self._cache.get(key)
        if program is not None:
            if self._metrics is not None:
                self._metrics.program_cache_hit()
            return program
        if self._metrics is not None:
            self._metrics.program_cache_miss()
        program = factory()
        self._cache.put(key, program)
        return program

    def clear(self) -> None:
        self._cache.clear()


class ResultCache:
    """Solve-result cache (deterministic submissions only).

    The *service* decides eligibility (explicit integer seed) before calling
    :meth:`put`; the cache itself is policy-free storage.

    An optional *persistent* tier (a
    :class:`~repro.service.persistence.PersistentResultCache`) sits under
    the in-memory LRU: a memory miss falls through to disk (a disk hit is
    promoted back into memory), and every :meth:`put` also lands on disk —
    so a restarted process keeps its warm results.  The hit/miss counters
    reported here describe the *combined* cache; the persistent tier keeps
    its own counters (including corruption quarantines) in the metrics'
    ``caches.persistent`` section.
    """

    def __init__(self, capacity: int = 256, metrics=None, persistent=None):
        self._cache = LRUCache(capacity)
        self._metrics = metrics
        self._persistent = persistent

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def persistent(self):
        """The on-disk tier, or ``None`` when the cache is memory-only."""
        return self._persistent

    @staticmethod
    def key(problem, depth: int, context, seed: Optional[int], options: Any = None) -> str:
        """The stable solve-result key (see :func:`solve_cache_key`)."""
        return solve_cache_key(problem, depth, context, seed, options)

    def get(self, key: str) -> Any:
        """The cached result for *key*, or ``None`` (recording hit/miss)."""
        result = self._cache.get(key)
        if result is None and self._persistent is not None:
            result = self._persistent.get(key)
            if result is not None:
                # Promote: the next lookup is served from memory.
                self._cache.put(key, result)
        if self._metrics is not None:
            if result is None:
                self._metrics.result_cache_miss()
            else:
                self._metrics.result_cache_hit()
        return result

    def put(self, key: str, result: Any) -> None:
        self._cache.put(key, result)
        if self._persistent is not None:
            self._persistent.put(key, result)

    def clear(self) -> None:
        """Drop the in-memory tier (the persistent tier is kept)."""
        self._cache.clear()
