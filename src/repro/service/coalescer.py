"""Request coalescing: many concurrent expectation calls, one batched sweep.

Concurrent clients asking for cost expectations of the *same compiled
circuit* (same graph content, depth and execution context) are individually
cheap but pay a fixed Python/dispatch overhead per call.
:class:`RequestCoalescer` absorbs that overhead: callers enqueue
``(key, evaluator, parameter-vector)`` requests and block on a
:class:`BatchFuture`; a background flusher groups pending requests by key
and evaluates each group through one
:meth:`~repro.qaoa.cost.ExpectationEvaluator.expectation_batch` call, which
sweeps all columns through the vectorized kernels at once.

A group is flushed as soon as it reaches ``max_batch`` requests or when its
oldest request has waited ``max_wait_ms`` — whichever comes first — so a
lone request is delayed by at most the wait window while a burst of 64
identical requests becomes a single batched evaluation.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError, ServiceError

__all__ = ["BatchFuture", "RequestCoalescer"]


class BatchFuture:
    """Minimal future fulfilled by the coalescer's flusher thread."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value: Optional[float] = None
        self._exception: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> float:
        """Block for the batched evaluation and return this request's value."""
        if not self._done.wait(timeout):
            from repro.exceptions import JobTimeoutError

            raise JobTimeoutError(f"batched evaluation did not finish within {timeout} s")
        if self._exception is not None:
            raise self._exception
        assert self._value is not None
        return self._value

    def _fulfil(self, value: float) -> None:
        self._value = float(value)
        self._done.set()

    def _fail(self, exception: BaseException) -> None:
        self._exception = exception
        self._done.set()


class _Group:
    """Pending requests sharing one compile key (internal)."""

    __slots__ = ("evaluator", "vectors", "futures", "first_enqueued")

    def __init__(self, evaluator: Any, first_enqueued: float):
        self.evaluator = evaluator
        self.vectors: List[np.ndarray] = []
        self.futures: List[BatchFuture] = []
        self.first_enqueued = first_enqueued


class RequestCoalescer:
    """Batches concurrent expectation requests that share a compile key.

    Parameters
    ----------
    max_batch:
        Flush a group as soon as it holds this many requests.
    max_wait_ms:
        Flush a group once its oldest request has waited this long, even if
        the batch is not full.  Bounds the latency a lone request pays for
        the chance of being batched.
    metrics:
        Optional :class:`~repro.service.metrics.ServiceMetrics` receiving
        ``batch_flushed`` events.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ConfigurationError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self._max_batch = int(max_batch)
        self._max_wait = float(max_wait_ms) / 1000.0
        self._metrics = metrics
        self._clock = clock
        self._groups: Dict[str, _Group] = {}
        self._condition = threading.Condition()
        self._running = False
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background flusher (idempotent)."""
        with self._condition:
            if self._running:
                return
            self._running = True
            self._thread = threading.Thread(
                target=self._flusher_loop, name="repro-coalescer", daemon=True
            )
            self._thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the flusher; *drain* evaluates pending groups first."""
        already_stopped = False
        with self._condition:
            if not self._running:
                already_stopped = True
                remaining = self._drain_groups() if drain else self._abandon_groups()
            else:
                self._running = False
                self._condition.notify_all()
        if already_stopped:
            for group in remaining:
                self._execute(group)
            return
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None
        # The flusher exited; whatever is still queued is handled inline.
        with self._condition:
            remaining = self._drain_groups() if drain else self._abandon_groups()
        for group in remaining:
            self._execute(group)

    def _drain_groups(self) -> List[_Group]:
        groups = list(self._groups.values())
        self._groups.clear()
        return groups

    def _abandon_groups(self) -> List[_Group]:
        error = ServiceError("coalescer stopped before the request was evaluated")
        for group in self._groups.values():
            for future in group.futures:
                future._fail(error)
        self._groups.clear()
        return []

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, key: str, evaluator: Any, vector: Any) -> BatchFuture:
        """Enqueue one expectation request; returns its :class:`BatchFuture`.

        *evaluator* must expose ``expectation_batch``; the first evaluator
        enqueued for a key evaluates that key's whole batch (all requests
        sharing a compile key target the same compiled circuit, so any of
        their evaluators is interchangeable).
        """
        future = BatchFuture()
        vector = np.asarray(vector, dtype=float)
        solo: Optional[_Group] = None
        with self._condition:
            if not self._running:
                # No flusher: degrade gracefully to an immediate single
                # evaluation (still via the batch path, batch of one).
                solo = _Group(evaluator, self._clock())
                solo.vectors.append(vector)
                solo.futures.append(future)
            else:
                group = self._groups.get(key)
                if group is None:
                    group = _Group(evaluator, self._clock())
                    self._groups[key] = group
                group.vectors.append(vector)
                group.futures.append(future)
                self._condition.notify_all()
        if solo is not None:
            self._execute(solo)
        return future

    # ------------------------------------------------------------------
    # Flusher
    # ------------------------------------------------------------------
    def _due_groups(self, now: float) -> List[_Group]:
        """Pop every group that is full or past its wait deadline."""
        due = []
        for key, group in list(self._groups.items()):
            if (
                len(group.vectors) >= self._max_batch
                or now - group.first_enqueued >= self._max_wait
            ):
                due.append(group)
                del self._groups[key]
        return due

    def _flusher_loop(self) -> None:
        while True:
            with self._condition:
                while self._running:
                    now = self._clock()
                    due = self._due_groups(now)
                    if due:
                        break
                    if self._groups:
                        oldest = min(
                            group.first_enqueued for group in self._groups.values()
                        )
                        wait = max(0.0, oldest + self._max_wait - now)
                        # A zero-or-negative wait would spin; re-check after
                        # a minimal sleep so the deadline comparison runs on
                        # a fresh clock reading.
                        self._condition.wait(max(wait, 1e-4))
                    else:
                        self._condition.wait()
                else:
                    return  # stop() flips _running and drains what is left
            for group in due:
                self._execute(group)

    def _execute(self, group: _Group) -> None:
        """Evaluate one group through a single ``expectation_batch`` call.

        A failed multi-request batch falls back to per-request evaluation so
        one poisoned vector (or a transient backend fault hitting the sweep)
        fails only its own future, not every coalesced waiter.
        """
        wait = self._clock() - group.first_enqueued
        try:
            matrix = np.vstack(group.vectors)
            values = group.evaluator.expectation_batch(matrix)
            if len(values) != len(group.futures):
                raise ServiceError(
                    f"batched evaluation returned {len(values)} values for "
                    f"{len(group.futures)} requests"
                )
        except BaseException as error:  # noqa: B036 - forwarded to the waiters
            if len(group.futures) == 1:
                group.futures[0]._fail(error)
                return
            self._execute_individually(group)
            return
        if self._metrics is not None:
            self._metrics.batch_flushed(len(group.futures), wait=wait)
        for future, value in zip(group.futures, values):
            future._fulfil(value)

    def _execute_individually(self, group: _Group) -> None:
        """Fallback: evaluate each request of a failed batch on its own."""
        for vector, future in zip(group.vectors, group.futures):
            try:
                values = group.evaluator.expectation_batch(
                    np.asarray(vector, dtype=float).reshape(1, -1)
                )
                future._fulfil(float(values[0]))
            except BaseException as error:  # noqa: B036 - forwarded to the waiter
                future._fail(error)
