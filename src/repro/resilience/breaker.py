"""A circuit breaker for the solver service's execution backend.

A persistently failing backend should shed load *fast* — burning the full
retry schedule on every queued job turns one unhealthy dependency into a
stalled worker pool.  :class:`CircuitBreaker` implements the classic
three-state machine:

* **closed** — normal operation.  Outcomes are recorded into a sliding
  window; when the window holds at least *min_failures* failures **and**
  the failure rate reaches *failure_rate*, the breaker opens.
* **open** — :meth:`allow` answers ``False`` (callers fail fast with
  :class:`~repro.exceptions.CircuitOpenError`) until *recovery_time*
  seconds pass on the injected clock.
* **half-open** — up to *probe_budget* probes are admitted.  Any probe
  failure reopens the breaker (fresh recovery window); *probe_budget*
  consecutive probe successes close it and clear the window.

The clock is injectable so open→half-open transitions are exact in tests;
an optional listener receives every state transition (the service wires it
into :class:`~repro.service.metrics.ServiceMetrics`).  All methods are
thread-safe.

Examples
--------
>>> now = [0.0]
>>> breaker = CircuitBreaker(
...     min_failures=2, recovery_time=10.0, probe_budget=1, clock=lambda: now[0]
... )
>>> for _ in range(2):
...     _ = breaker.allow(); breaker.record_failure()
>>> breaker.state
'open'
>>> breaker.allow()
False
>>> now[0] = 11.0
>>> breaker.allow()  # half-open probe admitted
True
>>> breaker.record_success()
>>> breaker.state
'closed'
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Optional

from repro.exceptions import ConfigurationError

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed → open → half-open failure gate with an injectable clock.

    Parameters
    ----------
    min_failures:
        Minimum number of failures in the sliding window before the breaker
        may open (absolute floor, so one early failure in an empty window
        cannot trip it).
    failure_rate:
        Failure fraction of the window that, together with *min_failures*,
        opens the breaker.
    window:
        Number of recent outcomes retained.
    recovery_time:
        Seconds the breaker stays open before admitting half-open probes.
    probe_budget:
        Consecutive probe successes required to close from half-open (also
        the number of concurrent probes admitted).
    clock:
        Injectable monotonic time source.
    listener:
        Optional ``listener(old_state, new_state)`` callback fired outside
        the lock on every transition.
    name:
        Label used in ``repr`` and transition reporting (e.g. the backend
        name the breaker guards).
    """

    def __init__(
        self,
        *,
        min_failures: int = 5,
        failure_rate: float = 0.5,
        window: int = 32,
        recovery_time: float = 30.0,
        probe_budget: int = 2,
        clock: Callable[[], float] = time.monotonic,
        listener: Optional[Callable[[str, str], None]] = None,
        name: str = "backend",
    ):
        if min_failures < 1:
            raise ConfigurationError(f"min_failures must be >= 1, got {min_failures}")
        if not 0.0 < failure_rate <= 1.0:
            raise ConfigurationError(
                f"failure_rate must be in (0, 1], got {failure_rate}"
            )
        if window < min_failures:
            raise ConfigurationError(
                f"window ({window}) must be >= min_failures ({min_failures})"
            )
        if recovery_time < 0:
            raise ConfigurationError(
                f"recovery_time must be >= 0, got {recovery_time}"
            )
        if probe_budget < 1:
            raise ConfigurationError(f"probe_budget must be >= 1, got {probe_budget}")
        self.name = str(name)
        self._min_failures = int(min_failures)
        self._failure_rate = float(failure_rate)
        self._recovery_time = float(recovery_time)
        self._probe_budget = int(probe_budget)
        self._clock = clock
        self._listener = listener
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: "deque[bool]" = deque(maxlen=int(window))
        self._opened_at: Optional[float] = None
        self._probes_inflight = 0
        self._probe_successes = 0
        self._rejections = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, refreshing open → half-open on the clock."""
        with self._lock:
            self._refresh_locked()
            return self._state

    @property
    def rejections(self) -> int:
        """How many :meth:`allow` calls were rejected while open."""
        with self._lock:
            return self._rejections

    @property
    def failure_count(self) -> int:
        """Failures currently in the sliding window."""
        with self._lock:
            return sum(1 for ok in self._outcomes if not ok)

    # ------------------------------------------------------------------
    # Gate
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether the caller may attempt work right now.

        In half-open state each ``True`` answer consumes one probe slot;
        callers must report the probe's outcome through
        :meth:`record_success` / :meth:`record_failure`.
        """
        transition = None
        with self._lock:
            transition = self._refresh_locked()
            if self._state == CLOSED:
                allowed = True
            elif self._state == HALF_OPEN:
                if self._probes_inflight < self._probe_budget:
                    self._probes_inflight += 1
                    allowed = True
                else:
                    self._rejections += 1
                    allowed = False
            else:
                self._rejections += 1
                allowed = False
        self._notify(transition)
        return allowed

    def record_success(self) -> None:
        """Report one successful operation."""
        transition = None
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self._probe_budget:
                    transition = self._transition_locked(CLOSED)
                    self._outcomes.clear()
            else:
                self._outcomes.append(True)
        self._notify(transition)

    def record_failure(self) -> None:
        """Report one failed operation (may trip or re-open the breaker)."""
        transition = None
        with self._lock:
            if self._state == HALF_OPEN:
                # A failed probe re-opens immediately with a fresh window.
                transition = self._transition_locked(OPEN)
            elif self._state == CLOSED:
                self._outcomes.append(False)
                failures = sum(1 for ok in self._outcomes if not ok)
                if (
                    failures >= self._min_failures
                    and failures / len(self._outcomes) >= self._failure_rate
                ):
                    transition = self._transition_locked(OPEN)
            # Failures reported while OPEN (e.g. in-flight work finishing
            # after the trip) don't change state.
        self._notify(transition)

    def add_listener(self, listener: Callable[[str, str], None]) -> None:
        """Append *listener* to the transition callbacks (chains with any
        listener given at construction)."""
        previous = self._listener
        if previous is None:
            self._listener = listener
            return

        def chained(old_state: str, new_state: str) -> None:
            previous(old_state, new_state)
            listener(old_state, new_state)

        self._listener = chained

    def reset(self) -> None:
        """Force-close the breaker and clear its window."""
        with self._lock:
            transition = self._transition_locked(CLOSED)
            self._outcomes.clear()
        self._notify(transition)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _refresh_locked(self):
        """OPEN → HALF_OPEN once the recovery window has elapsed."""
        if (
            self._state == OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self._recovery_time
        ):
            return self._transition_locked(HALF_OPEN)
        return None

    def _transition_locked(self, new_state: str):
        old_state = self._state
        if old_state == new_state:
            return None
        self._state = new_state
        if new_state == OPEN:
            self._opened_at = self._clock()
        if new_state in (OPEN, HALF_OPEN, CLOSED):
            self._probes_inflight = 0
            self._probe_successes = 0
        return (old_state, new_state)

    def _notify(self, transition) -> None:
        if transition is not None and self._listener is not None:
            self._listener(*transition)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(name={self.name!r}, state={self.state!r}, "
            f"failures={self.failure_count}, rejections={self.rejections})"
        )
