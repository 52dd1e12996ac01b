"""Retry backoff policies with injectable sleep and seeded jitter.

A linear ``base * attempt`` ramp synchronises retry storms (every failed
client retries on the same schedule) and wastes time on persistent
failures.  :class:`RetryPolicy` spaces retries with capped exponential
backoff plus jitter:

* ``jitter="none"`` — pure exponential: ``base * multiplier**(attempt-1)``,
  capped at *cap*;
* ``jitter="full"`` — uniform in ``[0, exponential]`` (classic full jitter);
* ``jitter="decorrelated"`` — AWS-style decorrelated jitter: each delay is
  uniform in ``[base, previous * multiplier]``, capped, which spreads
  concurrent retriers apart without remembering global state.

The **first** delay is always exactly *base* regardless of jitter mode.

Determinism: jitter draws come from a private seeded generator, and the
sleep function is injectable, so retry schedules in tests are exact and
zero-wall-clock.

Examples
--------
>>> slept = []
>>> policy = RetryPolicy(base=0.1, cap=1.0, jitter="none", sleep=slept.append)
>>> previous = None
>>> for attempt in (1, 2, 3, 4, 5):
...     previous = policy.sleep_before(attempt, previous)
>>> [round(delay, 3) for delay in slept]
[0.1, 0.2, 0.4, 0.8, 1.0]
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, ensure_rng

__all__ = ["RetryPolicy"]

_JITTER_MODES = ("none", "full", "decorrelated")


class RetryPolicy:
    """Capped exponential backoff with optional (seeded) jitter.

    Parameters
    ----------
    base:
        First-attempt delay in seconds (also the jitter floor).
    cap:
        Upper bound on any single delay.
    multiplier:
        Exponential growth factor between attempts.
    jitter:
        ``"none"``, ``"full"`` or ``"decorrelated"`` (default).
    seed:
        Seed or generator for the jitter draws; a fixed seed makes the whole
        delay schedule reproducible.
    sleep:
        Injectable sleep (tests pass a recorder for zero-wall-clock runs).
    """

    def __init__(
        self,
        base: float = 0.05,
        *,
        cap: float = 5.0,
        multiplier: float = 2.0,
        jitter: str = "decorrelated",
        seed: RandomState = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if base < 0:
            raise ConfigurationError(f"base delay must be >= 0, got {base}")
        if cap < base:
            raise ConfigurationError(f"cap ({cap}) must be >= base ({base})")
        if multiplier < 1.0:
            raise ConfigurationError(f"multiplier must be >= 1, got {multiplier}")
        if jitter not in _JITTER_MODES:
            raise ConfigurationError(
                f"jitter must be one of {_JITTER_MODES}, got {jitter!r}"
            )
        self.base = float(base)
        self.cap = float(cap)
        self.multiplier = float(multiplier)
        self.jitter = jitter
        self._sleep = sleep
        self._rng = ensure_rng(seed)
        # The generator is shared by every retrying worker thread.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Delay schedule
    # ------------------------------------------------------------------
    def delay(self, attempt: int, previous: Optional[float] = None) -> float:
        """The backoff before retry *attempt* (1-based).

        *previous* is the delay returned for the prior attempt (used by
        decorrelated jitter); pass ``None`` on the first attempt.
        """
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
        if attempt == 1:
            # Exactly *base*: the anchor every jitter mode grows from.
            return self.base
        exponential = min(self.cap, self.base * self.multiplier ** (attempt - 1))
        if self.jitter == "none":
            return exponential
        with self._lock:
            if self.jitter == "full":
                return float(self._rng.uniform(0.0, exponential))
            # Decorrelated: grow from the previous delay, floored at base.
            anchor = self.base if previous is None else max(self.base, previous)
            high = max(self.base, anchor * self.multiplier)
            return float(min(self.cap, self._rng.uniform(self.base, high)))

    def sleep_before(self, attempt: int, previous: Optional[float] = None) -> float:
        """Sleep the computed backoff and return it (feed back as *previous*)."""
        delay = self.delay(attempt, previous)
        if delay > 0:
            self._sleep(delay)
        return delay

    def preview(self, attempts: int) -> List[float]:
        """The first *attempts* delays of one schedule (advances the jitter rng)."""
        delays: List[float] = []
        previous: Optional[float] = None
        for attempt in range(1, attempts + 1):
            previous = self.delay(attempt, previous)
            delays.append(previous)
        return delays

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def no_delay(cls) -> "RetryPolicy":
        """A policy that never sleeps (tests, breaker-probe loops)."""
        return cls(base=0.0, cap=0.0, jitter="none", sleep=lambda _seconds: None)

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(base={self.base}, cap={self.cap}, "
            f"multiplier={self.multiplier}, jitter={self.jitter!r})"
        )
