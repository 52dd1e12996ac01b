"""A bounded, thread-safe least-recently-used mapping.

Shared by the solver's compiled-program cache and the service tier's
program and result caches (re-exported as :class:`repro.service.LRUCache`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.exceptions import ConfigurationError

_MISSING = object()


class LRUCache:
    """A bounded, thread-safe least-recently-used mapping."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Any, default: Any = None) -> Any:
        """The cached value for *key* (refreshing recency), else *default*."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                return default
            self._entries.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        """Insert or refresh *key*, evicting the least-recent entry if full."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
