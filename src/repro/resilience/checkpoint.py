"""Checkpoint stores and the solver's snapshot container.

A long multi-restart solve loses everything when its process dies; with a
checkpoint the service resumes from the last completed restart instead of
starting over.  The pieces:

* :class:`CheckpointStore` — the storage interface (``save/load/delete``).
  :class:`MemoryCheckpointStore` backs tests and single-process use;
  :class:`FileCheckpointStore` persists snapshots crash-safely (atomic
  temp-file + rename writes, per-entry checksums, corrupted entries
  quarantined and treated as absent — see :mod:`repro.resilience.storage`).
* :class:`CheckpointSlot` — one (store, key) binding handed to
  :meth:`~repro.qaoa.solver.QAOASolver.solve`; it tracks whether a snapshot
  was resumed and reports save/resume events to optional callbacks (the
  service wires these into its metrics).
* :class:`SolverCheckpoint` — the snapshot schema: the pre-drawn restart
  starts, every completed :class:`~repro.qaoa.result.RestartRecord` payload,
  the rng bit-generator state at the last boundary, and shot/function-call
  accounting, so a resumed solve reproduces the uninterrupted run
  bit-identically.
"""

from __future__ import annotations

import hashlib
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import CheckpointError
from repro.resilience.storage import (
    CorruptEntryError,
    atomic_write_bytes,
    decode_document,
    encode_document,
    quarantine_file,
)

__all__ = [
    "CheckpointSlot",
    "CheckpointStore",
    "FileCheckpointStore",
    "MemoryCheckpointStore",
    "SolverCheckpoint",
    "capture_rng_state",
    "restore_rng_state",
]

#: Schema version of :class:`SolverCheckpoint` payloads.
CHECKPOINT_VERSION = 1

_FORMAT = "repro-checkpoint"


def capture_rng_state(rng) -> Optional[Dict[str, Any]]:
    """The JSON-safe bit-generator state of a NumPy generator.

    NumPy bit-generator states are plain dicts of ints/strings (Python JSON
    handles the 128-bit PCG64 integers exactly), so the captured state
    round-trips losslessly through a checkpoint file.
    """
    try:
        return rng.bit_generator.state
    except AttributeError:
        return None


def restore_rng_state(state: Dict[str, Any]):
    """A fresh :class:`numpy.random.Generator` positioned at *state*.

    The generator continues the exact sample stream the captured one would
    have produced.  Raises :class:`~repro.exceptions.CheckpointError` when
    the recorded bit-generator type is unknown.
    """
    import numpy as np

    name = state.get("bit_generator") if isinstance(state, dict) else None
    bit_generator_cls = getattr(np.random, str(name), None)
    if bit_generator_cls is None:
        raise CheckpointError(f"unknown bit generator {name!r} in checkpoint rng state")
    generator = np.random.Generator(bit_generator_cls())
    generator.bit_generator.state = state
    return generator


@dataclass
class SolverCheckpoint:
    """One solver snapshot: everything needed to resume a solve exactly.

    ``starts`` are the *pre-drawn* restart initial-parameter vectors (drawn
    once up front, before any optimization), so a resumed run optimizes the
    same starting points as the uninterrupted run.  ``records`` holds the
    payloads of every completed restart; ``rng_state`` is the NumPy
    bit-generator state captured at the same boundary, so stochastic
    oracles (shots / trajectories / SPSA perturbations) continue their
    exact sample streams on resume.
    """

    depth: int
    initialization: str
    starts: List[List[float]]
    records: List[Dict[str, Any]] = field(default_factory=list)
    rng_state: Optional[Dict[str, Any]] = None
    screening_calls: int = 0
    shots_used: int = 0

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": CHECKPOINT_VERSION,
            "depth": int(self.depth),
            "initialization": self.initialization,
            "starts": [[float(v) for v in start] for start in self.starts],
            "records": list(self.records),
            "rng_state": self.rng_state,
            "screening_calls": int(self.screening_calls),
            "shots_used": int(self.shots_used),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SolverCheckpoint":
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"checkpoint payload must be a dict, got {type(payload).__name__}"
            )
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {payload.get('version')!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        checkpoint = cls(
            depth=int(payload["depth"]),
            initialization=str(payload["initialization"]),
            starts=[list(map(float, start)) for start in payload["starts"]],
            records=list(payload.get("records", [])),
            rng_state=payload.get("rng_state"),
            screening_calls=int(payload.get("screening_calls", 0)),
            shots_used=int(payload.get("shots_used", 0)),
        )
        if len(checkpoint.records) > len(checkpoint.starts):
            raise CheckpointError(
                f"checkpoint holds {len(checkpoint.records)} records for "
                f"{len(checkpoint.starts)} starts"
            )
        return checkpoint


class CheckpointStore(ABC):
    """Minimal key → snapshot-payload storage interface."""

    @abstractmethod
    def save(self, key: str, payload: Dict[str, Any]) -> None:
        """Durably associate *payload* with *key* (overwrites)."""

    @abstractmethod
    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under *key*, or ``None``."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove *key* (no-op when absent)."""

    @abstractmethod
    def keys(self) -> List[str]:
        """Every key currently stored."""

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return self.load(key) is not None


class MemoryCheckpointStore(CheckpointStore):
    """In-process checkpoint store (survives job retries, not the process)."""

    def __init__(self) -> None:
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    def save(self, key: str, payload: Dict[str, Any]) -> None:
        with self._lock:
            self._entries[key] = payload

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._entries.get(key)

    def delete(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def __repr__(self) -> str:
        with self._lock:
            return f"MemoryCheckpointStore(entries={len(self._entries)})"


class FileCheckpointStore(CheckpointStore):
    """Crash-safe on-disk checkpoint store.

    One file per key under *directory* (file names are the SHA-256 of the
    key, so arbitrary key strings are safe).  Writes are atomic and entries
    self-verify; a corrupted or unreadable snapshot is quarantined and
    reported as absent — a damaged checkpoint costs a restart-from-scratch,
    never an exception.
    """

    def __init__(self, directory) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Path:
        return self._directory

    def _path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:48]
        return self._directory / f"{digest}.ckpt.json"

    def save(self, key: str, payload: Dict[str, Any]) -> None:
        data = encode_document(
            payload, format=_FORMAT, version=CHECKPOINT_VERSION, key=key
        )
        atomic_write_bytes(self._path(key), data)

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        try:
            return decode_document(
                data, format=_FORMAT, version=CHECKPOINT_VERSION, key=key
            )
        except CorruptEntryError:
            quarantine_file(path)
            return None

    def delete(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            pass
        except OSError:
            pass

    def keys(self) -> List[str]:
        # File names are hashes; recover keys from the entries themselves.
        keys: List[str] = []
        import json

        for path in sorted(self._directory.glob("*.ckpt.json")):
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
                key = document.get("key")
            except (OSError, ValueError):
                continue
            if isinstance(key, str):
                keys.append(key)
        return keys

    def __repr__(self) -> str:
        return f"FileCheckpointStore(directory={str(self._directory)!r})"


class CheckpointSlot:
    """One (store, key) binding a single solve saves into and resumes from.

    Parameters
    ----------
    store / key:
        Where snapshots live.
    on_save / on_resume:
        Optional zero-argument callbacks fired after each successful save
        and after a snapshot is loaded for resumption (the service points
        these at its metrics counters).
    """

    def __init__(
        self,
        store: CheckpointStore,
        key: str,
        *,
        on_save: Optional[Callable[[], None]] = None,
        on_resume: Optional[Callable[[], None]] = None,
    ):
        if not isinstance(store, CheckpointStore):
            raise CheckpointError(
                f"store must be a CheckpointStore, got {type(store).__name__}"
            )
        self.store = store
        self.key = str(key)
        self._on_save = on_save
        self._on_resume = on_resume
        #: Number of snapshots saved through this slot.
        self.saves = 0
        #: True once a snapshot was loaded and used for resumption.
        self.resumed = False

    def save(self, checkpoint: SolverCheckpoint) -> None:
        self.store.save(self.key, checkpoint.to_payload())
        self.saves += 1
        if self._on_save is not None:
            self._on_save()

    def load(self) -> Optional[SolverCheckpoint]:
        payload = self.store.load(self.key)
        if payload is None:
            return None
        checkpoint = SolverCheckpoint.from_payload(payload)
        self.resumed = True
        if self._on_resume is not None:
            self._on_resume()
        return checkpoint

    def delete(self) -> None:
        self.store.delete(self.key)

    def __repr__(self) -> str:
        return (
            f"CheckpointSlot(key={self.key!r}, saves={self.saves}, "
            f"resumed={self.resumed})"
        )
