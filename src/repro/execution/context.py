"""The :class:`ExecutionContext`: one object describing how expectations run.

After the noise / shots / density / readout subsystems landed, the oracle's
configuration was threaded as eight parallel keyword arguments
(``backend=``, ``shots=``, ``noise_model=``, ``trajectories=``,
``density=``, ``readout_error=``, ``mitigate_readout=``, ``rng=``) through
every layer from :class:`~repro.qaoa.cost.ExpectationEvaluator` up to the
experiment harness, with the validation rules re-implemented (or silently
skipped) at each hop.  ``ExecutionContext`` collapses all of that into one
immutable, serializable value object:

* **validated once** at construction — the backend is one of the two
  named engines, density runs only on ``"circuit"``, non-Pauli channels
  need the density oracle, mitigation needs a readout model, density has no
  stochastic trajectories — with actionable errors;
* **passed everywhere** — every consumer accepts ``context=`` (an
  ``ExecutionContext``, or a backend-name shorthand such as ``"fast"``);
* **recorded in artifacts** — :meth:`to_dict` / :meth:`from_dict`
  round-trip the full configuration (noise model and readout model
  included) so experiment records carry the exact execution settings that
  produced them.

Examples
--------
>>> from repro.execution import ExecutionContext
>>> context = ExecutionContext(shots=1024, seed=7)
>>> context.is_stochastic
True
>>> ExecutionContext.from_dict(context.to_dict()) == context
True
>>> ExecutionContext(backend="fast").replace(backend="circuit").backend
'circuit'
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

from repro.exceptions import ConfigurationError
from repro.quantum.noise import DEFAULT_TRAJECTORIES, NoiseModel, ReadoutErrorModel
from repro.utils.validation import _integer

ContextLike = Union[None, str, "ExecutionContext"]

#: The two execution engines, compiled by :mod:`repro.qaoa.backends`: the
#: gate-level circuit engine and the MaxCut-specialised evaluator.
_BACKENDS = ("circuit", "fast")


@dataclass(frozen=True)
class ExecutionContext:
    """Immutable description of how cost expectations are computed.

    Parameters
    ----------
    backend:
        ``"fast"`` (the MaxCut evaluator, default) or ``"circuit"`` (the compiled
        gate-level engine), case-insensitive.
    shots:
        Finite shot budget per expectation evaluation (``None`` = exact
        readout).
    noise_model:
        Optional :class:`~repro.quantum.noise.NoiseModel` applied to every
        evaluation; an empty model is normalised to ``None``.
    trajectories:
        Stochastic noise trajectories averaged per evaluation (``None`` =
        :data:`~repro.quantum.noise.DEFAULT_TRAJECTORIES` when a noise model
        is attached).  Invalid in density mode — the density oracle applies
        channels exactly, there is nothing to sample.
    density:
        Evaluate through the exact density-matrix oracle; requires
        ``backend="circuit"``.
    readout_error:
        Optional :class:`~repro.quantum.noise.ReadoutErrorModel` corrupting
        the measured outcome distribution.
    mitigate_readout:
        Undo *readout_error* by confusion-matrix inversion (requires a
        readout model).
    seed:
        Default seed policy for consumers that are not handed an explicit
        ``rng``/``seed`` at the call site.  Kept out of :meth:`__eq__`-
        relevant hashing concerns by being a plain field; only integer (or
        ``None``) seeds serialize — live generator objects are runtime
        state, not configuration.
    """

    backend: str = "fast"
    shots: Optional[int] = None
    noise_model: Optional[NoiseModel] = None
    trajectories: Optional[int] = None
    density: bool = False
    readout_error: Optional[ReadoutErrorModel] = None
    mitigate_readout: bool = False
    seed: Any = None

    def __post_init__(self) -> None:
        backend = str(self.backend).strip().lower()
        if backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown execution backend {self.backend!r}; "
                f"available: {', '.join(_BACKENDS)}"
            )
        object.__setattr__(self, "backend", backend)
        if self.shots is not None:
            object.__setattr__(self, "shots", _integer(self.shots, "shots", minimum=1))
        if self.trajectories is not None:
            object.__setattr__(
                self, "trajectories", _integer(self.trajectories, "trajectories", minimum=1)
            )
        noise_model = self.noise_model
        if noise_model is not None:
            if not isinstance(noise_model, NoiseModel):
                raise ConfigurationError(
                    f"noise_model must be a NoiseModel, got {type(noise_model).__name__}"
                )
            if noise_model.is_empty:
                object.__setattr__(self, "noise_model", None)
                noise_model = None
        if self.readout_error is not None and not isinstance(
            self.readout_error, ReadoutErrorModel
        ):
            raise ConfigurationError(
                f"readout_error must be a ReadoutErrorModel, "
                f"got {type(self.readout_error).__name__}"
            )
        object.__setattr__(self, "density", bool(self.density))
        object.__setattr__(self, "mitigate_readout", bool(self.mitigate_readout))
        if self.density:
            if backend != "circuit":
                raise ConfigurationError(
                    f"density=True runs the exact density-matrix oracle, which "
                    f"backend {backend!r} does not have; use backend='circuit'"
                )
            if self.trajectories is not None:
                raise ConfigurationError(
                    "density=True applies noise channels exactly — the oracle "
                    "is deterministic and there are no stochastic trajectories "
                    "to average; drop trajectories= (or drop density=True to "
                    "sample trajectories)"
                )
        if noise_model is not None and not self.density and not noise_model.is_pauli_only:
            raise ConfigurationError(
                "the noise model contains non-Pauli channels, which "
                "trajectory sampling cannot represent; pass density=True "
                "(with backend='circuit') to evaluate them exactly"
            )
        if self.mitigate_readout and self.readout_error is None:
            raise ConfigurationError(
                "mitigate_readout requires a readout_error model"
            )

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def is_stochastic(self) -> bool:
        """Whether evaluations involve shot sampling or trajectory noise.

        In density mode gate noise is exact, so only a finite shot budget
        makes the oracle stochastic.
        """
        if self.density:
            return self.shots is not None
        return self.shots is not None or self.noise_model is not None

    @property
    def effective_trajectories(self) -> int:
        """Trajectories actually averaged per evaluation (1 without noise)."""
        if self.noise_model is None or self.density:
            return 1
        return int(self.trajectories or DEFAULT_TRAJECTORIES)

    @property
    def is_exact(self) -> bool:
        """Whether the configured oracle is the exact noiseless one."""
        return (
            self.shots is None
            and self.noise_model is None
            and self.readout_error is None
            and not self.density
        )

    # ------------------------------------------------------------------
    # Evolution and serialization
    # ------------------------------------------------------------------
    def replace(self, **overrides) -> "ExecutionContext":
        """A copy with selected fields overridden (re-validated)."""
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form recording the exact execution settings.

        Integer seeds are recorded; a live generator object is runtime
        state, not configuration, and serializes as ``None``.  The output is
        **deterministic**: keys are sorted, nested payloads are
        canonicalised (NumPy scalars to Python numbers, canonical float
        form), so structurally equal contexts produce byte-identical JSON
        across processes — the property :meth:`cache_key` relies on.
        """
        from repro.execution.keys import canonical_payload

        return canonical_payload(
            {
                "backend": self.backend,
                "shots": self.shots,
                "noise_model": (
                    None if self.noise_model is None else self.noise_model.to_dict()
                ),
                "trajectories": self.trajectories,
                "density": self.density,
                "readout_error": (
                    None if self.readout_error is None else self.readout_error.to_dict()
                ),
                "mitigate_readout": self.mitigate_readout,
                "seed": self.seed if isinstance(self.seed, int) else None,
            }
        )

    def cache_key(self) -> str:
        """A stable content hash of this context (hex digest).

        Two structurally equal contexts — built in different processes, or
        round-tripped through :meth:`to_dict`/:meth:`from_dict` — share the
        key, which is what the service tier keys its result cache on.
        Computed once and memoised (the context is immutable).
        """
        cached = getattr(self, "_cache_key", None)
        if cached is None:
            from repro.execution.keys import stable_hash

            cached = stable_hash(self.to_dict())
            object.__setattr__(self, "_cache_key", cached)
        return cached

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionContext":
        """Rebuild a context from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"an ExecutionContext payload must be a mapping, got {type(data).__name__}"
            )
        noise_model = data.get("noise_model")
        readout_error = data.get("readout_error")
        return cls(
            backend=data.get("backend", "fast"),
            shots=data.get("shots"),
            noise_model=None if noise_model is None else NoiseModel.from_dict(noise_model),
            trajectories=data.get("trajectories"),
            density=bool(data.get("density", False)),
            readout_error=(
                None
                if readout_error is None
                else ReadoutErrorModel.from_dict(readout_error)
            ),
            mitigate_readout=bool(data.get("mitigate_readout", False)),
            seed=data.get("seed"),
        )

    def __repr__(self) -> str:
        parts = [f"backend={self.backend!r}"]
        if self.shots is not None:
            parts.append(f"shots={self.shots}")
        if self.noise_model is not None:
            parts.append(f"noise_model={self.noise_model!r}")
        if self.trajectories is not None:
            parts.append(f"trajectories={self.trajectories}")
        if self.density:
            parts.append("density=True")
        if self.readout_error is not None:
            parts.append(f"readout_error={self.readout_error!r}")
        if self.mitigate_readout:
            parts.append("mitigate_readout=True")
        if self.seed is not None:
            parts.append(f"seed={self.seed!r}")
        return f"ExecutionContext({', '.join(parts)})"


def as_execution_context(context: ContextLike) -> ExecutionContext:
    """Coerce ``None`` / a backend name / a context into an ``ExecutionContext``.

    ``None`` means the exact default context; a string is the ``"fast"`` /
    ``"circuit"`` shorthand for "that backend, exact oracle".
    """
    if context is None:
        return ExecutionContext()
    if isinstance(context, ExecutionContext):
        return context
    if isinstance(context, str):
        return ExecutionContext(backend=context)
    raise ConfigurationError(
        f"context must be an ExecutionContext, a backend name, or None; "
        f"got {type(context).__name__}"
    )
