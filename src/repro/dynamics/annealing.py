"""Quantum-annealing solver: continuous-time sibling of ``QAOASolver``.

Where :class:`~repro.qaoa.solver.QAOASolver` variationally optimises a
discrete ``p``-layer circuit, :class:`AnnealingSolver` evolves the uniform
superposition through an :class:`~repro.dynamics.schedules.AnnealingSchedule`
under

.. math::

    H(t) = (1 - s(t))\\,\\Bigl(-\\sum_q X_q\\Bigr) + s(t)\\,(-H_C),

whose ``t = T`` ground space is exactly the maximum-cut basis states — the
adiabatic theorem then predicts approximation ratio → 1 at long anneal
times.  The solve is **seedless and deterministic** (no sampling, no
optimiser restarts), reports the same payload shape as
:class:`~repro.qaoa.result.QAOAResult` (optimal expectation, cut
distribution, timing), and runs only on the gate-level ``"circuit"``
backend: a context naming the MaxCut-specialised ``"fast"`` evaluator,
which has no continuous-time path, is refused at construction.

With ``dissipation`` set, the anneal runs as a Lindblad master equation on
``vec(rho)`` (register capped like the density oracle), modelling an open
annealer; :func:`~repro.experiments.dissipation_sweep.run_dissipation_sweep`
sweeps that knob against anneal time.

Examples
--------
>>> from repro.dynamics import AnnealingSolver
>>> from repro.graphs import erdos_renyi_graph, MaxCutProblem
>>> problem = MaxCutProblem(erdos_renyi_graph(4, 0.8, seed=11))
>>> result = AnnealingSolver(rtol=1e-7).solve(problem, anneal_time=12.0)
>>> bool(result.approximation_ratio > 0.9)
True
>>> result.method
'rk45'
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.execution.context import ContextLike, ExecutionContext, as_execution_context
from repro.graphs.maxcut import MaxCutProblem

from repro.dynamics.generators import Hamiltonian
from repro.dynamics.integrators import evolve
from repro.dynamics.lindblad import JUMP_OPERATORS, Lindbladian
from repro.dynamics.schedules import AnnealingSchedule, SmoothSchedule

#: Schrodinger-path register ceiling (statevector memory, term sweep cost).
SCHRODINGER_MAX_QUBITS = 16

#: Lindblad-path register ceiling (``4^n`` memory — the density oracle's cap).
LINDBLAD_MAX_QUBITS = 12

#: Cut values are aggregated into the distribution at this resolution.
_CUT_DECIMALS = 9


def dissipation_payload(dissipation) -> dict:
    """The canonical content form of a ``dissipation=`` knob (cache keys).

    Accepts a uniform depolarizing rate, a ``{jump_label: rate}`` mapping,
    or a :class:`~repro.quantum.noise.NoiseModel`; validates the value
    without building any jump operators.
    """
    from repro.quantum.noise import NoiseModel

    if isinstance(dissipation, NoiseModel):
        return {"kind": "noise_model", "model": dissipation.to_dict()}
    if isinstance(dissipation, Mapping):
        table = {}
        for label, rate in dissipation.items():
            if label not in JUMP_OPERATORS:
                raise ConfigurationError(
                    f"unknown jump operator {label!r}; named jumps: "
                    f"{', '.join(sorted(JUMP_OPERATORS))}"
                )
            rate = float(rate)
            if not np.isfinite(rate) or rate < 0.0:
                raise ConfigurationError(
                    f"dissipation rate for {label!r} must be finite and >= 0, "
                    f"got {rate}"
                )
            table[str(label)] = rate
        return {"kind": "rates", "rates": dict(sorted(table.items()))}
    try:
        rate = float(dissipation)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"dissipation must be a rate >= 0, a jump-rate mapping, or a "
            f"NoiseModel; got {type(dissipation).__name__}"
        ) from None
    if not np.isfinite(rate) or rate < 0.0:
        raise ConfigurationError(
            f"dissipation must be a rate >= 0, a jump-rate mapping, or a "
            f"NoiseModel; got {dissipation!r}"
        )
    return {"kind": "depolarizing", "rate": rate}


def _dissipation_jumps(
    dissipation, num_qubits: int
) -> Tuple[List[Tuple[str, int, float]], dict]:
    """Normalise the ``dissipation=`` knob into per-qubit jump triples.

    A bare rate means uniform depolarizing (X/Y/Z at ``rate / 3`` on every
    qubit); a ``{jump_label: rate}`` mapping fires on every qubit; a
    :class:`~repro.quantum.noise.NoiseModel` is converted through the
    channels' ``lindblad_rates`` convention.  Returns ``(jumps, payload)``
    with *payload* the canonical content form used in cache keys.
    """
    from repro.quantum.noise import NoiseModel

    payload = dissipation_payload(dissipation)
    if isinstance(dissipation, NoiseModel):
        lind = Lindbladian.from_noise_model(dissipation, num_qubits)
        jumps = [(jump.label, jump.qubits[0], jump.rate) for jump in lind.jumps]
        return jumps, payload
    if payload["kind"] == "rates":
        jumps = [
            (label, qubit, rate)
            for qubit in range(num_qubits)
            for label, rate in sorted(payload["rates"].items())
            if rate > 0.0
        ]
        return jumps, payload
    rate = payload["rate"]
    jumps = [
        (label, qubit, rate / 3.0)
        for qubit in range(num_qubits)
        for label in ("X", "Y", "Z")
        if rate > 0.0
    ]
    return jumps, payload


@dataclass
class AnnealingResult:
    """Outcome of one continuous-time anneal (``QAOAResult``-shaped payload)."""

    problem_name: str
    num_qubits: int
    anneal_time: float
    schedule: dict
    method: str
    optimal_expectation: float
    max_cut_value: float
    success_probability: float
    cut_distribution: List[List[float]]
    most_probable_assignment: str
    num_steps: int
    num_rhs_evaluations: int
    invariant_drift: float
    elapsed_seconds: float
    dissipation: Optional[dict] = None
    context: Optional[ExecutionContext] = None
    extras: dict = field(default_factory=dict)

    @property
    def approximation_ratio(self) -> float:
        """Achieved expected cut over the exact optimum."""
        if self.max_cut_value == 0.0:
            return 1.0
        return self.optimal_expectation / self.max_cut_value

    def to_dict(self) -> dict:
        """Full JSON-friendly form (context serialised through its own dict)."""
        payload = self.to_payload()
        payload["approximation_ratio"] = self.approximation_ratio
        return payload

    def to_payload(self) -> dict:
        """Canonical round-trip form consumed by :meth:`from_payload`."""
        return {
            "problem_name": self.problem_name,
            "num_qubits": self.num_qubits,
            "anneal_time": self.anneal_time,
            "schedule": self.schedule,
            "method": self.method,
            "optimal_expectation": self.optimal_expectation,
            "max_cut_value": self.max_cut_value,
            "success_probability": self.success_probability,
            "cut_distribution": [list(row) for row in self.cut_distribution],
            "most_probable_assignment": self.most_probable_assignment,
            "num_steps": self.num_steps,
            "num_rhs_evaluations": self.num_rhs_evaluations,
            "invariant_drift": self.invariant_drift,
            "elapsed_seconds": self.elapsed_seconds,
            "dissipation": self.dissipation,
            "context": None if self.context is None else self.context.to_dict(),
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "AnnealingResult":
        """Rebuild a result from :meth:`to_payload` output."""
        context = payload.get("context")
        return cls(
            problem_name=payload["problem_name"],
            num_qubits=int(payload["num_qubits"]),
            anneal_time=float(payload["anneal_time"]),
            schedule=dict(payload["schedule"]),
            method=payload["method"],
            optimal_expectation=float(payload["optimal_expectation"]),
            max_cut_value=float(payload["max_cut_value"]),
            success_probability=float(payload["success_probability"]),
            cut_distribution=[list(row) for row in payload["cut_distribution"]],
            most_probable_assignment=payload["most_probable_assignment"],
            num_steps=int(payload["num_steps"]),
            num_rhs_evaluations=int(payload["num_rhs_evaluations"]),
            invariant_drift=float(payload["invariant_drift"]),
            elapsed_seconds=float(payload["elapsed_seconds"]),
            dissipation=payload.get("dissipation"),
            context=None if context is None else ExecutionContext.from_dict(context),
        )

    def __repr__(self) -> str:
        return (
            f"AnnealingResult(problem={self.problem_name!r}, "
            f"T={self.anneal_time:.4g}, "
            f"expectation={self.optimal_expectation:.6f}, "
            f"ratio={self.approximation_ratio:.4f})"
        )


class AnnealingSolver:
    """Continuous-time MaxCut solver over an annealing schedule.

    Parameters
    ----------
    schedule:
        Default :class:`~repro.dynamics.schedules.AnnealingSchedule`;
        per-solve schedules (or a bare ``anneal_time``, which builds a
        smooth ramp) override it.
    method:
        ``"rk45"`` (adaptive, default) or ``"rk4"`` (fixed-step).
    rtol, atol:
        Adaptive tolerances (``rk45``).
    num_steps:
        Fixed step count (``rk4``).
    dissipation:
        ``None`` for closed-system Schrodinger evolution; otherwise a
        uniform depolarizing rate, a ``{jump: rate}`` mapping, or a
        :class:`~repro.quantum.noise.NoiseModel` — the anneal then runs as
        a Lindblad master equation on the exact density path.
    context:
        Execution context (or backend name); its backend must be the
        gate-level ``"circuit"`` engine, which is also the default.
    """

    def __init__(
        self,
        schedule: Optional[AnnealingSchedule] = None,
        *,
        method: str = "rk45",
        rtol: float = 1e-8,
        atol: float = 1e-10,
        num_steps: int = 400,
        dissipation: Union[None, float, Mapping, object] = None,
        context: ContextLike = None,
    ):
        if schedule is not None and not isinstance(schedule, AnnealingSchedule):
            raise ConfigurationError(
                f"schedule must be an AnnealingSchedule, got "
                f"{type(schedule).__name__}"
            )
        method = str(method).strip().lower()
        if method not in ("rk4", "rk45"):
            raise ConfigurationError(
                f"unknown integration method {method!r}; available: rk4, rk45"
            )
        self._schedule = schedule
        self._method = method
        self._rtol = float(rtol)
        self._atol = float(atol)
        self._num_steps = int(num_steps)
        if dissipation is not None:
            dissipation_payload(dissipation)  # validate at construction
        self._dissipation = dissipation
        resolved = as_execution_context(
            "circuit" if context is None else context
        )
        if resolved.backend != "circuit":
            raise ConfigurationError(
                f"backend {resolved.backend!r} has no continuous-time "
                f"evolution; anneals run on backend='circuit'"
            )
        self._context = resolved
        self._backend_name = resolved.backend

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Name of the negotiated execution backend."""
        return self._backend_name

    @property
    def context(self) -> ExecutionContext:
        return self._context

    def options_payload(self) -> dict:
        """Canonical solver-option content (service cache keys)."""
        payload = {
            "method": self._method,
            "rtol": self._rtol,
            "atol": self._atol,
            "num_steps": self._num_steps,
            "backend": self._backend_name,
        }
        if self._dissipation is not None:
            payload["dissipation"] = dissipation_payload(self._dissipation)
        return payload

    # ------------------------------------------------------------------
    def resolve_schedule(
        self, anneal_time: Optional[float], schedule: Optional[AnnealingSchedule]
    ) -> AnnealingSchedule:
        """The schedule a ``solve(problem, anneal_time, schedule=...)`` would run.

        Public because the service tier keys annealing jobs on the resolved
        schedule's canonical payload before the solve executes.
        """
        if anneal_time is not None:
            try:
                anneal_time = float(anneal_time)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"anneal_time must be a number, got {anneal_time!r}"
                ) from None
        if schedule is not None:
            if not isinstance(schedule, AnnealingSchedule):
                raise ConfigurationError(
                    f"schedule must be an AnnealingSchedule, got "
                    f"{type(schedule).__name__}"
                )
            if anneal_time is not None and abs(anneal_time - schedule.total_time) > 1e-12:
                raise ConfigurationError(
                    f"anneal_time={anneal_time} contradicts the schedule's "
                    f"total_time={schedule.total_time}; pass one or the other"
                )
            return schedule
        if anneal_time is not None:
            return SmoothSchedule(anneal_time)
        if self._schedule is not None:
            return self._schedule
        raise ConfigurationError(
            "pass anneal_time= or schedule= (no default schedule was "
            "configured on the solver)"
        )

    def solve(
        self,
        problem: MaxCutProblem,
        anneal_time: Optional[float] = None,
        *,
        schedule: Optional[AnnealingSchedule] = None,
    ) -> AnnealingResult:
        """Anneal *problem* and report the final cut statistics.

        Exactly one time source applies: an explicit *schedule*, a bare
        *anneal_time* (smooth ramp), or the solver's default schedule.
        """
        if not isinstance(problem, MaxCutProblem):
            raise ConfigurationError(
                f"problem must be a MaxCutProblem, got {type(problem).__name__}"
            )
        started = time.perf_counter()
        active = self.resolve_schedule(anneal_time, schedule)
        n = problem.num_qubits
        dissipative = self._dissipation is not None
        ceiling = LINDBLAD_MAX_QUBITS if dissipative else SCHRODINGER_MAX_QUBITS
        if n > ceiling:
            raise ConfigurationError(
                f"{'dissipative' if dissipative else 'closed-system'} anneals "
                f"are limited to {ceiling} qubits "
                f"({'4^n' if dissipative else '2^n'} state memory), the "
                f"problem has {n}"
            )
        driver = Hamiltonian.transverse_field(n)
        cost = Hamiltonian(problem.cost_hamiltonian() * -1.0, name="NegCost")
        generator = active.interpolate(driver, cost)
        dim = 1 << n
        uniform = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
        dissipation_payload = None
        if dissipative:
            jumps, dissipation_payload = _dissipation_jumps(self._dissipation, n)
            lindbladian = Lindbladian(generator, jumps, num_qubits=n)
            trajectory = self._evolve(lindbladian, np.outer(uniform, uniform.conj()), active)
        else:
            trajectory = self._evolve(generator, uniform, active)
        probabilities = trajectory.probabilities()
        cut_table = problem.cut_values_table()
        expected_cut = float(probabilities @ cut_table)
        max_cut = problem.max_cut_value()
        success = float(
            probabilities[np.isclose(cut_table, max_cut, atol=1e-9)].sum()
        )
        rounded = np.round(cut_table, _CUT_DECIMALS)
        values = np.unique(rounded)
        distribution = [
            [float(value), float(probabilities[rounded == value].sum())]
            for value in values
        ]
        best_index = int(np.argmax(probabilities))
        assignment = format(best_index, f"0{n}b")
        return AnnealingResult(
            problem_name=problem.name,
            num_qubits=n,
            anneal_time=active.total_time,
            schedule=active.payload(),
            method=self._method,
            optimal_expectation=expected_cut,
            max_cut_value=max_cut,
            success_probability=success,
            cut_distribution=distribution,
            most_probable_assignment=assignment,
            num_steps=trajectory.num_steps,
            num_rhs_evaluations=trajectory.num_rhs_evaluations,
            invariant_drift=trajectory.invariant_drift,
            elapsed_seconds=time.perf_counter() - started,
            dissipation=dissipation_payload,
            context=self._context,
        )

    def _evolve(self, generator, state, schedule: AnnealingSchedule):
        if self._method == "rk4":
            return evolve(
                generator,
                state,
                times=schedule.total_time,
                method="rk4",
                num_steps=self._num_steps,
            )
        return evolve(
            generator,
            state,
            times=schedule.total_time,
            method="rk45",
            rtol=self._rtol,
            atol=self._atol,
        )

    def __repr__(self) -> str:
        return (
            f"AnnealingSolver(method={self._method!r}, "
            f"backend={self._backend_name!r}, "
            f"dissipative={self._dissipation is not None})"
        )


__all__ = [
    "LINDBLAD_MAX_QUBITS",
    "SCHRODINGER_MAX_QUBITS",
    "AnnealingResult",
    "AnnealingSolver",
]
