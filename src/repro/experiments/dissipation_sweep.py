"""Open-system annealing ablation: dissipation rate x anneal time.

The adiabatic theorem promises approximation ratio -> 1 as the anneal
slows down — but only for a **closed** annealer.  Real hardware is open:
the register decoheres while it anneals, and slowing down buys adiabaticity
at the price of more accumulated dissipation.  This ablation maps that
trade-off.  For every combination of a uniform depolarizing rate and an
anneal time it runs the :class:`~repro.dynamics.AnnealingSolver` — the
``rate = 0`` rows on the closed Schrodinger path, every other row as a
Lindblad master equation on the exact density path (``4^n`` memory, hence
the :data:`~repro.dynamics.LINDBLAD_MAX_QUBITS` = 12-qubit ceiling) — and
reports the final expected cut, approximation ratio and ground-state
success probability.

The signature pattern in the output table: at ``rate = 0`` the ratio rises
monotonically with the anneal time; at any positive rate it peaks at an
intermediate time and then *decays* towards the fully mixed state's ratio,
so every dissipation level has a finite optimal anneal time.

Run from the command line::

    PYTHONPATH=src python -m repro.experiments.dissipation_sweep
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.execution.context import ContextLike, as_execution_context
from repro.experiments.config import ExperimentConfig
from repro.graphs.ensembles import erdos_renyi_ensemble
from repro.graphs.maxcut import MaxCutProblem
from repro.utils.tables import Table

#: Default uniform depolarizing rates (0.0 = closed-system baseline).
DEFAULT_DISSIPATION_RATES = (0.0, 0.02, 0.1)

#: Default anneal times swept against every rate.
DEFAULT_ANNEAL_TIMES = (2.0, 6.0, 12.0)


@dataclass
class DissipationSweepResult:
    """Cut quality of the continuous-time anneal under open-system noise."""

    table: Table
    config: ExperimentConfig
    num_graphs: int

    def to_text(self) -> str:
        """Plain-text rendering."""
        return "\n".join(
            [
                (
                    f"Ablation: dissipation rate x anneal time "
                    f"({self.num_graphs} graphs, "
                    f"{self.config.num_nodes} nodes each)"
                ),
                self.table.to_text(),
            ]
        )

    def row(self, rate: float, anneal_time: float) -> dict:
        """The swept row for one (rate, anneal time) combination."""
        for entry in self.table:
            if entry["rate"] == rate and entry["anneal_time"] == anneal_time:
                return entry
        raise KeyError((rate, anneal_time))

    def mean_ratio(self, rate: float, anneal_time: float) -> float:
        """Mean approximation ratio for one combination."""
        return self.row(rate, anneal_time)["mean_ratio"]

    def ratio_degradation(self, rate: float, anneal_time: float) -> float:
        """Ratio lost to dissipation at this time (closed-system minus open)."""
        return self.mean_ratio(0.0, anneal_time) - self.mean_ratio(rate, anneal_time)

    def best_anneal_time(self, rate: float) -> float:
        """The swept anneal time maximising the mean ratio at *rate*."""
        rows = [entry for entry in self.table if entry["rate"] == rate]
        if not rows:
            raise KeyError(rate)
        return max(rows, key=lambda entry: entry["mean_ratio"])["anneal_time"]


def run_dissipation_sweep(
    config: Optional[ExperimentConfig] = None,
    *,
    dissipation_rates: Sequence[float] = DEFAULT_DISSIPATION_RATES,
    anneal_times: Sequence[float] = DEFAULT_ANNEAL_TIMES,
    num_graphs: int = 3,
    rtol: float = 1e-7,
    atol: float = 1e-9,
    context: ContextLike = None,
) -> DissipationSweepResult:
    """Sweep dissipation rates x anneal times on the continuous-time solver.

    Parameters
    ----------
    config:
        Experiment scale (graph size, seed); the default is the shared
        small-scale configuration.  Graph size is capped by the exact
        density oracle (:data:`~repro.dynamics.LINDBLAD_MAX_QUBITS` = 12)
        whenever a positive rate is swept.
    dissipation_rates:
        Uniform depolarizing rates (X/Y/Z jumps at ``rate / 3`` on every
        qubit).  ``0.0`` rows run the closed Schrodinger path and anchor
        the degradation columns.
    anneal_times:
        Smooth-ramp anneal lengths swept against every rate.
    num_graphs:
        Number of independent Erdos-Renyi instances averaged per cell.
    rtol, atol:
        Adaptive (RK45) integration tolerances of every solve.
    context:
        Base :class:`~repro.execution.context.ExecutionContext` (or a
        backend-name shorthand); its backend must be the gate-level
        ``"circuit"`` engine, which is also the default.
    """
    from repro.dynamics import LINDBLAD_MAX_QUBITS, AnnealingSolver

    base_context = as_execution_context("circuit" if context is None else context)
    if not dissipation_rates or not anneal_times:
        raise ConfigurationError("dissipation_rates and anneal_times must be non-empty")
    rates = [float(rate) for rate in dissipation_rates]
    times = [float(anneal_time) for anneal_time in anneal_times]
    if any(rate < 0.0 for rate in rates):
        raise ConfigurationError(f"dissipation rates must be >= 0, got {rates}")
    config = config or ExperimentConfig()
    if any(rate > 0.0 for rate in rates) and config.num_nodes > LINDBLAD_MAX_QUBITS:
        raise ConfigurationError(
            f"dissipative anneals run on the exact density oracle, capped at "
            f"{LINDBLAD_MAX_QUBITS} qubits; the configured graphs have "
            f"{config.num_nodes} nodes"
        )
    graphs = erdos_renyi_ensemble(
        num_graphs,
        num_nodes=config.num_nodes,
        edge_probability=config.edge_probability,
        seed=config.seed + 8000,
    )
    problems = [MaxCutProblem(graph) for graph in graphs]

    table = Table(
        [
            "rate",
            "anneal_time",
            "mean_cut",
            "mean_ratio",
            "ratio_degradation",
            "mean_success",
            "mean_steps",
            "num_graphs",
        ]
    )
    closed_ratio_by_time = {}
    for rate in rates:
        solver = AnnealingSolver(
            method="rk45",
            rtol=rtol,
            atol=atol,
            dissipation=rate if rate > 0.0 else None,
            context=base_context,
        )
        for anneal_time in times:
            cuts, ratios, successes, steps = [], [], [], []
            for problem in problems:
                result = solver.solve(problem, anneal_time=anneal_time)
                cuts.append(result.optimal_expectation)
                ratios.append(result.approximation_ratio)
                successes.append(result.success_probability)
                steps.append(result.num_steps)
            mean_ratio = float(np.mean(ratios))
            if rate == 0.0:
                closed_ratio_by_time[anneal_time] = mean_ratio
            baseline = closed_ratio_by_time.get(anneal_time)
            table.add_row(
                rate=rate,
                anneal_time=anneal_time,
                mean_cut=float(np.mean(cuts)),
                mean_ratio=mean_ratio,
                ratio_degradation=(
                    float(baseline - mean_ratio) if baseline is not None else float("nan")
                ),
                mean_success=float(np.mean(successes)),
                mean_steps=float(np.mean(steps)),
                num_graphs=len(problems),
            )
    return DissipationSweepResult(
        table=table,
        config=config,
        num_graphs=len(problems),
    )


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_dissipation_sweep().to_text())
