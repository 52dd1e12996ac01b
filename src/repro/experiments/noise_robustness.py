"""Noise-robustness ablation: shot budgets x depolarizing strength.

The paper's two-level flow is motivated by the cost of *quantum calls*, yet
the reproduction's tables are generated against an exact, noiseless oracle.
This ablation stresses the optimization loop under the realistic oracle of
:mod:`repro.quantum.noise`: for every combination of a finite shot budget
and a depolarizing strength it re-runs the QAOA solve (SPSA by default — the
solver's stochastic-oracle wiring) and reports how far the returned angles
fall short of the exact-oracle baseline.

Angles found under a stochastic oracle are **re-scored with the exact
evaluator**, so the reported approximation ratio measures the true quality
of the optimization outcome rather than one noisy readout of it.

Passing a :class:`~repro.quantum.noise.ReadoutErrorModel` additionally
splits every swept cell into a ``raw`` and a ``mitigated`` row (measurement
outcomes corrupted by the assignment errors, without and with
confusion-matrix-inversion mitigation), measuring how much of the lost
approximation ratio the standard mitigation recovers.

Run from the command line::

    PYTHONPATH=src python -m repro.experiments.noise_robustness
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
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.solver import QAOASolver
from repro.quantum.noise import NoiseModel, ReadoutErrorModel
from repro.utils.tables import Table

#: Default shot budgets swept by the ablation (per expectation evaluation).
DEFAULT_SHOT_BUDGETS = (64, 256, 1024)

#: Default single-qubit depolarizing strengths (0.0 = shots-only noise; the
#: matching two-qubit strength is 10x, the hardware-typical ratio).
DEFAULT_NOISE_STRENGTHS = (0.0, 0.002, 0.01)


@dataclass
class NoiseRobustnessResult:
    """AR degradation of the QAOA loop under shots x depolarizing noise."""

    table: Table
    config: ExperimentConfig
    depth: int
    exact_mean_ar: float
    exact_mean_fc: float

    def to_text(self) -> str:
        """Plain-text rendering."""
        return "\n".join(
            [
                (
                    f"Ablation: noise robustness at p={self.depth} "
                    f"(exact-oracle baseline AR = {self.exact_mean_ar:.4f}, "
                    f"FC = {self.exact_mean_fc:.0f})"
                ),
                self.table.to_text(),
            ]
        )

    def row(self, shots: int, noise_1q: float, readout: Optional[str] = None) -> dict:
        """The swept row for one (shots, noise strength) combination.

        *readout* selects among the row labels: ``"none"`` (no readout model
        swept) or ``"raw"`` / ``"mitigated"`` (readout sweep).  ``None``
        returns the **first** matching row — the single ``"none"`` row of a
        sweep without a readout model, but the ``"raw"`` row of a readout
        sweep; pass an explicit label when comparing across sweep kinds.
        """
        for entry in self.table:
            if entry["shots"] == shots and entry["noise_1q"] == noise_1q:
                if readout is None or entry["readout"] == readout:
                    return entry
        raise KeyError((shots, noise_1q, readout))

    def mean_ar(self, shots: int, noise_1q: float, readout: Optional[str] = None) -> float:
        """Mean exact-rescored AR for one combination."""
        return self.row(shots, noise_1q, readout)["mean_ar"]

    def ar_degradation(
        self, shots: int, noise_1q: float, readout: Optional[str] = None
    ) -> float:
        """AR lost relative to the exact-oracle baseline (positive = worse)."""
        return self.exact_mean_ar - self.mean_ar(shots, noise_1q, readout)

    def mitigation_gain(self, shots: int, noise_1q: float) -> float:
        """AR recovered by readout mitigation (mitigated minus raw row)."""
        return self.mean_ar(shots, noise_1q, "mitigated") - self.mean_ar(
            shots, noise_1q, "raw"
        )


def run_noise_robustness(
    config: Optional[ExperimentConfig] = None,
    *,
    depth: int = 2,
    shot_budgets: Sequence[int] = DEFAULT_SHOT_BUDGETS,
    noise_strengths: Sequence[float] = DEFAULT_NOISE_STRENGTHS,
    num_graphs: int = 3,
    trajectories: int = 4,
    context: ContextLike = None,
    readout_error: Optional[ReadoutErrorModel] = None,
) -> NoiseRobustnessResult:
    """Sweep shot budgets x depolarizing strengths against the exact baseline.

    Parameters
    ----------
    config:
        Experiment scale (graph size, tolerance, iteration cap, seed); the
        default is the shared small-scale configuration.
    depth:
        QAOA depth of every solve.
    shot_budgets:
        Shot budgets per expectation evaluation.
    noise_strengths:
        Single-qubit depolarizing probabilities; ``0.0`` rows isolate pure
        shot noise.  Two-qubit gates depolarize 10x as strongly (see
        :meth:`~repro.quantum.noise.NoiseModel.uniform_depolarizing`).
    num_graphs:
        Number of independent Erdos-Renyi instances averaged per cell.
    trajectories:
        Noise trajectories per evaluation when the strength is non-zero.
    context:
        Base :class:`~repro.execution.context.ExecutionContext` (or a
        backend-name shorthand) every swept cell derives from via
        :meth:`~repro.execution.context.ExecutionContext.replace`.  The
        sweep owns the ``shots`` / ``noise_model`` / ``trajectories`` /
        readout fields, so the base context must leave them unset.
    readout_error:
        Optional :class:`~repro.quantum.noise.ReadoutErrorModel`.  When
        given, every (shots, strength) cell is solved twice — once with the
        corrupted readout (``readout="raw"``) and once with
        confusion-matrix-inversion mitigation (``readout="mitigated"``) —
        so the table exposes how much AR the mitigation recovers.  The model
        must cover ``config.num_nodes`` qubits.
    """
    base_context = as_execution_context(context)
    if not base_context.is_exact or base_context.trajectories is not None:
        raise ConfigurationError(
            "run_noise_robustness sweeps shots/noise/trajectories/readout "
            "itself; the base context must be exact (backend and seed policy "
            f"only), got {base_context!r}"
        )
    if depth < 1:
        raise ConfigurationError(f"depth must be >= 1, got {depth}")
    if not shot_budgets or not noise_strengths:
        raise ConfigurationError("shot_budgets and noise_strengths must be non-empty")
    config = config or ExperimentConfig()
    if readout_error is not None and readout_error.num_qubits != config.num_nodes:
        raise ConfigurationError(
            f"readout model covers {readout_error.num_qubits} qubits, "
            f"the swept graphs have {config.num_nodes} nodes"
        )
    graphs = erdos_renyi_ensemble(
        num_graphs,
        num_nodes=config.num_nodes,
        edge_probability=config.edge_probability,
        seed=config.seed + 7000,
    )
    problems = [MaxCutProblem(graph) for graph in graphs]
    exact_evaluators = [ExpectationEvaluator(problem, depth) for problem in problems]

    # Exact-oracle baseline: the classic L-BFGS-B solve.
    exact_solver = QAOASolver(
        "L-BFGS-B",
        tolerance=config.tolerance,
        max_iterations=config.max_iterations,
        seed=config.seed + 7100,
    )
    exact_ars, exact_fcs = [], []
    for index, problem in enumerate(problems):
        result = exact_solver.solve(problem, depth, seed=config.seed + 7200 + index)
        exact_ars.append(result.approximation_ratio)
        exact_fcs.append(result.num_function_calls)
    exact_mean_ar = float(np.mean(exact_ars))
    exact_mean_fc = float(np.mean(exact_fcs))

    readout_modes = (
        [("none", None, False)]
        if readout_error is None
        else [("raw", readout_error, False), ("mitigated", readout_error, True)]
    )

    table = Table(
        [
            "shots",
            "noise_1q",
            "readout",
            "mean_ar",
            "ar_degradation",
            "mean_fc",
            "mean_total_shots",
            "num_graphs",
        ]
    )
    for noise_1q in noise_strengths:
        noise_model = (
            NoiseModel.uniform_depolarizing(noise_1q) if noise_1q > 0.0 else None
        )
        for shots in shot_budgets:
            for readout_label, readout_model, mitigate in readout_modes:
                cell_context = base_context.replace(
                    shots=int(shots),
                    noise_model=noise_model,
                    trajectories=trajectories if noise_model is not None else None,
                    readout_error=readout_model,
                    mitigate_readout=mitigate,
                )
                solver = QAOASolver(
                    context=cell_context,
                    tolerance=config.tolerance,
                    max_iterations=config.max_iterations,
                    seed=config.seed + 7300,
                )
                ars, fcs, budgets = [], [], []
                for index, problem in enumerate(problems):
                    result = solver.solve(
                        problem, depth, seed=config.seed + 7400 + index
                    )
                    # Re-score the returned angles with the exact oracle.
                    true_expectation = exact_evaluators[index].expectation(
                        result.optimal_parameters.to_vector()
                    )
                    ars.append(problem.approximation_ratio(true_expectation))
                    fcs.append(result.num_function_calls)
                    budgets.append(result.num_shots)
                table.add_row(
                    shots=int(shots),
                    noise_1q=float(noise_1q),
                    readout=readout_label,
                    mean_ar=float(np.mean(ars)),
                    ar_degradation=float(exact_mean_ar - np.mean(ars)),
                    mean_fc=float(np.mean(fcs)),
                    mean_total_shots=float(np.mean(budgets)),
                    num_graphs=len(problems),
                )
    return NoiseRobustnessResult(
        table=table,
        config=config,
        depth=depth,
        exact_mean_ar=exact_mean_ar,
        exact_mean_fc=exact_mean_fc,
    )


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run_noise_robustness().to_text())
