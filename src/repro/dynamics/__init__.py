"""Continuous-time dynamics: Lindblad master equations + quantum annealing.

The subsystem covers the physics regime the discrete gate/channel stack
cannot express — evolution generated continuously in time rather than by a
clocked circuit:

* :mod:`repro.dynamics.generators` — matrix-free :class:`Hamiltonian`
  objects from Pauli sums (permutation + phase term tables);
* :mod:`repro.dynamics.lindblad` — :class:`Lindbladian` generators on
  row-major ``vec(rho)``, structured (GEMM) and dense (``expm`` oracle)
  tiers, jump operators converted from
  :class:`~repro.quantum.noise.NoiseModel` rates;
* :mod:`repro.dynamics.integrators` — deterministic fixed-step RK4 and
  adaptive Dormand–Prince RK45 with exact dense-output sampling and
  invariant (norm/trace) drift monitoring, behind one :func:`evolve` entry
  point;
* :mod:`repro.dynamics.schedules` — :class:`AnnealingSchedule` ramps
  (linear / piecewise-linear / smooth) interpolating driver → cost
  Hamiltonians;
* :mod:`repro.dynamics.annealing` — :class:`AnnealingSolver`, the
  continuous-time sibling of :class:`~repro.qaoa.solver.QAOASolver`,
  run on the gate-level ``"circuit"`` backend (a ``"fast"`` context is
  refused) and as async :meth:`~repro.service.SolverService.submit_anneal`
  jobs.

Quickstart
----------
>>> from repro.dynamics import AnnealingSolver
>>> from repro.graphs import erdos_renyi_graph, MaxCutProblem
>>> problem = MaxCutProblem(erdos_renyi_graph(4, 0.9, seed=5))
>>> result = AnnealingSolver().solve(problem, anneal_time=15.0)
>>> bool(result.approximation_ratio > 0.95)
True
"""

from repro.dynamics.generators import DENSE_MATRIX_MAX_QUBITS, Hamiltonian
from repro.dynamics.lindblad import (
    DENSE_SUPEROP_MAX_QUBITS,
    JUMP_OPERATORS,
    JumpOperator,
    Lindbladian,
)
from repro.dynamics.integrators import (
    EvolutionResult,
    RK4Integrator,
    RK45Integrator,
    evolve,
)
from repro.dynamics.schedules import (
    AnnealingSchedule,
    InterpolatedHamiltonian,
    LinearSchedule,
    PiecewiseLinearSchedule,
    SmoothSchedule,
)
from repro.dynamics.annealing import (
    LINDBLAD_MAX_QUBITS,
    SCHRODINGER_MAX_QUBITS,
    AnnealingResult,
    AnnealingSolver,
)

__all__ = [
    "DENSE_MATRIX_MAX_QUBITS",
    "DENSE_SUPEROP_MAX_QUBITS",
    "JUMP_OPERATORS",
    "LINDBLAD_MAX_QUBITS",
    "SCHRODINGER_MAX_QUBITS",
    "AnnealingResult",
    "AnnealingSchedule",
    "AnnealingSolver",
    "EvolutionResult",
    "Hamiltonian",
    "InterpolatedHamiltonian",
    "JumpOperator",
    "Lindbladian",
    "LinearSchedule",
    "PiecewiseLinearSchedule",
    "RK4Integrator",
    "RK45Integrator",
    "SmoothSchedule",
    "evolve",
]
