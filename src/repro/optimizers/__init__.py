"""Classical optimizers with function-call accounting.

The paper evaluates four SciPy optimizers (L-BFGS-B, Nelder-Mead, SLSQP and
COBYLA); this subpackage wraps them behind a common :class:`Optimizer`
interface that counts objective evaluations (the paper's "function calls" /
"QC calls") and adds two native optimizers (SPSA and finite-difference
gradient descent) as optimizer-agnosticism ablations.
"""

from repro.optimizers.base import (
    CountingObjective,
    OptimizationResult,
    Optimizer,
)
from repro.optimizers.scipy_optimizers import (
    CobylaOptimizer,
    LBFGSBOptimizer,
    NelderMeadOptimizer,
    ScipyOptimizer,
    SLSQPOptimizer,
)
from repro.optimizers.spsa import SPSAOptimizer
from repro.optimizers.gradient_descent import FiniteDifferenceGradientDescent
from repro.optimizers.registry import available_optimizers, get_optimizer

__all__ = [
    "Optimizer",
    "OptimizationResult",
    "CountingObjective",
    "ScipyOptimizer",
    "LBFGSBOptimizer",
    "NelderMeadOptimizer",
    "SLSQPOptimizer",
    "CobylaOptimizer",
    "SPSAOptimizer",
    "FiniteDifferenceGradientDescent",
    "get_optimizer",
    "available_optimizers",
]
