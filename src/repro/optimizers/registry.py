"""Optimizer registry: build optimizers from their display names.

Experiment configurations reference optimizers by the names used in the
paper's Table I (``"L-BFGS-B"``, ``"Nelder-Mead"``, ``"SLSQP"``, ``"COBYLA"``,
all SciPy-backed) plus two native extensions, SPSA and finite-difference
gradient descent.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.exceptions import OptimizationError
from repro.optimizers.base import Optimizer
from repro.optimizers.gradient_descent import FiniteDifferenceGradientDescent
from repro.optimizers.scipy_optimizers import (
    CobylaOptimizer,
    LBFGSBOptimizer,
    NelderMeadOptimizer,
    SLSQPOptimizer,
)
from repro.optimizers.spsa import SPSAOptimizer

_FACTORIES: Dict[str, Callable[..., Optimizer]] = {
    "l-bfgs-b": LBFGSBOptimizer,
    "lbfgsb": LBFGSBOptimizer,
    "nelder-mead": NelderMeadOptimizer,
    "neldermead": NelderMeadOptimizer,
    "slsqp": SLSQPOptimizer,
    "cobyla": CobylaOptimizer,
    "spsa": SPSAOptimizer,
    "gradient-descent": FiniteDifferenceGradientDescent,
    "gd": FiniteDifferenceGradientDescent,
}

#: Canonical display names, in the order used by the paper's Table I.
PAPER_OPTIMIZER_NAMES = ("L-BFGS-B", "Nelder-Mead", "SLSQP", "COBYLA")


def available_optimizers() -> List[str]:
    """Names accepted by :func:`get_optimizer` (lower-case canonical forms)."""
    return sorted(set(_FACTORIES))


def get_optimizer(name: str, **kwargs) -> Optimizer:
    """Instantiate an optimizer by (case-insensitive) name.

    Keyword arguments such as ``tolerance`` and ``max_iterations`` are passed
    through to the optimizer constructor.
    """
    key = name.strip().lower()
    try:
        factory = _FACTORIES[key]
    except KeyError as exc:
        raise OptimizationError(
            f"unknown optimizer {name!r}; available: {', '.join(available_optimizers())}"
        ) from exc
    return factory(**kwargs)
