"""Tests for repro.optimizers.registry."""

import pytest

from repro.exceptions import OptimizationError
from repro.optimizers.base import Optimizer
from repro.optimizers.registry import PAPER_OPTIMIZER_NAMES, available_optimizers, get_optimizer
from repro.optimizers.scipy_optimizers import LBFGSBOptimizer


class TestRegistry:
    @pytest.mark.parametrize("name", PAPER_OPTIMIZER_NAMES)
    def test_paper_optimizers_available(self, name):
        optimizer = get_optimizer(name)
        assert isinstance(optimizer, Optimizer)

    def test_case_insensitive(self):
        assert isinstance(get_optimizer("l-bfgs-b"), LBFGSBOptimizer)
        assert isinstance(get_optimizer("L-BFGS-B"), LBFGSBOptimizer)

    def test_kwargs_forwarded(self):
        optimizer = get_optimizer("SLSQP", tolerance=1e-3, max_iterations=17)
        assert optimizer.tolerance == 1e-3
        assert optimizer.max_iterations == 17

    def test_native_extensions_available(self):
        for name in ("spsa", "gradient-descent"):
            assert isinstance(get_optimizer(name), Optimizer)

    def test_unknown_name_raises(self):
        with pytest.raises(OptimizationError):
            get_optimizer("adam")

    def test_available_optimizers_sorted_and_unique(self):
        names = available_optimizers()
        assert names == sorted(names)
        assert len(names) == len(set(names))
