"""Small argument-validation helpers used across the package.

The ``check_*`` helpers raise built-in exception types (``ValueError`` /
``TypeError``) because they guard programming errors at API boundaries
rather than library failures.  :func:`_integer` is the integer check of the
solver's configuration boundary (service submissions, solver, evaluator and
execution context), so it raises
:class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Optional, Union

from repro.exceptions import ConfigurationError

Number = Union[int, float]


def _integer(value: Any, name: str, minimum: Optional[int] = None) -> int:
    """*value* as a Python ``int``; anything else is a configuration error.

    Ints and NumPy integers pass, never ``2.5`` or ``"2"``; with *minimum*,
    smaller values are refused too.
    """
    try:
        integer = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and integer < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {integer}")
    return integer


def check_positive_int(value: int, name: str) -> int:
    """Return *value* if it is a positive integer, else raise ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_non_negative_int(value: int, name: str) -> int:
    """Return *value* if it is a non-negative integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_positive(value: Number, name: str) -> float:
    """Return *value* as float if it is strictly positive and finite."""
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def check_probability(value: Number, name: str) -> float:
    """Return *value* as float if it lies in the closed interval [0, 1]."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in_range(value: Number, low: Number, high: Number, name: str) -> float:
    """Return *value* as float if it lies in the closed interval [low, high]."""
    value = float(value)
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_qubit_index(qubit: int, num_qubits: int, name: str = "qubit") -> int:
    """Validate a qubit index against the register size."""
    check_non_negative_int(qubit, name)
    if qubit >= num_qubits:
        raise ValueError(
            f"{name} index {qubit} out of range for a {num_qubits}-qubit register"
        )
    return qubit
