"""Shared exception types, and the two number rules every layer applies to its inputs."""

from __future__ import annotations

import numbers

import numpy as np


class NumericalError(RuntimeError):
    """Raised when an iterative or linear-algebra step fails to meet its tolerance."""


class ConfigError(ValueError):
    """Raised for malformed experiment configuration."""


def _whole(value, key: str) -> int:
    """value as an int: a real number with no fractional part, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """value as a float: a finite real number, and not a bool or a string."""
    try:   # float() of an int past the float range, such as 10**400, overflows
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and np.isfinite(float(value)):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{key} must be a finite real number, got {value!r}")
