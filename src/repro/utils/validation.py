"""Small validation helpers used throughout the library.

The helpers raise ``ValueError`` with a descriptive message so that callers
get actionable errors instead of silently producing nonsense results.
"""

from __future__ import annotations

from typing import Any


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with ``message`` when ``condition`` is false."""
    if not condition:
        raise ValueError(message)


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive (NaN is not) and return it."""
    _check_numeric(value, name)
    if not value > 0:
        raise ValueError(f"{name} must be strictly positive, got {value!r}")
    return float(value)


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is non-negative (NaN is not) and return it."""
    _check_numeric(value, name)
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return float(value)


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    _check_numeric(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return float(value)


def _check_numeric(value: Any, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
