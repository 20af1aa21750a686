"""Utility helpers shared across the :mod:`repro` package.

The utilities are deliberately small and dependency free: deterministic
random-number handling and input validation helpers.
"""

from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    require,
)

__all__ = [
    "ensure_rng",
    "spawn_rng",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "require",
]
