"""Summary statistics shared by the benchmark's workloads."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: Samples a tail percentile must leave beyond it to be reported.
MIN_TAIL_SAMPLES = 10

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9,) + tuple(float(p) for p in range(99, 49, -1))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float], min_beyond: int = MIN_TAIL_SAMPLES) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Percentiles are nearest-rank: the p-th percentile of n sorted samples is
    the sample at 1-based rank ``ceil(p/100 * n)``, which leaves
    ``n - rank`` samples beyond it.  Returns ``{"percentile", "value",
    "samples", "beyond"}`` or ``None`` when even the median leaves fewer than
    ``min_beyond`` samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
        if n - rank >= min_beyond:
            return {
                "percentile": p,
                "value": float(ordered[rank - 1]),
                "samples": n,
                "beyond": n - rank,
            }
    return None


def served_latencies(
    finished_at: Mapping[str, float], due_at: Mapping[str, float]
) -> List[float]:
    """Open-loop latency per job: stored completion time minus due time.

    Counting from the *due* time (not the send time) charges a request for
    the wait a generator stall imposed on it.
    """
    return [finished_at[key] - due_at[key] for key in due_at]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return float(numerator) / float(denominator) if denominator else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0
