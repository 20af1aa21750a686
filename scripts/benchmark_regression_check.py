#!/usr/bin/env python
"""Fail CI when a tracked benchmark trajectory regresses.

Usage::

    python scripts/benchmark_regression_check.py \
        --baseline BENCH_server.json --current /tmp/BENCH_current.json
    python scripts/benchmark_regression_check.py \
        --baseline BENCH_opt.json --current /tmp/BENCH_opt_current.json

Both files are benchmark artefacts of the same ``kind``:

* ``server-bench`` — a loadtest report carrying the
  ``overhead_benchmark`` section merged in by
  ``benchmarks/test_server_throughput.py``.  The one gated metric is that
  section's ``served_vs_direct`` (higher is better): a warm fleet serving a
  fixed request set as fast as it can, divided by the direct batch path
  solving the same requests in the same alternating rounds, so it measures
  the serve path's capacity relative to the machine it ran on.  The
  section's absolute ``served_solves_per_sec`` and
  ``direct_solves_per_sec`` are recorded, not gated: they move with the
  machine's speed from run to run.  The loadtest's own top-level numbers
  (``completed_rps``, ``served_solves_per_sec``, ``paced_vs_direct_pct``)
  are not gated either: the loadtest is paced (CI replays 5 rps with ~88%
  dedup hits), so they track the traffic shape, not the serve path.
* ``opt-bench`` — the exact-solve speed artefact emitted by
  ``benchmarks/test_opt_speed.py``.  Gated metrics are the
  decomposed-vs-monolithic geometric-mean speedup and the proven-optimal
  fraction (both higher is better, both machine-relative, so they travel
  across CI runners where raw seconds would not).

The check compares every gated metric present in *both* files and fails
(exit 1) when any current value falls more than ``--tolerance`` (default
20%) below the recorded baseline.  Exit 2 means the check itself could
not run (unreadable artefact, mismatched kinds, nothing to gate).

Server artefacts may additionally carry a ``tracing_benchmark`` section
(merged by ``benchmarks/test_server_throughput.py``): its
``overhead_pct`` — spans per solve times the cost of one span over the
untraced solve time — is checked against its own ``budget_pct``, an
**absolute** budget, not baseline-relative, because tracing is supposed
to be invisible no matter what the trajectory did.

The tracked baselines at the repo root are the performance trajectory:
they are refreshed deliberately (commit a new ``BENCH_*.json``) when a PR
*improves* the numbers, and this gate keeps any later PR from silently
giving the win back.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Dotted paths of gated metrics per artefact kind; all higher-is-better.
METRICS_BY_KIND: Dict[str, Tuple[str, ...]] = {
    "server-bench": ("overhead_benchmark.served_vs_direct",),
    "opt-bench": (
        "geomean_speedup",
        "seeded_geomean_speedup",
        "proven_fraction",
    ),
}

#: Kind assumed when an artefact predates the ``kind`` field.
DEFAULT_KIND = "server-bench"


def artefact_kind(payload: Dict[str, Any]) -> str:
    """The artefact's ``kind``, defaulting for pre-versioned files."""
    kind = payload.get("kind")
    return kind if isinstance(kind, str) and kind in METRICS_BY_KIND else DEFAULT_KIND


def lookup(payload: Dict[str, Any], dotted: str) -> Optional[float]:
    """The numeric value at ``dotted`` path, or None if absent/non-numeric."""
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def compare(
    baseline: Dict[str, Any], current: Dict[str, Any], tolerance: float
) -> Tuple[List[str], List[str]]:
    """(verdict lines, regression lines) for every metric present in both."""
    lines: List[str] = []
    regressions: List[str] = []
    for metric in METRICS_BY_KIND[artefact_kind(baseline)]:
        base = lookup(baseline, metric)
        now = lookup(current, metric)
        if base is None or now is None:
            lines.append(f"  [skip] {metric}: not present in both artefacts")
            continue
        if base <= 0:
            lines.append(f"  [skip] {metric}: baseline {base:g} is not positive")
            continue
        floor = base * (1.0 - tolerance)
        change = (now / base - 1.0) * 100.0
        verdict = "ok" if now >= floor else "REGRESSION"
        lines.append(
            f"  [{verdict}] {metric}: baseline {base:.3f} -> current {now:.3f} "
            f"({change:+.1f}%, floor {floor:.3f})"
        )
        if now < floor:
            regressions.append(metric)
    return lines, regressions


def check_tracing_budget(current: Dict[str, Any]) -> Tuple[List[str], bool]:
    """(report lines, ok) for the absolute tracing-overhead budget.

    Vacuously ok when the current artefact has no ``tracing_benchmark``
    section (older artefacts, opt-bench files).
    """
    overhead = lookup(current, "tracing_benchmark.overhead_pct")
    budget = lookup(current, "tracing_benchmark.budget_pct")
    if overhead is None or budget is None:
        return [], True
    ok = overhead < budget
    verdict = "ok" if ok else "BUDGET EXCEEDED"
    return (
        [
            f"  [{verdict}] tracing_benchmark.overhead_pct: {overhead:+.2f}% "
            f"(absolute budget {budget:.1f}%)"
        ],
        ok,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="tracked BENCH_*.json")
    parser.add_argument("--current", required=True, help="freshly measured artefact")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional drop vs baseline (default 0.2 = 20%%)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")

    artefacts = []
    for label, path in (("baseline", args.baseline), ("current", args.current)):
        try:
            artefacts.append(json.loads(Path(path).read_text()))
        except (OSError, ValueError) as error:
            print(f"benchmark_regression_check: cannot read {label} {path}: {error}")
            return 2
    baseline, current = artefacts
    if artefact_kind(baseline) != artefact_kind(current):
        print(
            "FAIL: artefact kinds differ "
            f"({artefact_kind(baseline)!r} vs {artefact_kind(current)!r}) — "
            "baseline and current must come from the same benchmark"
        )
        return 2

    lines, regressions = compare(baseline, current, args.tolerance)
    budget_lines, budget_ok = check_tracing_budget(current)
    compared = sum(1 for line in lines if "[skip]" not in line)
    print(
        f"benchmark_regression_check: {args.current} vs {args.baseline} "
        f"[{artefact_kind(baseline)}] (tolerance {args.tolerance:.0%})"
    )
    for line in lines + budget_lines:
        print(line)
    if compared == 0:
        print("FAIL: no gated metric present in both artefacts — nothing gated")
        return 2
    if regressions:
        print(f"FAIL: benchmark regressed beyond tolerance: {', '.join(regressions)}")
        return 1
    if not budget_ok:
        print("FAIL: tracing overhead exceeds its absolute budget")
        return 1
    print(f"PASS: {compared} metric(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
