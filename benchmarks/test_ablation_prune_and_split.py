"""Ablation — bubble-restricted pruning and the split-amount LP.

Two design choices of ISP are ablated here:

* **Pruning safety** — the paper restricts pruning to *bubble* paths
  (Theorem 3) so a prune can never hurt another demand.  The ablation runs
  ISP with that restriction lifted (prune on any working path) and checks
  whether demand satisfaction survives.
* **Split amount** — Decision 2 computes the split amount with an LP; the
  ablation replaces it with the cheap bottleneck approximation and measures
  the effect on the number of repairs.
"""

from __future__ import annotations

import pytest

from bench_utils import BENCH_CACHE, BENCH_JOBS, ablation_spec, print_figure, timed
from repro.api.service import RecoveryService

#: Row label -> ISP options.
VARIANTS = {
    "ISP(paper)": {},
    "ISP(no-bubble)": {"require_bubble": False},
    "ISP(bottleneck-dx)": {"split_amount_mode": "bottleneck"},
}


@timed
def run_ablation():
    rows = []
    for label, options in VARIANTS.items():
        spec = ablation_spec("ISP", options)
        result = RecoveryService().sweep(spec, seed=37, jobs=BENCH_JOBS, cache_dir=BENCH_CACHE)
        (row,) = result.rows
        rows.append({**row, "algorithm": label})
    return rows


def test_ablation_prune_and_split_variants(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print_figure(
        "Ablation — pruning safety and split-amount computation (Bell-Canada)",
        rows,
        ["algorithm", "total_repairs", "satisfied_pct", "elapsed_seconds"],
    )
    by_name = {row["algorithm"]: row for row in rows}

    # The paper configuration is lossless by construction.
    assert by_name["ISP(paper)"]["satisfied_pct"] == pytest.approx(100.0, abs=1e-3)
    # The variants still terminate and produce plans within the trivial bound.
    for name, row in by_name.items():
        assert row["total_repairs"] <= 112, name
        assert row["satisfied_pct"] >= 95.0, name

    # The bottleneck approximation may repair a little more but stays close.
    assert (
        by_name["ISP(bottleneck-dx)"]["total_repairs"]
        <= by_name["ISP(paper)"]["total_repairs"] + 15.0
    )
