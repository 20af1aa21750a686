"""Ablation — the dynamic path metric of Section IV-D.

The paper's dynamic edge length (repair cost of still-broken elements
divided by capacity, zeroed once an element is listed for repair) is the
ingredient that concentrates ISP's routing decisions on already-repaired
corridors.  This bench runs ISP with the paper's dynamic metric and with a
plain hop metric on the same instances and reports the repair counts of both,
so the contribution of the metric is measurable.
"""

from __future__ import annotations

import pytest

from bench_utils import BENCH_CACHE, BENCH_JOBS, ablation_spec, print_figure, timed
from repro.api.service import RecoveryService

#: Row label -> (algorithm, its options).
VARIANTS = {
    "ISP(dynamic)": ("ISP", {"metric": "dynamic"}),
    "ISP(hop)": ("ISP", {"metric": "hop"}),
    "OPT": ("OPT", {}),
}


@timed
def run_ablation():
    rows = []
    for label, (algorithm, options) in VARIANTS.items():
        spec = ablation_spec(algorithm, options, opt_time_limit=90.0)
        result = RecoveryService().sweep(spec, seed=31, jobs=BENCH_JOBS, cache_dir=BENCH_CACHE)
        (row,) = result.rows
        rows.append({**row, "algorithm": label})
    return rows


def test_ablation_dynamic_vs_hop_metric(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print_figure(
        "Ablation — ISP path metric (Bell-Canada, 4 pairs, 10 units, complete destruction)",
        rows,
        ["algorithm", "total_repairs", "satisfied_pct", "elapsed_seconds"],
    )
    repairs = {row["algorithm"]: row["total_repairs"] for row in rows}
    satisfied = {row["algorithm"]: row["satisfied_pct"] for row in rows}

    # Both variants must remain lossless and bounded by the trivial solution.
    assert satisfied["ISP(dynamic)"] == pytest.approx(100.0, abs=1e-3)
    assert satisfied["ISP(hop)"] == pytest.approx(100.0, abs=1e-3)
    assert repairs["ISP(dynamic)"] <= 112
    assert repairs["ISP(hop)"] <= 112

    # The claim under test: the dynamic metric does not repair more than the
    # hop metric (it concentrates flow on already-repaired corridors), and it
    # stays within a small factor of the optimum.
    assert repairs["ISP(dynamic)"] <= repairs["ISP(hop)"] + 2.0
    assert repairs["ISP(dynamic)"] <= 1.5 * repairs["OPT"]
