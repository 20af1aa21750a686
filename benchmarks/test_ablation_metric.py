"""Ablation — the dynamic path metric of Section IV-D.

DESIGN.md calls out the dynamic edge length (repair cost of still-broken
elements divided by capacity, zeroed once an element is listed for repair) as
the ingredient that concentrates ISP's routing decisions on already-repaired
corridors.  This bench runs ISP with the paper's dynamic metric and with a
plain hop metric on the same instances and reports the repair counts of both,
so the contribution of the metric is measurable.
"""

from __future__ import annotations

import pytest

from bench_utils import FULL_SCALE, ablation_rows, print_figure
from repro.core.isp import ISPConfig
from repro.heuristics.registry import get_algorithm


def run_ablation():
    algorithms = [
        get_algorithm("ISP", config=ISPConfig(metric="dynamic")),
        get_algorithm("ISP", config=ISPConfig(metric="hop")),
        get_algorithm("OPT", time_limit=90.0),
    ]
    algorithms[0].name = "ISP(dynamic)"
    algorithms[1].name = "ISP(hop)"
    return ablation_rows(algorithms, runs=5 if FULL_SCALE else 1, seed=31)


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
