"""Figure 8 — the large CAIDA-like topology.

The paper shows the AS28717 router-level topology (825 nodes, 1018 edges) as
a picture.  The reproduction substitutes a generated topology of identical
size; this bench reports its structural statistics so the substitution can
be audited: size, sparsity, degree profile, connectivity.
"""

from __future__ import annotations

import pytest

from bench_utils import print_figure
from repro.topologies.caida_like import caida_like


def run_figure8():
    """Node/edge counts, degree profile and connectivity of the generated graph."""
    supply = caida_like(num_nodes=825, num_edges=1018, seed=23)
    stats = supply.stats()
    degrees = sorted((supply.degree(node) for node in supply.nodes), reverse=True)
    stats["top_degrees"] = degrees[:10]
    stats["degree_one_fraction"] = sum(1 for d in degrees if d == 1) / len(degrees)
    return stats


def test_figure8_topology_statistics(benchmark):
    stats = benchmark.pedantic(run_figure8, rounds=1, iterations=1)
    rows = [
        {"metric": key, "value": value}
        for key, value in stats.items()
        if key != "top_degrees"
    ]
    rows.append({"metric": "top_degrees", "value": str(stats["top_degrees"])})
    print_figure("Figure 8 — CAIDA-like topology statistics (substitute for AS28717)", rows, ["metric", "value"])

    # Same size as the original giant component.
    assert stats["nodes"] == 825
    assert stats["edges"] == 1018
    assert stats["connected"]
    # Router-level graphs are sparse and heavy tailed: a few large hubs, many
    # degree-1 access routers.
    assert stats["mean_degree"] == pytest.approx(2 * 1018 / 825, rel=1e-6)
    assert stats["max_degree"] >= 15
    assert stats["degree_one_fraction"] >= 0.25
