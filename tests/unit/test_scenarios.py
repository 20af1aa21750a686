"""Tests for the registered per-figure sweeps (reduced-scale runs).

Each figure of the paper's evaluation is a registered ``ExperimentSpec``;
the tests scale it down through ``RecoveryService().sweep(name, **changes)``.
"""

import dataclasses

from repro.api.service import RecoveryService
from repro.engine.registry import get_spec
from repro.topologies.caida_like import caida_like


class TestFigure3:
    def test_rows_and_algorithms(self):
        result = RecoveryService().sweep(
            "figure3", seed=1, sweep_values=(2,), runs=1, opt_time_limit=30.0
        )
        assert result.figure == "Figure 3"
        algorithms = {row["algorithm"] for row in result.rows}
        assert algorithms == {"OPT", "MCW", "MCB", "ALL"}

    def test_series_pivot(self):
        result = RecoveryService().sweep(
            "figure3", seed=1, sweep_values=(2,), runs=1, opt_time_limit=30.0,
            algorithms=("MCB", "ALL"),
        )
        series = result.series("total_repairs")
        assert set(series) == {"MCB", "ALL"}


class TestFigure4:
    def test_sweep_structure(self):
        result = RecoveryService().sweep(
            "figure4",
            seed=2,
            sweep_values=(1, 2),
            runs=1,
            opt_time_limit=30.0,
            algorithms=("ISP", "SRT", "ALL"),
        )
        sweep_values = {row["num_pairs"] for row in result.rows}
        assert sweep_values == {1, 2}
        assert len(result.rows) == 2 * 3

    def test_isp_never_exceeds_all(self):
        result = RecoveryService().sweep(
            "figure4", seed=3, sweep_values=(2,), runs=1, algorithms=("ISP", "ALL")
        )
        series = result.series("total_repairs")
        assert series["ISP"][2] <= series["ALL"][2]


class TestFigure5:
    def test_reduced_run(self):
        spec = get_spec("figure5")
        result = RecoveryService().sweep(
            spec,
            seed=4,
            sweep_values=(4,),
            demand=dataclasses.replace(spec.demand, num_pairs=2),
            runs=1,
            algorithms=("ISP", "SRT"),
        )
        assert {row["algorithm"] for row in result.rows} == {"ISP", "SRT"}
        assert all(row["satisfied_pct"] <= 100.0 for row in result.rows)


class TestFigure6:
    def test_geographic_sweep(self):
        spec = get_spec("figure6")
        result = RecoveryService().sweep(
            spec,
            seed=5,
            sweep_values=(5.0, 200.0),
            demand=dataclasses.replace(spec.demand, num_pairs=2),
            runs=1,
            algorithms=("ISP", "ALL"),
        )
        series = result.series("total_repairs")
        # A wider disruption destroys (and therefore repairs) at least as much.
        assert series["ALL"][200.0] >= series["ALL"][5.0]


class TestFigure7:
    def test_scalability_rows(self):
        spec = get_spec("figure7")
        result = RecoveryService().sweep(
            spec,
            seed=6,
            sweep_values=(0.08,),
            topology=dataclasses.replace(
                spec.topology, kwargs={**dict(spec.topology.kwargs), "num_nodes": 25}
            ),
            demand=dataclasses.replace(spec.demand, num_pairs=2),
            runs=1,
            algorithms=("ISP", "SRT"),
        )
        assert {row["algorithm"] for row in result.rows} == {"ISP", "SRT"}
        assert all(row["elapsed_seconds"] >= 0 for row in result.rows)


class TestFigure8:
    def test_topology_report(self):
        supply = caida_like(num_nodes=200, num_edges=246, seed=7)
        stats = supply.stats()
        degrees = sorted((supply.degree(node) for node in supply.nodes), reverse=True)
        assert stats["nodes"] == 200
        assert stats["edges"] == 246
        assert stats["connected"]
        assert sum(degrees) == 2 * 246
        assert stats["max_degree"] == degrees[0]
        assert 0.0 < sum(1 for d in degrees if d == 1) / len(degrees) < 1.0


class TestFigure9:
    def test_reduced_caida_run(self):
        spec = get_spec("figure9")
        result = RecoveryService().sweep(
            spec,
            seed=8,
            sweep_values=(1,),
            topology=dataclasses.replace(
                spec.topology,
                kwargs={**dict(spec.topology.kwargs), "num_nodes": 60, "num_edges": 75},
            ),
            demand=dataclasses.replace(spec.demand, flow_per_pair=10.0),
            runs=1,
            opt_time_limit=20.0,
            algorithms=("ISP", "SRT"),
        )
        assert {row["algorithm"] for row in result.rows} == {"ISP", "SRT"}
        for row in result.rows:
            assert row["total_repairs"] >= 0
