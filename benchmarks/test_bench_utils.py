"""Tests for the benchmark helpers: the golden-table check and the ablation loop."""

from __future__ import annotations

import pytest

import bench_utils
from bench_utils import ablation_rows, print_figure
from repro.evaluation.reporting import format_table
from repro.heuristics.registry import get_algorithm
from repro.topologies.bellcanada import bell_canada

TITLE = "Demo — one table"
COLUMNS = ["algorithm", "total_repairs", "elapsed_seconds"]


def rows(total_repairs=5, elapsed_seconds=0.25):
    return [
        {"algorithm": "ISP", "total_repairs": total_repairs, "elapsed_seconds": elapsed_seconds},
        {"algorithm": "ALL", "total_repairs": 20, "elapsed_seconds": 0.5},
    ]


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    """Golden tables go to a fresh directory, at quick scale."""
    path = tmp_path / "results"
    monkeypatch.setattr(bench_utils, "RESULTS_DIR", path)
    monkeypatch.setattr(bench_utils, "FULL_SCALE", False)
    return path


class TestPrintFigure:
    def test_absent_golden_table_is_recorded(self, results_dir):
        print_figure(TITLE, rows(), COLUMNS)
        golden = results_dir / "demo-one-table.quick.txt"
        assert golden.read_text(encoding="utf-8") == format_table(
            rows(), columns=["algorithm", "total_repairs"], title=TITLE
        )

    def test_identical_table_passes(self, results_dir):
        print_figure(TITLE, rows(), COLUMNS)
        recorded = (results_dir / "demo-one-table.quick.txt").read_text(encoding="utf-8")
        print_figure(TITLE, rows(), COLUMNS)
        assert (results_dir / "demo-one-table.quick.txt").read_text(encoding="utf-8") == recorded

    def test_changed_table_fails_with_a_unified_diff(self, results_dir):
        print_figure(TITLE, rows(total_repairs=5), COLUMNS)
        recorded = (results_dir / "demo-one-table.quick.txt").read_text(encoding="utf-8")
        with pytest.raises(AssertionError) as excinfo:
            print_figure(TITLE, rows(total_repairs=7), COLUMNS)
        message = str(excinfo.value)
        assert "results/demo-one-table.quick.txt" in message
        assert "delete the file to re-record" in message
        assert "\n-ISP" in message and "\n+ISP" in message
        # A failing check never overwrites the golden table.
        assert (results_dir / "demo-one-table.quick.txt").read_text(encoding="utf-8") == recorded

    def test_timing_columns_are_left_out(self, results_dir):
        print_figure(TITLE, rows(elapsed_seconds=0.25), COLUMNS)
        assert "elapsed_seconds" not in (results_dir / "demo-one-table.quick.txt").read_text(
            encoding="utf-8"
        )
        print_figure(TITLE, rows(elapsed_seconds=9.75), COLUMNS)

    def test_full_scale_has_its_own_golden_table(self, results_dir, monkeypatch):
        monkeypatch.setattr(bench_utils, "FULL_SCALE", True)
        print_figure(TITLE, rows(), COLUMNS)
        assert [path.name for path in results_dir.iterdir()] == ["demo-one-table.full.txt"]


class TestAblationRows:
    def test_one_row_per_algorithm_in_order(self):
        supply = bell_canada()
        elements = supply.number_of_nodes + supply.number_of_edges
        result = ablation_rows([get_algorithm("SRT"), get_algorithm("ALL")], runs=1, seed=5)
        assert [row["algorithm"] for row in result] == ["SRT", "ALL"]
        assert list(result[0]) == ["algorithm", "total_repairs", "satisfied_pct", "elapsed_seconds"]
        # Complete destruction: ALL repairs every node and edge.
        assert result[1]["total_repairs"] == elements
        assert result[0]["total_repairs"] <= elements

    def test_averages_over_runs(self):
        supply = bell_canada()
        elements = supply.number_of_nodes + supply.number_of_edges
        (row,) = ablation_rows([get_algorithm("ALL")], runs=3, seed=5)
        assert row["total_repairs"] == pytest.approx(elements)
        assert row["satisfied_pct"] == pytest.approx(100.0)

    def test_deterministic_with_seed(self):
        a = ablation_rows([get_algorithm("SRT")], runs=2, seed=9)
        b = ablation_rows([get_algorithm("SRT")], runs=2, seed=9)
        assert a[0]["total_repairs"] == b[0]["total_repairs"]
        assert a[0]["satisfied_pct"] == b[0]["satisfied_pct"]

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError):
            ablation_rows([get_algorithm("ALL")], runs=0, seed=1)
