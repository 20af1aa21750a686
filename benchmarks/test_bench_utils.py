"""Tests for the benchmark helpers: the golden-table check and the ablation specs."""

from __future__ import annotations

import pytest

import numpy as np

import bench_utils
from bench_utils import ablation_spec, print_figure
from repro.engine.spec import build_instance
from repro.engine.tasks import expand_tasks
from repro.evaluation.reporting import format_table

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


class TestAblationSpec:
    def test_variants_run_on_the_same_instances(self):
        # The ablations compare variants swept one spec at a time: an
        # instance's seed must not depend on the spec's algorithm.
        def demands(spec):
            instances = []
            for task in expand_tasks(spec, seed=31):
                rng = np.random.default_rng(task.seed_sequence())
                _, demand = build_instance(spec, task.sweep_value, rng)
                instances.append(demand.pairs())
            return instances

        hop = demands(ablation_spec("ISP", {"metric": "hop"}))
        assert demands(ablation_spec("OPT", {}, opt_time_limit=90.0)) == hop
        assert len(hop[0]) == 4
