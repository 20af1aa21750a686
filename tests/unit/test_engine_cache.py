"""Tests for the resumable on-disk result cache."""

import json

import pytest

from repro.api.requests import DemandSpec, DisruptionSpec, TopologySpec
from repro.engine import executor as executor_module
from repro.engine.cache import ResultCache
from repro.engine.executor import run_tasks
from repro.engine.experiment import run_experiment
from repro.engine.spec import ExperimentSpec, SweepAxis
from repro.engine.tasks import execute_task, expand_tasks


def grid_spec(**changes):
    spec = ExperimentSpec(
        name="cache-grid",
        figure="Unit",
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "capacity": 10.0}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec("random", num_pairs=1, flow_per_pair=5.0),
        sweep=SweepAxis(parameter="num_pairs", values=(1, 2), target="demand.num_pairs"),
        algorithms=("SRT", "ALL"),
        runs=2,
    )
    return spec.replace(**changes) if changes else spec


def strip_timing(rows):
    return [
        {key: value for key, value in row.items() if key != "elapsed_seconds"}
        for row in rows
    ]


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = expand_tasks(grid_spec(), seed=3)[0]
        assert cache.get(task) is None
        cells = execute_task(task)
        cache.put(task, cells)
        restored = cache.get(task)
        assert [cell.algorithm for cell in restored] == ["SRT", "ALL"]
        assert all(cell.cached for cell in restored)
        for fresh, cell in zip(cells, restored):
            assert cell.metrics == fresh.metrics
            assert cell.plan == fresh.plan
            assert cell.broken_elements == fresh.broken_elements
        assert len(cache) == 2  # one file per cell

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = expand_tasks(grid_spec(), seed=3)[0]
        cache.put(task, execute_task(task))
        path = next(tmp_path.glob("*.json"))
        path.write_text("{ not json")
        assert cache.get(task) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        """A file cut off mid-write (e.g. a killed run) must read as a miss."""
        cache = ResultCache(tmp_path)
        task = expand_tasks(grid_spec(), seed=3)[0]
        cache.put(task, execute_task(task))
        path = next(tmp_path.glob("*.json"))
        content = path.read_text()
        for cut in (0, len(content) // 2):
            path.write_text(content[:cut])
            assert cache.get(task) is None
        # A syntactically valid file missing the result payload is also a miss.
        path.write_text(json.dumps({"key": "x", "task": {}}))
        assert cache.get(task) is None

    def test_planless_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = expand_tasks(grid_spec(), seed=3)[0]
        cache.put(task, execute_task(task))
        path = tmp_path / f"{task.cache_key('ALL')}.json"
        payload = json.loads(path.read_text())
        del payload["result"]["plan"]
        path.write_text(json.dumps(payload))
        assert cache.get(task) is None

    def test_entries_skip_corrupt_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = expand_tasks(grid_spec(), seed=3)[0]
        cache.put(task, execute_task(task))
        (tmp_path / "zz-corrupt.json").write_text("{ cut off mid-wri")
        assert len(list(cache.entries())) == 2

    def test_atomic_put_leaves_no_temp_debris(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = expand_tasks(grid_spec(), seed=3)[0]
        cells = execute_task(task)
        for _ in range(3):
            cache.put(task, cells)
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(cache) == 2
        # Leftover temp files from a crashed writer never shadow real entries.
        (tmp_path / "orphan.tmp").write_text("partial")
        assert len(cache) == 2
        assert len(list(cache.entries())) == 2

    def test_a_value_json_cannot_hold_raises_and_leaves_no_file(self, tmp_path):
        # No ``default=`` fallback: the value must not land as a quoted string.
        cache = ResultCache(tmp_path)
        task = expand_tasks(grid_spec(), seed=3)[0]
        (cell, _) = execute_task(task)
        cell.plan["metadata"] = {"stray": object()}
        with pytest.raises(TypeError):
            cache.put(task, [cell])
        assert list(tmp_path.iterdir()) == []

    def test_entries_expose_task_description(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = expand_tasks(grid_spec(), seed=3)[0]
        cache.put(task, execute_task(task))
        entries = list(cache.entries())
        assert {entry["task"]["spec"] for entry in entries} == {"cache-grid"}
        assert sorted(entry["task"]["cell"]["algorithm"] for entry in entries) == ["ALL", "SRT"]
        json.dumps(entries)  # stays JSON-serialisable end to end

    def test_different_seeds_use_different_keys(self, tmp_path):
        a = expand_tasks(grid_spec(), seed=3)[0]
        b = expand_tasks(grid_spec(), seed=4)[0]
        assert a.cache_key("SRT") != b.cache_key("SRT")


class TestResume:
    @staticmethod
    def count_executions(monkeypatch):
        computed = []
        real_execute = executor_module.execute_task

        def counting(task):
            computed.append(task)
            return real_execute(task)

        monkeypatch.setattr(executor_module, "execute_task", counting)
        return computed

    def test_second_run_never_recomputes(self, tmp_path, monkeypatch):
        spec = grid_spec()
        first = run_experiment(spec, seed=3, cache_dir=tmp_path)

        def boom(task):
            raise AssertionError("cache should have served every instance")

        monkeypatch.setattr(executor_module, "execute_task", boom)
        second = run_experiment(spec, seed=3, cache_dir=tmp_path)
        assert strip_timing(second.rows) == strip_timing(first.rows)

    def test_extended_sweep_computes_only_new_cells(self, tmp_path, monkeypatch):
        run_experiment(grid_spec(), seed=3, cache_dir=tmp_path)
        cells_before = len(list(tmp_path.glob("*.json")))

        computed = self.count_executions(monkeypatch)
        extended = grid_spec(sweep_values=(1, 2, 3))
        tasks = expand_tasks(extended, seed=3)
        run_tasks(tasks, jobs=1, cache=ResultCache(tmp_path))
        # Only the instances of the new sweep value ran; the rest came from disk.
        assert all(task.sweep_value == 3 for task in computed)
        assert len(computed) == extended.runs
        new_cells = len(computed) * len(extended.algorithms)
        assert len(list(tmp_path.glob("*.json"))) == cells_before + new_cells

    def test_interrupted_run_resumes(self, tmp_path):
        spec = grid_spec()
        tasks = expand_tasks(spec, seed=3)
        cache = ResultCache(tmp_path)
        # Simulate an interrupted sweep: only half the instances completed.
        for task in tasks[: len(tasks) // 2]:
            cache.put(task, execute_task(task))
        result = run_experiment(spec, seed=3, cache_dir=tmp_path)
        assert len(result.rows) == 2 * 2  # every (value, algorithm) cell present
        assert len(list(tmp_path.glob("*.json"))) == len(tasks) * len(spec.algorithms)

    def test_partial_instance_reruns_whole_instance(self, tmp_path, monkeypatch):
        spec = grid_spec()
        run_experiment(spec, seed=3, cache_dir=tmp_path)
        task = expand_tasks(spec, seed=3)[0]
        srt_path = tmp_path / f"{task.cache_key('SRT')}.json"
        all_path = tmp_path / f"{task.cache_key('ALL')}.json"
        all_path.unlink()
        # Mark the surviving cell so a rewrite is visible.
        stale = json.loads(srt_path.read_text())
        stale["result"]["wall_seconds"] = -1.0
        srt_path.write_text(json.dumps(stale))

        computed = self.count_executions(monkeypatch)
        run_experiment(spec, seed=3, cache_dir=tmp_path)
        assert [t.spawn_key for t in computed] == [task.spawn_key]
        assert all_path.exists()
        assert json.loads(srt_path.read_text())["result"]["wall_seconds"] >= 0.0

    def test_cache_ignores_opt_time_limit_for_heuristics(self, tmp_path, monkeypatch):
        run_experiment(grid_spec(opt_time_limit=30.0), seed=3, cache_dir=tmp_path)

        def boom(task):
            raise AssertionError("heuristic cells must not depend on the MILP limit")

        monkeypatch.setattr(executor_module, "execute_task", boom)
        run_experiment(grid_spec(opt_time_limit=99.0), seed=3, cache_dir=tmp_path)
