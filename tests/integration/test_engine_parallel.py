"""Parallel-vs-serial determinism of the experiment engine.

The engine's core guarantee: the same spec and root seed yield identical
metric rows whatever the ``jobs`` value, because every instance derives its
random stream from its own ``SeedSequence`` spawn key rather than from a
shared generator whose state depends on execution order.  Timing columns
(``elapsed_seconds``, the ``solver_*_seconds`` effort telemetry) are
measured wall clock, and the solver structure-cache hit/miss counters
depend on worker-process reuse; those environmental columns are the
legitimate differences, so comparisons strip them.  Solver *solve counts*
are deterministic and stay in the comparison.
"""

import pytest

from repro.api.requests import DemandSpec, DisruptionSpec, TopologySpec
from repro.api.service import RecoveryService
from repro.engine.experiment import run_experiment
from repro.engine.spec import ExperimentSpec, SweepAxis

#: Row keys that legitimately differ between runs of the same cells: the
#: wall-clock measurements.  Every count depends on the cell alone.
ENVIRONMENTAL_KEYS = frozenset(
    {
        "elapsed_seconds",
        "solver_build_seconds",
        "solver_solve_seconds",
    }
)


def strip_timing(rows):
    return [
        {key: value for key, value in row.items() if key not in ENVIRONMENTAL_KEYS}
        for row in rows
    ]


def stochastic_spec():
    """A spec whose every stage is random: topology, disruption and demand."""
    return ExperimentSpec(
        name="parallel-erdos",
        figure="Integration",
        topology=TopologySpec(
            "erdos-renyi",
            kwargs={"num_nodes": 20, "edge_probability": 0.25, "capacity": 100.0},
        ),
        disruption=DisruptionSpec("random", kwargs={"node_probability": 0.4, "edge_probability": 0.4}),
        demand=DemandSpec("random", num_pairs=2, flow_per_pair=1.0),
        sweep=SweepAxis(parameter="num_pairs", values=(1, 2, 3), target="demand.num_pairs"),
        algorithms=("SRT", "GRD-NC", "ALL"),
        runs=2,
    )


class TestParallelDeterminism:
    def test_jobs1_and_jobs4_produce_identical_rows(self):
        spec = stochastic_spec()
        serial = run_experiment(spec, seed=123, jobs=1)
        parallel = run_experiment(spec, seed=123, jobs=4)
        assert strip_timing(serial.rows) == strip_timing(parallel.rows)

    def test_scenario_function_parallel_matches_serial(self):
        kwargs = dict(sweep_values=(1, 2), runs=2, seed=11, algorithms=("SRT", "ALL"))
        serial = RecoveryService().sweep("figure4", jobs=1, **kwargs)
        parallel = RecoveryService().sweep("figure4", jobs=4, **kwargs)
        assert strip_timing(serial.rows) == strip_timing(parallel.rows)

    def test_different_seeds_differ(self):
        spec = stochastic_spec()
        a = run_experiment(spec, seed=123, jobs=1)
        b = run_experiment(spec, seed=124, jobs=1)
        assert strip_timing(a.rows) != strip_timing(b.rows)

    def test_row_order_is_sweep_then_algorithm(self):
        spec = stochastic_spec()
        result = run_experiment(spec, seed=5, jobs=4)
        expected = [
            (value, algorithm)
            for value in spec.sweep.values
            for algorithm in spec.algorithms
        ]
        assert [(row["num_pairs"], row["algorithm"]) for row in result.rows] == expected

    def test_parallel_run_with_cache_round_trip(self, tmp_path):
        spec = stochastic_spec()
        first = run_experiment(spec, seed=9, jobs=4, cache_dir=tmp_path)
        again = run_experiment(spec, seed=9, jobs=4, cache_dir=tmp_path)
        assert strip_timing(first.rows) == strip_timing(again.rows)
        # Cache holds one entry per task cell.
        cells = len(spec.sweep.values) * spec.runs * len(spec.algorithms)
        assert len(list(tmp_path.glob("*.json"))) == cells

    def test_wall_clock_is_recorded(self):
        spec = stochastic_spec()
        from repro.engine.tasks import execute_task, expand_tasks

        cells = execute_task(expand_tasks(spec, seed=1)[0])
        assert [cell.algorithm for cell in cells] == list(spec.algorithms)
        assert all(cell.wall_seconds > 0 for cell in cells)


class TestFailurePropagation:
    def failing_spec(self):
        # 50 far-apart pairs cannot exist on a 2x2 grid, so the second sweep
        # value raises inside the worker while the first succeeds.
        return ExperimentSpec(
            name="failing-grid",
            figure="Integration",
            topology=TopologySpec("grid", kwargs={"rows": 2, "cols": 2, "capacity": 10.0}),
            disruption=DisruptionSpec("complete"),
            demand=DemandSpec("far-apart", num_pairs=1, flow_per_pair=1.0),
            sweep=SweepAxis(parameter="num_pairs", values=(1, 50), target="demand.num_pairs"),
            algorithms=("SRT",),
            runs=1,
        )

    def test_parallel_failure_raises_and_keeps_completed_cells(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment(self.failing_spec(), seed=1, jobs=2, cache_dir=tmp_path)
        # The successful cell still reached the cache, so a resume after
        # fixing the spec recomputes only what actually failed.
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_serial_failure_raises_and_keeps_completed_cells(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment(self.failing_spec(), seed=1, jobs=1, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 1
