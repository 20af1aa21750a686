"""Self-tests of the benchmark's own machinery (no program code is run).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.common import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.layers import LayerTracer  # noqa: E402
from perfbench.probe import PAD_S, REFERENCE_S, speed_factor  # noqa: E402
from perfbench.stats import served_latencies, tail  # noqa: E402


class FakeClock:
    """A clock the code under test advances explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Base:
    def inherited(self):
        return "base"


class Widget(Base):
    def own(self, value):
        return value * 2


def test_wrappers_restore_the_original_functions():
    module = types.ModuleType("fake_layer")

    def leaf(x):
        return x + 1

    module.leaf = leaf
    own, inherited = Widget.__dict__["own"], Base.__dict__["inherited"]
    tracer = LayerTracer()
    with tracer:
        tracer.wrap(module, "leaf", "layer.leaf")
        tracer.wrap(Widget, "own", lambda args: "layer." + type(args[0]).__name__)
        tracer.wrap(Widget, "inherited", "layer.inherited")
        assert module.leaf is not leaf
        assert module.leaf(1) == 2 and Widget().own(3) == 6 and Widget().inherited() == "base"
    assert module.leaf is leaf
    assert Widget.__dict__["own"] is own
    assert "inherited" not in Widget.__dict__ and Base.__dict__["inherited"] is inherited
    assert {name: stat.calls for name, stat in tracer.stats.items()} == {
        "layer.leaf": 1, "layer.Widget": 1, "layer.inherited": 1,
    }


def test_self_time_subtracts_nested_wrappers():
    clock = FakeClock()
    module = types.ModuleType("fake_stack")

    def inner():
        clock.now += 3.0
        return None

    def outer():
        clock.now += 1.0
        module.inner()
        module.inner()
        clock.now += 2.0
        return "plan"

    module.inner, module.outer = inner, outer
    tracer = LayerTracer(clock=clock)
    tracer.wrap(module, "inner", "layer.inner", hit=lambda result: result is not None)
    tracer.wrap(module, "outer", "layer.outer", hit=lambda result: result is not None)
    module.outer()
    tracer.restore()
    outer_stat, inner_stat = tracer.stat("layer.outer"), tracer.stat("layer.inner")
    assert (outer_stat.total_s, outer_stat.self_s) == (9.0, 3.0)
    assert (inner_stat.calls, inner_stat.self_s, inner_stat.hits) == (2, 6.0, 0)
    assert outer_stat.hits == 1
    assert tracer.top_level_s == 9.0


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(225, 95.0, 11), (105, 90.0, 10), (25, 60.0, 10), (20, 50.0, 10), (1000, 99.0, 10)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted input
    result = tail(values)
    assert (result["percentile"], result["beyond"], result["samples"]) == (percentile, beyond, n)
    assert sum(1 for v in values if v > result["value"]) == beyond


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail([1.0] * 19) is None


def test_served_latency_counts_from_the_due_time():
    # the generator stalled: the request went out 0.5 s after it was due
    due, sent, finished = 100.0, 100.5, 100.6
    assert served_latencies({"job": finished}, {"job": due}) == [pytest.approx(finished - due)]
    assert served_latencies({"job": finished}, {"job": due})[0] > finished - sent


def test_speed_factor_uses_the_samples_taken_while_the_interval_ran():
    slow, fast = 2 * REFERENCE_S, REFERENCE_S / 2
    # a slow stretch up to t=10, then a fast one; unix times run 1000 ahead
    samples = [[t, 1000.0 + t, slow if t < 10 else fast] for t in range(0, 20)]
    assert speed_factor(samples, 2.0, 5.0) == pytest.approx(0.5)
    assert speed_factor(samples, 13.0, 15.0) == pytest.approx(2.0)
    assert speed_factor(samples, 1013.0, 1015.0, column=1) == pytest.approx(2.0)
    # a timing of 3 s in the slow stretch reads 1.5 s at the reference speed
    assert 3.0 * speed_factor(samples, 2.0, 5.0) == pytest.approx(1.5)
    with pytest.raises(RuntimeError):
        speed_factor(samples, 30.0 + PAD_S, 31.0)


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_served_schedule_is_fixed_and_repeats_read_old_requests():
    slots = workloads.request_count("served-mix", 20)
    first, second = workloads.served_schedule(slots, 1), workloads.served_schedule(slots, 2)
    assert [s.fresh for s in first] == [s.fresh for s in second]  # same work, any seed
    assert workloads.served_fresh_count(slots) == sum(s.fresh is not None for s in first)
    for slot in first:
        if slot.fresh is None:
            target = first[slot.repeat_of]
            assert target.fresh is not None
            assert slot.due_s - target.due_s >= workloads.SERVED_REPEAT_MIN_AGE_S
