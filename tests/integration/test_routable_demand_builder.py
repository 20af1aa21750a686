"""Contract of the routable far-apart demand builder against the routability LP.

``routable_far_apart_demand`` decides most draws with integer max-flows on
the intact network (``max_flow_verdict``) and only the undecided ones with
the routability LP.  On a fixed grid of draws the max-flow verdict must
equal the LP's whenever it gives one, and the builder must return what the
LP-only loop below returns.
"""

from collections import Counter

import numpy as np

from repro.evaluation.demand_builder import (
    _draw_far_apart,
    _eligible_far_pairs,
    _intact_verdict,
    routable_far_apart_demand,
)
from repro.flows.routability import is_routable
from repro.network.index import ArcLayout, max_flow_verdict
from repro.topologies.bellcanada import bell_canada
from repro.topologies.caida_like import caida_like
from repro.utils.rng import ensure_rng

#: (name, supply, pair counts, units per pair, draws per configuration):
#: seeded CAIDA-like maps at the quick Figure 9 size and Bell Canada.
GRID = [
    *(
        (f"caida-like-{seed}", caida_like(200, 246, seed=seed), (1, 2, 3, 4), (22.0, 60.0), 10)
        for seed in (1, 2, 3)
    ),
    ("bell-canada", bell_canada(), (1, 3, 4, 7), (10.0, 14.0, 18.0, 30.0), 20),
]


def reference_builder(supply, num_pairs, flow_per_pair, seed, attempts):
    """The LP-only builder: ``(demand, draws made)``."""
    rng = ensure_rng(seed)
    eligible = _eligible_far_pairs(supply, 0.5)
    graph = supply.full_graph(use_residual=False)
    for draws in range(1, max(1, attempts) + 1):
        demand = _draw_far_apart(eligible, num_pairs, flow_per_pair, rng, True)
        if is_routable(graph, demand):
            break
    return demand, draws


def test_max_flow_verdicts_equal_the_lp_on_the_grid():
    outcomes = Counter()
    for name, supply, pair_counts, units, draws in GRID:
        eligible = _eligible_far_pairs(supply, 0.5)
        verdict = _intact_verdict(supply)
        graph = supply.full_graph(use_residual=False)
        for num_pairs in pair_counts:
            for flow_per_pair in units:
                rng = ensure_rng(1000 * num_pairs + int(flow_per_pair))
                for _ in range(draws):
                    demand = _draw_far_apart(eligible, num_pairs, flow_per_pair, rng, True)
                    decided = verdict(demand)
                    outcomes[decided] += 1
                    if decided is not None:
                        assert decided == is_routable(graph, demand), (name, demand.as_dict())
    assert set(outcomes) == {True, False, None}, outcomes


def test_builder_returns_the_lp_only_draw():
    caida, bell = GRID[0][1], GRID[3][1]
    cases = [
        (caida, 2, 22.0, 25),
        (caida, 4, 22.0, 25),
        (caida, 3, 60.0, 3),
        (bell, 1, 10.0, 25),
        (bell, 4, 18.0, 25),
        (bell, 7, 14.0, 5),
    ]
    ends = Counter()
    for supply, num_pairs, flow_per_pair, attempts in cases:
        for seed in range(6):
            expected, draws = reference_builder(supply, num_pairs, flow_per_pair, seed, attempts)
            actual = routable_far_apart_demand(
                supply, num_pairs, flow_per_pair, seed=seed, attempts=attempts
            )
            assert actual.as_dict() == expected.as_dict(), (num_pairs, flow_per_pair, seed)
            ends["first" if draws == 1 else "retried" if draws < attempts else "exhausted"] += 1
    assert set(ends) == {"first", "retried", "exhausted"}, ends


def test_verdicts_on_a_cycle():
    # the 4-cycle 0-1-2-3-0 with capacity 3: two paths join 0 and 2
    arcs = ArcLayout(4, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0]))
    capacity = np.full(4, 3.0)
    assert max_flow_verdict(arcs, capacity, [(0, 2, 6.0)]) is True
    assert max_flow_verdict(arcs, capacity, [(0, 2, 7.0)]) is False
    assert max_flow_verdict(arcs, capacity, [(0, 1, 3.0), (2, 3, 3.0)]) is True
    # each pair fits alone, so max-flows cannot tell (the LP says no:
    # 8 units cross the cut {0, 1} of capacity 6)
    assert max_flow_verdict(arcs, capacity, [(0, 2, 4.0), (1, 3, 4.0)]) is None
    # non-integral demand, and capacities beyond the int32 guard
    assert max_flow_verdict(arcs, capacity, [(0, 2, 5.5)]) is None
    assert max_flow_verdict(arcs, np.full(4, 2.0**30), [(0, 2, 1.0)]) is None
