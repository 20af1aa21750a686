"""Shared fixtures for the test suite.

The fixtures are deliberately tiny graphs whose optimal recovery plans can
be worked out by hand, so tests can assert exact numbers rather than loose
bounds.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.network.demand import DemandGraph
from repro.network.supply import SupplyGraph

#: The benchmark's request lists (``perfbench/workloads.py``).
PERFBENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def line_supply() -> SupplyGraph:
    """A path a - b - c - d - e with capacity 10 on every edge."""
    supply = SupplyGraph()
    nodes = ["a", "b", "c", "d", "e"]
    for index, node in enumerate(nodes):
        supply.add_node(node, pos=(float(index), 0.0))
    for u, v in zip(nodes, nodes[1:]):
        supply.add_edge(u, v, capacity=10.0)
    return supply


@pytest.fixture
def diamond_supply() -> SupplyGraph:
    """Two disjoint s→t paths: s-a-t (capacity 10) and s-b-t (capacity 4)."""
    supply = SupplyGraph()
    for node, pos in (("s", (0, 0)), ("a", (1, 1)), ("b", (1, -1)), ("t", (2, 0))):
        supply.add_node(node, pos=(float(pos[0]), float(pos[1])))
    supply.add_edge("s", "a", capacity=10.0)
    supply.add_edge("a", "t", capacity=10.0)
    supply.add_edge("s", "b", capacity=4.0)
    supply.add_edge("b", "t", capacity=4.0)
    return supply


@pytest.fixture
def grid3_supply() -> SupplyGraph:
    """A 3x3 grid with capacity 10 on every edge."""
    from repro.topologies.grids import grid_topology

    return grid_topology(3, 3, capacity=10.0)


@pytest.fixture
def single_demand() -> DemandGraph:
    """One demand of 5 units between the ends of the line fixture."""
    demand = DemandGraph()
    demand.add("a", "e", 5.0)
    return demand


@pytest.fixture
def diamond_demand() -> DemandGraph:
    """One demand of 12 units between s and t (needs both diamond paths)."""
    demand = DemandGraph()
    demand.add("s", "t", 12.0)
    return demand


@pytest.fixture(scope="session")
def paper_bell_requests():
    """``perfbench``'s ``paper-bell`` list of a workload seed: the 25 Bell
    Canada requests of a 20-second run, every paper algorithm listed."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses resolve their module
    spec.loader.exec_module(workloads)

    def requests(workload_seed: int):
        count = workloads.request_count("paper-bell", 20.0)
        return workloads.in_process_requests("paper-bell", workload_seed, count)

    return requests
