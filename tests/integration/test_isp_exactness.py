"""Exactness contract of ISP: plans are pinned to a recording.

Every ISP decision — which element to repair, in which iteration, how much
demand to split or prune and over which routes — is compared with
``isp_exactness.json``.  The recording covers the quick Figure 4/5/6 Bell
Canada sweeps, quick Figure 7 (Erdős–Rényi), quick Figure 9 (200-node
CAIDA-like, seed 31), the ablation configurations (hop metric, pruning
without bubbles, bottleneck split amounts), an iteration cap that forces
the shortest-path fallback, fractional demands that leave fractional
residual capacities, and 20 requests of the load-test scenario space.  A
change to ISP's graph machinery must leave every fingerprint identical; a
deliberate change of ISP's outputs re-records the file with::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/integration/test_isp_exactness.py

The recording is taken with one fixed hash seed because Bell Canada's node
names are strings: the iteration order of networkx subgraph views, and so
the order of prune routes, follows string hashes.  Repairs and counts do not
depend on it.  Routes on topologies with string node names are compared
only when the process runs with the recorded hash seed; routes on the
others are always compared.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np
import pytest

from repro.api.service import RecoveryService
from repro.core.isp import ISPConfig
from repro.engine.registry import get_spec
from repro.engine.spec import build_instance
from repro.engine.tasks import expand_tasks
from repro.evaluation.demand_builder import far_apart_demand
from repro.failures.complete import CompleteDestruction
from repro.heuristics.base import RecoveryAlgorithm
from repro.heuristics.registry import get_algorithm
from repro.network.plan import RecoveryPlan
from repro.scenarios import ScenarioGenerator
from repro.server.loadtest import TINY_SPACE
from repro.topologies.bellcanada import bell_canada

RECORDING = Path(__file__).with_name("isp_exactness.json")

#: The hash seed the recording was taken under (see the module docstring).
RECORDED_HASH_SEED = "0"


def _figure_specs():
    """(name, spec, root seed) of the quick figure sweeps, ISP only."""

    def scaled(spec_name, seed, values, runs, demand=None, topology=None):
        base = get_spec(spec_name)
        changes = dict(sweep_values=values, algorithms=("ISP",), runs=runs)
        if demand:
            changes["demand"] = dataclasses.replace(base.demand, **demand)
        if topology:
            changes["topology"] = dataclasses.replace(
                base.topology, kwargs={**dict(base.topology.kwargs), **topology}
            )
        return base.replace(**changes), seed

    yield ("fig4",) + scaled("bellcanada-demand-pairs", 11, (1, 3, 5), 1,
                             demand={"flow_per_pair": 10.0})
    yield ("fig5",) + scaled("bellcanada-demand-intensity", 13, (2, 10, 18), 1,
                             demand={"num_pairs": 4})
    yield ("fig6",) + scaled("bellcanada-disruption-extent", 17, (10, 80, 160), 2,
                             demand={"num_pairs": 4, "flow_per_pair": 10.0})
    yield ("fig7",) + scaled("erdos-renyi-scalability", 19, (0.08, 0.25), 1,
                             demand={"num_pairs": 5, "flow_per_pair": 1.0},
                             topology={"num_nodes": 40, "capacity": 1000.0})
    yield ("fig9",) + scaled("caida-demand-pairs", 31, (2, 4), 1,
                             demand={"flow_per_pair": 22.0},
                             topology={"num_nodes": 200, "num_edges": 246})


#: The ablation benches' ISP variants, plus an iteration cap that forces
#: the shortest-path fallback.
ABLATIONS = {
    "hop": ISPConfig(metric="hop"),
    "no-bubble": ISPConfig(require_bubble=False),
    "bottleneck-dx": ISPConfig(split_amount_mode="bottleneck"),
    "capped": ISPConfig(max_iterations=4),
}


def _cases() -> Iterator[Tuple[str, object, object, RecoveryAlgorithm]]:
    """(name, supply, demand, ISP algorithm) of every recorded ISP run."""
    for figure, spec, seed in _figure_specs():
        for task in expand_tasks(spec, seed=seed):
            rng = np.random.default_rng(task.seed_sequence())
            supply, demand = build_instance(spec, task.sweep_value, rng)
            name = f"{figure}/{task.sweep_value}/{task.run_index}"
            yield name, supply, demand, spec.resolve_algorithm("ISP")
    for seed in (31, 37):
        supply = bell_canada()
        CompleteDestruction().apply(supply)
        demand = far_apart_demand(supply, 4, 10.0, seed=seed)
        for variant, config in ABLATIONS.items():
            yield f"ablation-{variant}/{seed}", supply, demand, get_algorithm("ISP", config=config)
        # fractional demands leave fractional residuals: the networkx max-flow fallback
        demand = far_apart_demand(supply, 4, 7.3, seed=seed)
        yield f"fractional/{seed}", supply, demand, get_algorithm("ISP")
    service = RecoveryService()
    for number, request in enumerate(ScenarioGenerator(space=TINY_SPACE, seed=42).requests(20)):
        supply, demand, _ = service.build_instance(request)
        yield f"tiny/{number:02d}", supply, demand, get_algorithm("ISP")


def fingerprint(plan: RecoveryPlan) -> Dict[str, object]:
    """Everything ISP decided, in a JSON-stable form."""
    routes = [[repr(r.pair), [repr(node) for node in r.path], r.flow] for r in plan.routes]
    return {
        "repaired_nodes": sorted(repr(node) for node in plan.repaired_nodes),
        "repaired_edges": sorted(repr(edge) for edge in plan.repaired_edges),
        "iterations": plan.iterations,
        "splits": plan.metadata["splits"],
        "prunes": plan.metadata["prunes"],
        "direct_edge_repairs": plan.metadata["direct_edge_repairs"],
        "fallback_used": plan.metadata["fallback_used"],
        "routes_sha256": hashlib.sha256(json.dumps(routes).encode()).hexdigest(),
    }


@lru_cache(maxsize=None)
def _current() -> Dict[str, Tuple[Dict[str, object], bool]]:
    """Every case's fingerprint, and whether its routes follow string hashes."""
    return {
        name: (
            fingerprint(algorithm.solve(supply, demand)),
            any(isinstance(node, str) for node in supply.nodes),
        )
        for name, supply, demand, algorithm in _cases()
    }


def _recorded() -> Dict[str, Dict[str, object]]:
    return json.loads(RECORDING.read_text())


def test_every_case_is_recorded():
    assert sorted(_current()) == sorted(_recorded())


@pytest.mark.parametrize("name", sorted(_recorded()) if RECORDING.exists() else [])
def test_isp_plan_matches_recording(name):
    expected = dict(_recorded()[name])
    current, hashed = _current()[name]
    actual = dict(current)
    if hashed and os.environ.get("PYTHONHASHSEED") != RECORDED_HASH_SEED:
        expected.pop("routes_sha256")
        actual.pop("routes_sha256")
    assert actual == expected


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != RECORDED_HASH_SEED:
        sys.exit(f"record with PYTHONHASHSEED={RECORDED_HASH_SEED}")
    recording = {name: current for name, (current, _) in _current().items()}
    RECORDING.write_text(json.dumps(recording, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(_current())} ISP runs in {RECORDING}")
