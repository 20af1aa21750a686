"""Registry of named experiment specs (the paper's figures, and yours).

The paper's six sweep experiments ship as built-ins so the CLI can run any
of them by name (``repro.cli sweep figure4``); users register additional
specs with :func:`register_spec` and the whole engine — parallel execution,
caching, reporting — applies to them unchanged.  Adding a sweep is a ~10
line spec, not a new imperative driver.
"""

from __future__ import annotations

from typing import Dict, List

from repro.api.requests import DemandSpec, DisruptionSpec, TopologySpec
from repro.engine.spec import ExperimentSpec, SweepAxis

_SPECS: Dict[str, ExperimentSpec] = {}

#: Short aliases so the CLI accepts the figure number as well as the name.
_ALIASES: Dict[str, str] = {}


def register_spec(spec: ExperimentSpec, overwrite: bool = False, alias: str = "") -> None:
    """Register ``spec`` under its name (and an optional short alias)."""
    if spec.name in _SPECS and not overwrite:
        raise ValueError(f"experiment spec {spec.name!r} is already registered")
    _SPECS[spec.name] = spec
    if alias:
        _ALIASES[alias] = spec.name


def available_specs() -> List[str]:
    """Names of all registered specs, in registration (figure) order."""
    return list(_SPECS)


def get_spec(name: str) -> ExperimentSpec:
    """Return the spec registered under ``name`` (or a registered alias).

    Raises
    ------
    KeyError
        If the name is unknown; the message lists valid names.
    """
    key = _ALIASES.get(name, name)
    if key not in _SPECS:
        known = ", ".join(list(_SPECS) + sorted(_ALIASES))
        raise KeyError(f"unknown experiment spec {name!r}; available: {known}")
    return _SPECS[key]


# --------------------------------------------------------------------- #
# The paper's sweep experiments (Section VII), registered as defaults.
# Figure 8 is a topology report, not a sweep; its bench
# (benchmarks/test_fig8_topology_stats.py) computes it directly.
# --------------------------------------------------------------------- #

register_spec(
    ExperimentSpec(
        name="multicommodity-extremes",
        figure="Figure 3",
        topology=TopologySpec("bell-canada"),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec("routable-far-apart", num_pairs=4, flow_per_pair=10.0),
        sweep=SweepAxis(
            parameter="demand_per_pair",
            values=(2, 6, 10, 14, 18),
            target="demand.flow_per_pair",
        ),
        algorithms=("OPT", "MCW", "MCB", "ALL"),
        runs=1,
        opt_time_limit=60.0,
        description="Total repairs of the multi-commodity relaxation extremes",
    ),
    alias="figure3",
)

register_spec(
    ExperimentSpec(
        name="bellcanada-demand-pairs",
        figure="Figure 4",
        topology=TopologySpec("bell-canada"),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec("routable-far-apart", num_pairs=4, flow_per_pair=10.0),
        sweep=SweepAxis(
            parameter="num_pairs",
            values=(1, 2, 3, 4, 5, 6, 7),
            target="demand.num_pairs",
        ),
        algorithms=("ISP", "OPT", "SRT", "GRD-COM", "GRD-NC", "ALL"),
        runs=1,
        opt_time_limit=120.0,
        description="Repairs and satisfied demand vs number of demand pairs",
    ),
    alias="figure4",
)

register_spec(
    ExperimentSpec(
        name="bellcanada-demand-intensity",
        figure="Figure 5",
        topology=TopologySpec("bell-canada"),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec("routable-far-apart", num_pairs=4, flow_per_pair=10.0),
        sweep=SweepAxis(
            parameter="demand_per_pair",
            values=(2, 4, 6, 8, 10, 12, 14, 16, 18),
            target="demand.flow_per_pair",
        ),
        algorithms=("ISP", "OPT", "SRT", "GRD-COM", "GRD-NC", "ALL"),
        runs=1,
        opt_time_limit=120.0,
        description="Repairs and satisfied demand vs demand intensity",
    ),
    alias="figure5",
)

register_spec(
    ExperimentSpec(
        name="bellcanada-disruption-extent",
        figure="Figure 6",
        topology=TopologySpec("bell-canada"),
        disruption=DisruptionSpec("gaussian", kwargs={"variance": 60.0}),
        demand=DemandSpec("routable-far-apart", num_pairs=4, flow_per_pair=10.0),
        sweep=SweepAxis(
            parameter="variance",
            values=(10, 40, 80, 120, 160),
            target="disruption.variance",
        ),
        algorithms=("ISP", "OPT", "SRT", "GRD-COM", "GRD-NC", "ALL"),
        runs=2,
        opt_time_limit=120.0,
        description="Repairs and satisfied demand vs geographic disruption extent",
    ),
    alias="figure6",
)

register_spec(
    ExperimentSpec(
        name="erdos-renyi-scalability",
        figure="Figure 7",
        topology=TopologySpec(
            "erdos-renyi",
            kwargs={"num_nodes": 100, "edge_probability": 0.1, "capacity": 1000.0},
        ),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec(
            "far-apart",
            num_pairs=5,
            flow_per_pair=1.0,
            kwargs={"min_fraction_of_diameter": 0.5},
        ),
        sweep=SweepAxis(
            parameter="edge_probability",
            values=(0.05, 0.1, 0.3, 0.6, 0.9),
            target="topology.edge_probability",
        ),
        algorithms=("ISP", "SRT", "OPT"),
        runs=1,
        opt_time_limit=60.0,
        description="Execution time and repairs vs Erdős–Rényi edge probability",
    ),
    alias="figure7",
)

register_spec(
    ExperimentSpec(
        name="caida-demand-pairs",
        figure="Figure 9",
        topology=TopologySpec("caida-like", kwargs={"num_nodes": 825, "num_edges": 1018}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec("routable-far-apart", num_pairs=4, flow_per_pair=22.0),
        sweep=SweepAxis(
            parameter="num_pairs",
            values=(1, 2, 3, 4, 5, 6, 7),
            target="demand.num_pairs",
        ),
        algorithms=("ISP", "OPT", "SRT"),
        runs=1,
        opt_time_limit=300.0,
        description="Repairs and satisfied demand on the large CAIDA-like topology",
    ),
    alias="figure9",
)


# --------------------------------------------------------------------- #
# Scenario-zoo sweeps beyond the paper (zoo topologies x compound
# failures); "attack" and "cascade" are their CLI aliases.
# --------------------------------------------------------------------- #

register_spec(
    ExperimentSpec(
        name="scalefree-targeted-attack",
        figure="Zoo A",
        topology=TopologySpec(
            "barabasi-albert", kwargs={"num_nodes": 40, "attachment": 2, "capacity": 40.0}
        ),
        disruption=DisruptionSpec("targeted", kwargs={"metric": "degree", "node_budget": 2}),
        demand=DemandSpec("routable-far-apart", num_pairs=3, flow_per_pair=5.0),
        sweep=SweepAxis(
            parameter="node_budget",
            values=(2, 4, 6, 8),
            target="disruption.node_budget",
        ),
        algorithms=("ISP", "SRT", "ALL"),
        runs=3,
        description="Recovery effort vs degree-targeted attack budget on a scale-free graph",
    ),
    alias="attack",
)

register_spec(
    ExperimentSpec(
        name="fattree-cascade",
        figure="Zoo B",
        topology=TopologySpec(
            "fat-tree", kwargs={"pods": 4, "access_capacity": 10.0, "core_capacity": 20.0}
        ),
        disruption=DisruptionSpec(
            "cascading", kwargs={"num_triggers": 1, "trigger": "degree", "tolerance": 0.2}
        ),
        demand=DemandSpec("routable-far-apart", num_pairs=3, flow_per_pair=4.0),
        sweep=SweepAxis(
            parameter="propagation_factor",
            values=(0.5, 1.0, 1.5, 2.0),
            target="disruption.propagation_factor",
        ),
        algorithms=("ISP", "SRT", "ALL"),
        runs=3,
        description="Recovery effort vs cascade propagation factor on a fat-tree fabric",
    ),
    alias="cascade",
)
