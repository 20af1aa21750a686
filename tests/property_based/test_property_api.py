"""Property tests: the api schema round-trips losslessly through JSON."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.requests import (
    AssessmentRequest,
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
    request_from_dict,
)
from repro.api.results import (
    AlgorithmRun,
    RecoveryResult,
    jsonify_plan,
    plan_from_payload,
    plan_payload,
)
from repro.heuristics.registry import available_algorithms
from repro.network.plan import RecoveryPlan

# ---------------------------------------------------------------------- #
# Request strategies
# ---------------------------------------------------------------------- #

scalars = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(min_size=0, max_size=12),
    st.booleans(),
    st.none(),
)


def _kwargs_strategy(required, optional):
    """Kwargs that always name ``required`` and may name ``optional``;
    values stay arbitrary scalars — only names are validated."""
    return st.fixed_dictionaries(
        {name: scalars for name in required},
        optional={name: scalars for name in optional},
    )


# Topology and demand kwargs are bound eagerly to the builder's signature,
# so each builder draws from its own parameter-name pool and always draws
# the names it requires.
_TOPOLOGY_KWARGS = {
    "bell-canada": ((), ("primary_capacity", "access_capacity", "node_repair_cost")),
    "grid": (("rows", "cols"), ("capacity", "edge_repair_cost")),
    "ring": (("num_nodes",), ("capacity",)),
    "star": (("num_leaves",), ("capacity",)),
    "erdos-renyi": ((), ("num_nodes", "edge_probability", "seed", "ensure_connected")),
    "caida-like": ((), ("num_nodes", "num_edges", "seed")),
}

topology_specs = st.sampled_from(sorted(_TOPOLOGY_KWARGS)).flatmap(
    lambda name: st.builds(
        TopologySpec, name=st.just(name), kwargs=_kwargs_strategy(*_TOPOLOGY_KWARGS[name])
    )
)

_DEMAND_KWARGS = {
    "routable-far-apart": ("min_fraction_of_diameter", "attempts"),
    "far-apart": ("min_fraction_of_diameter", "distinct_endpoints"),
    "random": (),
    "explicit": ("pairs",),
}

# Disruption kwargs are bound eagerly to the model's signature, so each kind
# draws from its own (possibly empty) parameter-name pool and always draws
# the names its model requires; values stay arbitrary scalars — only names
# are validated.
_REQUIRED_DISRUPTION_KWARGS = {"gaussian": ("variance",), "multi-gaussian": ("variance",)}
_DISRUPTION_KWARG_NAMES = {
    "complete": (),
    "none": (),
    "gaussian": ("variance", "intensity"),
    "random": ("node_probability", "edge_probability"),
    "cascading": ("num_triggers", "propagation_factor", "tolerance", "max_rounds"),
    "multi-gaussian": ("variance", "num_epicenters", "intensity"),
    "targeted": ("node_budget", "edge_budget", "metric", "adaptive"),
}


def _disruption_spec_strategy(kind):
    required = _REQUIRED_DISRUPTION_KWARGS.get(kind, ())
    optional = [name for name in _DISRUPTION_KWARG_NAMES[kind] if name not in required]
    return st.builds(
        DisruptionSpec, kind=st.just(kind), kwargs=_kwargs_strategy(required, optional)
    )


disruption_specs = st.sampled_from(sorted(_DISRUPTION_KWARG_NAMES)).flatmap(
    _disruption_spec_strategy
)

demand_specs = st.sampled_from(sorted(_DEMAND_KWARGS)).flatmap(
    lambda builder: st.builds(
        DemandSpec,
        builder=st.just(builder),
        num_pairs=st.integers(min_value=1, max_value=16),
        flow_per_pair=st.floats(min_value=0.25, max_value=100.0, allow_nan=False, width=32),
        kwargs=_kwargs_strategy((), _DEMAND_KWARGS[builder]),
    )
)

algorithm_lists = st.lists(
    st.sampled_from(available_algorithms()), min_size=1, max_size=4, unique=True
).map(tuple)

# Algorithm kwargs are bound eagerly to the solver (ISP: the ISPConfig
# fields), so each algorithm draws from its own option pool; values stay
# arbitrary scalars except the choice-valued options (ISP's metric and
# split_amount_mode).
_PATH_OPTIONS = {"max_paths_per_pair": scalars}
_ALGORITHM_OPTIONS = {
    "ISP": {
        "length_const": scalars,
        "metric": st.sampled_from(["dynamic", "hop"]),
        "require_bubble": scalars,
        "split_amount_mode": st.sampled_from(["lp", "bottleneck", "auto"]),
        "max_iterations": scalars,
    },
    "OPT": {
        "time_limit": scalars,
        "mip_rel_gap": scalars,
    },
    "SRT": _PATH_OPTIONS,
    "GRD-COM": _PATH_OPTIONS,
    "GRD-NC": _PATH_OPTIONS,
}

algorithm_kwargs_maps = st.lists(
    st.sampled_from(available_algorithms()), max_size=2, unique=True
).flatmap(
    lambda names: st.fixed_dictionaries(
        {
            name: st.fixed_dictionaries({}, optional=_ALGORITHM_OPTIONS.get(name, {}))
            for name in names
        }
    )
)

recovery_requests = st.builds(
    RecoveryRequest,
    topology=topology_specs,
    disruption=disruption_specs,
    demand=demand_specs,
    algorithms=algorithm_lists,
    algorithm_kwargs=algorithm_kwargs_maps,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    opt_time_limit=st.one_of(
        st.none(), st.floats(min_value=0.1, max_value=3600.0, allow_nan=False)
    ),
)

assessment_requests = st.builds(
    AssessmentRequest,
    topology=topology_specs,
    disruption=disruption_specs,
    demand=demand_specs,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)


@settings(max_examples=60, deadline=None)
@given(request=recovery_requests)
def test_recovery_request_round_trips_losslessly(request):
    payload = json.loads(json.dumps(request.to_dict()))
    assert RecoveryRequest.from_dict(payload) == request
    assert request_from_dict(payload) == request


@settings(max_examples=60, deadline=None)
@given(request=recovery_requests)
def test_recovery_request_digest_is_stable(request):
    clone = RecoveryRequest.from_dict(json.loads(json.dumps(request.to_dict())))
    assert clone.digest() == request.digest()


@settings(max_examples=40, deadline=None)
@given(request=assessment_requests)
def test_assessment_request_round_trips_losslessly(request):
    payload = json.loads(json.dumps(request.to_dict()))
    assert AssessmentRequest.from_dict(payload) == request
    assert request_from_dict(payload) == request


# ---------------------------------------------------------------------- #
# Result strategies
# ---------------------------------------------------------------------- #

node_ids = st.one_of(
    st.integers(min_value=0, max_value=50),
    st.text(alphabet="abcdefgh", min_size=1, max_size=6),
    st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)),
)


@st.composite
def recovery_plans(draw):
    plan = RecoveryPlan(algorithm=draw(st.sampled_from(available_algorithms())))
    for node in draw(st.lists(node_ids, max_size=6, unique=True)):
        plan.add_node_repair(node)
    for u, v in draw(
        st.lists(st.tuples(node_ids, node_ids), max_size=6, unique=True)
    ):
        if u != v:
            plan.add_edge_repair(u, v)
    plan.iterations = draw(st.integers(min_value=0, max_value=100))
    # OPT's optional plan metadata, each field present or absent
    for key, values in (
        ("status", st.sampled_from(["optimal", "feasible", "infeasible", "error"])),
        ("bound", st.floats(min_value=0, max_value=1e6, allow_nan=False, width=32)),
        ("mip_gap", st.floats(min_value=0, max_value=1, allow_nan=False, width=32)),
        ("strategy", st.sampled_from(["decomposed", "monolithic", "auto"])),
        ("seeded", st.booleans()),
    ):
        if draw(st.booleans()):
            plan.metadata[key] = draw(values)
    return plan


metric_dicts = st.fixed_dictionaries(
    {
        "node_repairs": st.integers(min_value=0, max_value=50).map(float),
        "edge_repairs": st.integers(min_value=0, max_value=50).map(float),
        "total_repairs": st.integers(min_value=0, max_value=100).map(float),
        "repair_cost": st.floats(min_value=0, max_value=1000, allow_nan=False, width=32),
        "satisfied_pct": st.floats(min_value=0, max_value=100, allow_nan=False, width=32),
        "elapsed_seconds": st.floats(min_value=0, max_value=60, allow_nan=False, width=32),
    }
)

solver_dicts = st.dictionaries(
    st.sampled_from(
        ["lp_solves", "milp_solves", "solve_seconds", "structure_hits", "warm_start_hits"]
    ),
    st.floats(min_value=0, max_value=1e6, allow_nan=False, width=32),
    max_size=5,
)


@st.composite
def algorithm_runs(draw):
    plan = draw(recovery_plans())
    return AlgorithmRun(
        algorithm=plan.algorithm,
        metrics=draw(metric_dicts),
        plan=plan_payload(plan),
        solver=draw(solver_dicts),
        cached=draw(st.booleans()),
    )


recovery_results = st.builds(
    RecoveryResult,
    request=st.builds(lambda r: r.to_dict(), recovery_requests),
    results=st.lists(algorithm_runs(), max_size=3),
    broken_elements=st.integers(min_value=0, max_value=500),
    wall_seconds=st.floats(min_value=0, max_value=600, allow_nan=False, width=32),
)


@settings(max_examples=60, deadline=None)
@given(result=recovery_results)
def test_recovery_result_round_trips_losslessly(result):
    payload = json.loads(json.dumps(result.to_dict()))
    assert RecoveryResult.from_dict(payload) == result


@settings(max_examples=30, deadline=None)
@given(plan=recovery_plans())
def test_plan_payload_reconstruction_preserves_repairs(plan):
    payload = json.loads(json.dumps(jsonify_plan(plan_payload(plan))))
    rebuilt = plan_from_payload(payload, algorithm=plan.algorithm)
    assert set(rebuilt.repaired_nodes) == set(plan.repaired_nodes)
    assert set(rebuilt.repaired_edges) == set(plan.repaired_edges)
    assert rebuilt.iterations == plan.iterations
    # every OPT field set on the plan survives; ``seeded`` is written only when true
    assert rebuilt.metadata == {
        key: value for key, value in plan.metadata.items() if value is not False
    }
