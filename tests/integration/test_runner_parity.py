"""One request, one envelope: the portfolio racer and ``solve`` agree.

``repro.portfolio.solve_two_stage`` is a policy on top of
``RecoveryService.solve`` (its stage 1 is ``solve``'s ``on_heuristics``
callback), so for every request that mixes heuristics with OPT its final
envelope — minus the ``portfolio`` annotation — must equal the plain
``solve`` envelope, solver counters included, and the published stage-1
envelope must carry exactly the final envelope's heuristic runs.

Each side runs on a fresh service; nothing a run reuses outlives its
instance, so the solver counters compare exactly.  Timing fields are
dropped.
"""

import pytest

from repro.api.requests import DemandSpec, DisruptionSpec, RecoveryRequest, TopologySpec
from repro.api.service import RecoveryService
from repro.portfolio import PORTFOLIO_KEY, is_exact, solve_two_stage

TIMING_FIELDS = frozenset({"wall_seconds", "elapsed_seconds", "build_seconds", "solve_seconds"})


def bell_request(algorithms, num_pairs=2, seed=1, disruption=DisruptionSpec("complete")):
    return RecoveryRequest(
        topology=TopologySpec("bell-canada"),
        disruption=disruption,
        demand=DemandSpec("far-apart", num_pairs=num_pairs, flow_per_pair=10.0),
        algorithms=algorithms,
        seed=seed,
    )


REQUESTS = {
    "opt-first": bell_request(("OPT", "ISP", "SRT"), num_pairs=2, seed=1),
    "opt-between": bell_request(("ISP", "OPT", "GRD-COM"), num_pairs=4, seed=3),
    "opt-last": bell_request(("SRT", "GRD-NC", "OPT"), num_pairs=6, seed=7),
    "gaussian": bell_request(
        ("ISP", "OPT"),
        num_pairs=3,
        seed=5,
        disruption=DisruptionSpec("gaussian", kwargs={"variance": 60.0}),
    ),
    "duplicate-name": bell_request(("ISP", "SRT", "isp", "OPT"), num_pairs=2, seed=9),
}


def without_timing(value):
    if isinstance(value, dict):
        return {
            key: without_timing(item) for key, item in value.items() if key not in TIMING_FIELDS
        }
    if isinstance(value, list):
        return [without_timing(item) for item in value]
    return value


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_two_stage_envelope_equals_the_solve_envelope(name):
    request = REQUESTS[name]
    solved = without_timing(RecoveryService().solve(request).to_dict())
    published = []
    staged, info = solve_two_stage(
        RecoveryService(), request, publish=lambda envelope: published.append(envelope) or True
    )

    assert info["staged"] and info["published"]
    final = without_timing(staged)
    assert final.pop(PORTFOLIO_KEY)["stage"] == "exact"
    assert final == solved

    (stage1,) = published
    heuristic_runs = [run for run in final["results"] if not is_exact(run["algorithm"])]
    assert without_timing(stage1["results"]) == heuristic_runs
