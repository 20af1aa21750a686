"""The benchmark's fixed, seeded request lists.

A list depends only on the workload name, the workload seed and its
length; the length is a fixed function of ``--seconds`` (calibrated when
the benchmark was created, never measured at run time), so two runs with
the same arguments do identical work.  Request seeds are distinct within a
list and never equal the fixed warm-up request's seed, so no request
repeats inside a run.

The ``--seed`` argument does not change what is solved: it sets the order
in which an in-process list is issued and, on ``served-mix``, the arrival
jitter and which finished request each repeat submission reads back.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("isp-caida", "paper-bell", "served-mix")

#: Request seed of every warm-up request; list seeds start at 1.
WARMUP_SEED = 0

#: Mean wall seconds per request, measured when the benchmark was created
#: (2-core x86-64 container, Python 3.11, scipy 1.17, networkx 3.6).  Only
#: used to turn ``--seconds`` into a fixed request count.
SECONDS_PER_REQUEST = {"isp-caida": 2.0, "paper-bell": 0.8}

#: served-mix offered load: submissions per second, open loop.  With the
#: daemon and its worker on one core this keeps the worker busy 25-40% of
#: the time, so the median fresh job finds an empty queue.
SERVED_RATE = 12.0
#: Every fourth submission repeats a finished request ...
SERVED_REPEAT_EVERY = 4
#: ... due at least this many seconds earlier (so it finished >= 2 s earlier).
SERVED_REPEAT_MIN_AGE_S = 4.0

CAIDA = ("caida-like", {"num_nodes": 825, "num_edges": 1018})
BELL = ("bell-canada", {})
PAPER_ALGORITHMS = ("ISP", "OPT", "SRT", "GRD-COM", "GRD-NC", "ALL")
OPT_TIME_LIMIT = 120.0


def _caida_configs() -> List[Tuple[str, Dict, int, float]]:
    """Figure 9 at up to 3 pairs of 22 units: complete destruction at 1-3
    pairs, plus a Gaussian disruption (variance 30) at 2 pairs.

    Figure 9's 4-pair requests are left out: one Gaussian 4-pair request
    took 12-15 s, 40% of a run for one latency sample.
    """
    complete = [("complete", {}, pairs, 22.0) for pairs in (1, 2, 3)]
    gaussian = [("gaussian", {"variance": 30.0}, 2, 22.0)]
    return complete + gaussian


def _bell_configs() -> List[Tuple[str, Dict, int, float]]:
    """Figures 4-6 on Bell Canada."""
    figure4 = [("complete", {}, pairs, 10.0) for pairs in range(1, 8)]
    figure5 = [("complete", {}, 4, float(flow)) for flow in range(2, 19, 2)]
    figure6 = [("gaussian", {"variance": float(v)}, 4, 10.0) for v in (10, 40, 80, 120, 160)]
    return figure4 + figure5 + figure6


def request_count(workload: str, seconds: float) -> int:
    """Fixed list length for a run of ``seconds``: in-process requests, or
    served-mix submission slots."""
    if workload == "served-mix":
        return max(SERVED_REPEAT_EVERY, int(round(seconds * SERVED_RATE)))
    return max(1, int(round(seconds / SECONDS_PER_REQUEST[workload])))


def _request_seeds(workload: str, workload_seed: int, count: int) -> List[int]:
    rng = random.Random(f"{workload}/{workload_seed}")
    return rng.sample(range(1, 2**31 - 1), count)


def _recovery_request(topology, config, algorithms, seed):
    from repro.api.requests import DemandSpec, DisruptionSpec, RecoveryRequest, TopologySpec

    kind, kwargs, pairs, flow = config
    return RecoveryRequest(
        topology=TopologySpec(topology[0], kwargs=topology[1]),
        disruption=DisruptionSpec(kind, kwargs=kwargs),
        demand=DemandSpec("routable-far-apart", num_pairs=pairs, flow_per_pair=flow),
        algorithms=algorithms,
        seed=seed,
        opt_time_limit=OPT_TIME_LIMIT if "OPT" in algorithms else None,
    )


def warmup_request(workload: str):
    """The one fixed request every set-up solves, whatever the seeds."""
    if workload == "isp-caida":
        return _recovery_request(CAIDA, ("complete", {}, 1, 22.0), ("ISP",), WARMUP_SEED)
    if workload == "paper-bell":
        return _recovery_request(BELL, ("complete", {}, 1, 10.0), PAPER_ALGORITHMS, WARMUP_SEED)
    from repro.api.requests import DemandSpec, DisruptionSpec, RecoveryRequest, TopologySpec

    return RecoveryRequest(
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "capacity": 10.0}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec("routable-far-apart", num_pairs=1, flow_per_pair=2.0),
        algorithms=("ISP",),
        seed=WARMUP_SEED,
    )


def in_process_requests(workload: str, workload_seed: int, count: int):
    """The in-process list: the figure configurations cycled with fresh seeds."""
    if workload == "isp-caida":
        topology, configs, algorithms = CAIDA, _caida_configs(), ("ISP",)
    elif workload == "paper-bell":
        topology, configs, algorithms = BELL, _bell_configs(), PAPER_ALGORITHMS
    else:
        raise ValueError(f"{workload!r} is not an in-process workload")
    seeds = _request_seeds(workload, workload_seed, count)
    return [
        _recovery_request(topology, configs[index % len(configs)], algorithms, seed)
        for index, seed in enumerate(seeds)
    ]


# ---------------------------------------------------------------------- #
# served-mix
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Slot:
    """One scheduled submission of the served-mix generator."""

    index: int
    due_s: float  #: seconds after the schedule starts
    fresh: Optional[int]  #: index into the fresh list, or None for a repeat
    repeat_of: Optional[int] = None  #: slot index whose request is read back


def served_is_repeat(index: int) -> bool:
    first = math.ceil((SERVED_REPEAT_MIN_AGE_S + 1.0 / SERVED_RATE) * SERVED_RATE)
    return index >= first and index % SERVED_REPEAT_EVERY == SERVED_REPEAT_EVERY - 1


def served_fresh_count(slots: int) -> int:
    return sum(1 for index in range(slots) if not served_is_repeat(index))


def served_schedule(slots: int, schedule_seed: int) -> List[Slot]:
    """A uniform open-loop schedule: slot i is due at ``(i + u_i) / rate``.

    Which slots are repeats depends only on the slot count; the jitter
    ``u_i`` and the finished request each repeat reads back come from
    ``schedule_seed``.  A repeat's target is due at least
    ``SERVED_REPEAT_MIN_AGE_S`` earlier whatever the jitter.
    """
    rng = random.Random(f"served-mix/schedule/{schedule_seed}")
    gap = int(SERVED_REPEAT_MIN_AGE_S * SERVED_RATE) + 1
    schedule: List[Slot] = []
    fresh_slots: List[int] = []
    for index in range(slots):
        due = (index + rng.random()) / SERVED_RATE
        if served_is_repeat(index):
            eligible = [slot for slot in fresh_slots if slot <= index - gap]
            schedule.append(Slot(index, due, None, rng.choice(eligible)))
        else:
            schedule.append(Slot(index, due, len(fresh_slots)))
            fresh_slots.append(index)
    return schedule


def served_requests(workload_seed: int, count: int):
    """``count`` distinct tiny-space ISP requests (the load-test space)."""
    from repro.scenarios import ScenarioGenerator
    from repro.server.loadtest import TINY_SPACE

    generator = ScenarioGenerator(space=TINY_SPACE, seed=workload_seed)
    taken = {warmup_request("served-mix").digest()}
    requests = []
    while len(requests) < count:
        request = generator.sample_request()
        if request.digest() not in taken:
            taken.add(request.digest())
            requests.append(request)
    return requests


def requests_for(workload: str, workload_seed: int, count: int):
    """The request list a child process solves (served-mix: its replay)."""
    if workload == "served-mix":
        return served_requests(workload_seed, count)
    return in_process_requests(workload, workload_seed, count)
