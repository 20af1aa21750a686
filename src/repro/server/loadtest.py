"""Load generation against a live daemon, with a machine-readable artefact.

:func:`run_loadtest` drives one daemon the way production traffic would:

1. sample a pool of ``distinct`` valid requests from a declarative
   :class:`~repro.scenarios.ScenarioSpace` (PR 4's seeded generator —
   one integer reproduces the whole traffic trace);
2. replay ``rps x duration`` submissions **open-loop** (each submission is
   scheduled at its ideal instant on a worker thread, so a slow response
   delays nothing — the daemon sees the intended arrival process), cycling
   the pool so duplicate submissions exercise the digest dedup path;
3. wait for every accepted job to reach a terminal state;
4. summarise throughput and latency into a :class:`LoadtestReport` and
   write it (atomically) as ``BENCH_server.json``.

Two latency populations are reported: *submit* latency (client-observed
HTTP round trip of the submission) and *job* latency (the store's
``finished_at - created_at``, i.e. queueing + execution), each as
p50/p95/p99.

With ``measure_direct=True`` the harness additionally solves the distinct
request pool in-process (no daemon) and records the ratio of the two rates
as ``paced_vs_direct_pct``.  That number is **not** a serve-path overhead:
the served rate counts unique completions over the whole paced campaign
window (open-loop arrivals spread across ``duration`` seconds, duplicates
collapsed by dedup), while the direct rate is unconstrained in-process
capacity — the ratio is dominated by the offered traffic shape, and so
are the paced campaign's own rates (``completed_rps``,
``served_solves_per_sec``).  They are recorded, never gated.  The honest
capacity-bound comparison lives in ``benchmarks/test_server_throughput.py``,
which merges an ``overhead_benchmark`` section into the same artefact; the
regression gate (``scripts/benchmark_regression_check.py``) gates only that
section's served throughput.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.scenarios import ScenarioGenerator, ScenarioSpace
from repro.server.client import ServiceClient, ServiceError
from repro.utils.jsonio import write_json

#: A compact, fast scenario space for load generation: every instance
#: solves in tens of milliseconds, so the harness measures the *service*,
#: not the MILP.  The default campaign runs ISP only for the same reason.
TINY_SPACE = ScenarioSpace(
    topologies=(
        ("grid", {"rows": (3, 4), "cols": (3,), "capacity": (10.0, 20.0)}),
        ("ring", {"num_nodes": (6, 8)}),
        ("barabasi-albert", {"num_nodes": (12,), "attachment": (2,), "capacity": (30.0,)}),
    ),
    disruptions=(
        ("complete", {}),
        ("random", {"node_probability": (0.2,), "edge_probability": (0.3,)}),
        ("gaussian", {"variance": (2.0, 10.0), "intensity": (0.9,)}),
    ),
    algorithms=("ISP",),
    num_pairs=(1, 2),
    flow_per_pair=(2.0, 4.0),
    opt_time_limit=10.0,
)

#: Spaces addressable from the CLI's ``--scenario-space`` flag.
SCENARIO_SPACES: Dict[str, ScenarioSpace] = {
    "tiny": TINY_SPACE,
    "default": ScenarioSpace(),
}


#: Arrival models addressable from the CLI's ``--arrival`` flag.
ARRIVAL_MODELS = ("uniform", "bursty")

#: Largest burst the bursty model emits (sizes are uniform on 1..7, mean 4).
_MAX_BURST = 7


def arrival_offsets(
    total: int, rps: float, arrival: str = "uniform", seed: int = 0
) -> List[float]:
    """Ideal submission instants (seconds from replay start) for ``total`` jobs.

    ``uniform`` is the classic evenly paced open-loop schedule
    (``index / rps``).  ``bursty`` models flash-crowd traffic: submissions
    arrive in back-to-back bursts (uniform size 1..7) separated by
    exponential gaps whose mean keeps the long-run rate at ``rps`` — the
    same offered load, delivered in spikes that stress queueing, admission
    control and the store's claims far harder than an even drip.  Deterministic for a given ``seed``, so one integer still
    reproduces the whole trace.
    """
    if rps <= 0:
        raise ValueError("rps must be positive")
    total = int(total)
    if total < 1:
        return []
    if arrival == "uniform":
        return [index / rps for index in range(total)]
    if arrival != "bursty":
        raise ValueError(
            f"unknown arrival model {arrival!r}; available: {', '.join(ARRIVAL_MODELS)}"
        )
    rng = random.Random(seed)
    offsets: List[float] = []
    clock = 0.0
    while len(offsets) < total:
        burst = min(rng.randint(1, _MAX_BURST), total - len(offsets))
        offsets.extend(clock for _ in range(burst))
        # gap mean = burst / rps, so every (burst, gap) pair locally
        # sustains the target rate and the long-run average converges on it
        clock += rng.expovariate(rps / burst)
    return offsets


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty population)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return float(ordered[rank])


def _percentiles(values: Sequence[float]) -> Dict[str, float]:
    return {
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "p99": percentile(values, 0.99),
    }


def _histogram_percentiles(metrics_text: str, name: str) -> Dict[str, float]:
    """Approximate p50/p95/p99 of a Prometheus histogram exposition.

    Each percentile is reported as the **upper bound** of the bucket the
    rank lands in (a rank landing in ``+Inf`` reports the largest finite
    bound) — an upper-bound approximation, good enough for the
    informational stage-latency section.  All zeros when the histogram is
    absent or empty.
    """
    buckets: List[tuple] = []
    total = 0
    for line in metrics_text.splitlines():
        if line.startswith(f"{name}_bucket"):
            le = line.split('le="', 1)[1].split('"', 1)[0]
            cumulative = int(float(line.rsplit(" ", 1)[1]))
            bound = float("inf") if le == "+Inf" else float(le)
            buckets.append((bound, cumulative))
        elif line.startswith(f"{name}_count"):
            total = int(float(line.rsplit(" ", 1)[1]))
    result: Dict[str, float] = {}
    finite = [bound for bound, _ in buckets if bound != float("inf")]
    for key, fraction in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        if not total or not buckets:
            result[key] = 0.0
            continue
        rank = max(1, round(fraction * total))
        landed = next(
            (bound for bound, cumulative in sorted(buckets) if cumulative >= rank),
            float("inf"),
        )
        result[key] = landed if landed != float("inf") else (max(finite) if finite else 0.0)
    return result


@dataclass
class LoadtestReport:
    """Everything one load campaign measured, ready for ``BENCH_server.json``."""

    target_rps: float
    duration_seconds: float
    submissions: int = 0
    accepted: int = 0
    rejected: int = 0
    errors: int = 0
    unique_jobs: int = 0
    dedup_hits: int = 0
    completed_jobs: int = 0
    failed_jobs: int = 0
    achieved_rps: float = 0.0
    completed_rps: float = 0.0
    submit_latency: Dict[str, float] = field(default_factory=dict)
    job_latency: Dict[str, float] = field(default_factory=dict)
    #: Informational (never gated) per-stage latency percentiles:
    #: ``queue_wait`` is exact (job views' ``started_at - created_at``);
    #: ``serialize`` is read from the daemon's ``repro_serialize_seconds``
    #: histogram, so each percentile is a bucket upper bound.
    stage_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    wall_seconds: float = 0.0
    served_seconds: float = 0.0
    served_solves_per_sec: float = 0.0
    direct_seconds: float = 0.0
    direct_solves_per_sec: float = 0.0
    #: Paced-campaign served rate vs unconstrained direct capacity, as a
    #: percentage slowdown.  Traffic-shape dependent by construction (see
    #: the module docstring) — NOT the serve-path overhead, which is the
    #: ``overhead_benchmark`` section's ``overhead_pct``.
    paced_vs_direct_pct: Optional[float] = None
    seed: int = 0
    scenario_space: str = "tiny"
    arrival: str = "uniform"
    failures: List[Dict[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Zero failed jobs and zero transport/validation errors."""
        return self.failed_jobs == 0 and self.errors == 0

    @property
    def dedup_hit_rate(self) -> float:
        return self.dedup_hits / self.submissions if self.submissions else 0.0

    def rows(self) -> List[Dict[str, object]]:
        """(metric, value) table rows for the CLI report."""
        payload = self.to_dict()
        rows = []
        for key in (
            "target_rps",
            "achieved_rps",
            "completed_rps",
            "submissions",
            "unique_jobs",
            "dedup_hits",
            "dedup_hit_rate",
            "completed_jobs",
            "failed_jobs",
            "rejected",
            "errors",
            "wall_seconds",
        ):
            value = payload[key]
            rows.append(
                {"metric": key, "value": round(value, 4) if isinstance(value, float) else value}
            )
        if self.direct_seconds:
            for key in (
                "served_solves_per_sec",
                "direct_solves_per_sec",
                "paced_vs_direct_pct",
            ):
                value = payload[key]
                rows.append(
                    {"metric": key, "value": round(value, 4) if isinstance(value, float) else value}
                )
        for population in ("submit_latency", "job_latency"):
            for name, value in payload[population].items():
                rows.append({"metric": f"{population}_{name}", "value": round(value, 4)})
        for stage, values in payload["stage_latency"].items():
            for name, value in values.items():
                rows.append({"metric": f"{stage}_{name}", "value": round(value, 4)})
        return rows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": 2,
            "kind": "server-bench",
            "target_rps": float(self.target_rps),
            "duration_seconds": float(self.duration_seconds),
            "seed": int(self.seed),
            "scenario_space": self.scenario_space,
            "arrival": self.arrival,
            "submissions": int(self.submissions),
            "accepted": int(self.accepted),
            "rejected": int(self.rejected),
            "errors": int(self.errors),
            "unique_jobs": int(self.unique_jobs),
            "dedup_hits": int(self.dedup_hits),
            "dedup_hit_rate": float(self.dedup_hit_rate),
            "completed_jobs": int(self.completed_jobs),
            "failed_jobs": int(self.failed_jobs),
            "achieved_rps": float(self.achieved_rps),
            "completed_rps": float(self.completed_rps),
            "submit_latency": dict(self.submit_latency),
            "job_latency": dict(self.job_latency),
            "stage_latency": {
                stage: dict(values) for stage, values in self.stage_latency.items()
            },
            "wall_seconds": float(self.wall_seconds),
            "served_seconds": float(self.served_seconds),
            "served_solves_per_sec": float(self.served_solves_per_sec),
            "direct_seconds": float(self.direct_seconds),
            "direct_solves_per_sec": float(self.direct_solves_per_sec),
            "paced_vs_direct_pct": (
                None if self.paced_vs_direct_pct is None else float(self.paced_vs_direct_pct)
            ),
            "ok": self.ok,
            "failures": list(self.failures),
        }


def run_loadtest(
    url: str,
    rps: float,
    duration: float,
    distinct: int = 8,
    seed: int = 0,
    space: Union[str, ScenarioSpace] = "tiny",
    algorithms: Optional[Sequence[str]] = None,
    out: Optional[str] = None,
    wait_timeout: float = 120.0,
    client: Optional[ServiceClient] = None,
    measure_direct: bool = False,
    arrival: str = "uniform",
) -> LoadtestReport:
    """Replay generated traffic against the daemon at ``url``.

    ``distinct`` bounds the request pool; with ``rps * duration`` larger
    than the pool the surplus submissions are duplicates, which is what
    measures the dedup hit rate.  ``out`` (when given) receives the report
    via the atomic JSON writer.  ``measure_direct`` additionally solves
    the distinct pool in-process after the campaign and records the
    paced-vs-direct rate ratio (``paced_vs_direct_pct`` — a traffic-shape
    number, not a serve-path overhead; see the module docstring).
    ``arrival`` picks the open-loop schedule: ``uniform`` paces evenly,
    ``bursty`` delivers the same offered load as flash-crowd spikes (see
    :func:`arrival_offsets`).
    """
    if rps <= 0:
        raise ValueError("--rps must be positive")
    if duration <= 0:
        raise ValueError("--duration must be positive")
    if distinct < 1:
        raise ValueError("--distinct must be at least 1")
    if isinstance(space, str):
        space_name = space
        try:
            space = SCENARIO_SPACES[space]
        except KeyError:
            raise KeyError(
                f"unknown scenario space {space!r}; "
                f"available: {', '.join(sorted(SCENARIO_SPACES))}"
            ) from None
    else:
        space_name = "custom"
    if algorithms:
        space = dataclasses.replace(space, algorithms=tuple(algorithms))
    client = client or ServiceClient(url)
    started = time.perf_counter()

    generator = ScenarioGenerator(space=space, seed=seed)
    total = max(1, round(rps * duration))
    # computed up front so an unknown arrival model fails before any traffic
    offsets = arrival_offsets(total, rps, arrival=arrival, seed=seed)
    pool = [request.to_dict() for request in generator.requests(min(distinct, total))]

    report = LoadtestReport(
        target_rps=float(rps),
        duration_seconds=float(duration),
        seed=int(seed),
        scenario_space=space_name,
        arrival=arrival,
        submissions=total,
        unique_jobs=len(pool),
    )

    def submit(payload: Dict[str, Any]) -> Dict[str, Any]:
        begin = time.perf_counter()
        outcome: Dict[str, Any] = {"latency": 0.0}
        try:
            response = client.solve(payload)
        except ServiceError as error:
            outcome["status"] = error.status
        except OSError as error:
            outcome["transport_error"] = str(error)
        else:
            outcome["deduplicated"] = bool(response.get("deduplicated"))
            outcome["digest"] = response["job"]["digest"]
        outcome["latency"] = time.perf_counter() - begin
        return outcome

    # Open-loop replay: each submission fires at its ideal instant on a
    # worker thread; the pool is sized so a slow daemon cannot stall the
    # arrival process (that would silently lower the offered load).
    outcomes: List[Dict[str, Any]] = []
    max_threads = min(64, max(8, int(rps * 2)))
    replay_start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=max_threads) as executor:
        futures = []
        for index in range(total):
            target = replay_start + offsets[index]
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(executor.submit(submit, pool[index % len(pool)]))
        # measure the dispatch window *before* joining the in-flight
        # responses: achieved_rps is the offered arrival rate, which a slow
        # daemon must not be able to deflate by delaying its answers
        replay_seconds = time.perf_counter() - replay_start
        outcomes = [future.result() for future in futures]

    digests = set()
    submit_latencies = []
    for outcome in outcomes:
        submit_latencies.append(outcome["latency"])
        if "digest" in outcome:
            report.accepted += 1
            digests.add(outcome["digest"])
            if outcome.get("deduplicated"):
                report.dedup_hits += 1
        elif outcome.get("status") == 429:
            report.rejected += 1
        else:
            report.errors += 1
            report.failures.append(
                {
                    "kind": "submission",
                    "detail": str(outcome.get("transport_error", outcome.get("status"))),
                }
            )

    report.achieved_rps = len(outcomes) / replay_seconds if replay_seconds else 0.0
    report.submit_latency = _percentiles(submit_latencies)

    job_latencies: List[float] = []
    queue_waits: List[float] = []
    deadline = time.monotonic() + wait_timeout
    for digest in sorted(digests):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            # the shared deadline is hard: once it passes, the remaining
            # digests are reported as wait failures without another poll
            report.errors += 1
            report.failures.append(
                {"kind": "wait", "digest": digest, "detail": "wait deadline exceeded"}
            )
            continue
        try:
            view = client.wait(digest, timeout=remaining, poll_interval=0.05)
        except (TimeoutError, ServiceError, OSError) as error:
            report.errors += 1
            report.failures.append({"kind": "wait", "digest": digest, "detail": str(error)})
            continue
        if view["state"] == "done":
            report.completed_jobs += 1
            if view.get("finished_at") and view.get("created_at") is not None:
                job_latencies.append(float(view["finished_at"]) - float(view["created_at"]))
            if view.get("started_at") and view.get("created_at") is not None:
                queue_waits.append(
                    max(0.0, float(view["started_at"]) - float(view["created_at"]))
                )
        else:
            report.failed_jobs += 1
            report.failures.append(
                {
                    "kind": "job",
                    "digest": digest,
                    "detail": str(view.get("error", ""))[:500],
                }
            )

    report.job_latency = _percentiles(job_latencies)
    # Informational stage-latency section (never part of the pass/fail
    # verdict): queue wait exactly from the job views, serialize time from
    # the daemon's own histogram (its only client-visible surface).
    try:
        metrics_text = client.metrics()
    except (ServiceError, OSError):
        metrics_text = ""
    report.stage_latency = {
        "queue_wait": _percentiles(queue_waits),
        "serialize": _histogram_percentiles(metrics_text, "repro_serialize_seconds"),
    }
    # the served window runs from the first submission to the last
    # terminal-state observation: the full client experience of the pool
    report.served_seconds = time.perf_counter() - replay_start
    report.served_solves_per_sec = (
        report.completed_jobs / report.served_seconds if report.served_seconds else 0.0
    )
    report.wall_seconds = time.perf_counter() - started
    report.completed_rps = (
        report.completed_jobs / report.wall_seconds if report.wall_seconds else 0.0
    )

    if measure_direct:
        # imported lazily: the solver stack (numpy/scipy) is irrelevant to
        # a plain replay and slow to import
        from repro.api.requests import request_from_dict
        from repro.api.service import RecoveryService

        direct_requests = [request_from_dict(dict(item)) for item in pool]
        direct_start = time.perf_counter()
        RecoveryService().solve_batch(direct_requests, jobs=2)
        report.direct_seconds = time.perf_counter() - direct_start
        report.direct_solves_per_sec = (
            len(direct_requests) / report.direct_seconds if report.direct_seconds else 0.0
        )
        if report.served_solves_per_sec > 0:
            report.paced_vs_direct_pct = (
                report.direct_solves_per_sec / report.served_solves_per_sec - 1.0
            ) * 100.0

    if out is not None:
        write_json(report.to_dict(), out)
    return report


__all__ = [
    "ARRIVAL_MODELS",
    "LoadtestReport",
    "SCENARIO_SPACES",
    "TINY_SPACE",
    "arrival_offsets",
    "percentile",
    "run_loadtest",
]
