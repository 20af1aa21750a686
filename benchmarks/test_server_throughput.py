"""Server overhead: end-to-end served solves/sec vs the direct batch path.

Each of :data:`ROUNDS` rounds solves a fresh set of distinct requests
twice:

* **direct** — :meth:`RecoveryService.solve_batch` with a 2-process pool,
  the fastest in-process path a library client has;
* **served** — submitted over HTTP to a live ``repro.cli serve`` daemon
  with 2 workers, waiting until every job is ``done``.

One service and one daemon serve every round, and the two paths alternate,
so drift on the machine hits both.  The gap between their medians is the
cost of the service layer (HTTP framing, durable store writes, claim
dispatch); the printed table and the results artefact record the medians
and every round's value, so regressions in the serving hot path show up as
a growing overhead percentage that one noisy round cannot fake.

The served clock starts once ``/healthz`` reports the full fleet *ready*
(workers have finished their solver warm-up and are claiming), mirroring
the direct path where ``solve_batch`` is timed after the library is
imported: both sides measure steady-state throughput, not interpreter
start-up.

``test_tracing_overhead_budget`` measures a second, orthogonal cost: the
per-job tracing added by ``repro.obs`` (a ``trace_context`` per request
plus the solver substrate's ``record_timed`` hooks) and holds it under the
**2% budget** — tracing is supposed to be invisible.  The budget is
checked on a bound that does not depend on scheduler noise: spans per
solve (counted) times the cost of one span (timed over 10⁵ open/close
pairs) over the untraced solve time.  The wall-clock A/B of traced and
untraced passes is printed and recorded for information only: its noise
is wider than the budget.

Set ``$REPRO_BENCH_RECORD`` to a ``BENCH_server.json`` path to merge an
``overhead_benchmark`` (and ``tracing_benchmark``) section into that
artefact — CI uses this to feed the tracked trajectory checked by
``scripts/benchmark_regression_check.py``, which gates the section's
``served_vs_direct`` (served solves/s over direct solves/s, both medians of
the same rounds) and records the absolute solves/s ungated.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from bench_utils import print_timings

from repro.api.service import RecoveryService
from repro.obs.trace import MAX_SPANS_PER_TRACE, span, trace_context
from repro.scenarios import ScenarioGenerator
from repro.server.client import ServiceClient
from repro.server.loadtest import TINY_SPACE
from repro.utils.jsonio import write_json

#: Solved requests per measured path and round (small: the point is the
#: overhead ratio, not load — the loadtest harness covers sustained traffic).
NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVER_REQUESTS", "8"))

#: Alternating direct/served rounds of the overhead benchmark.
ROUNDS = 5

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _sample_requests():
    return ScenarioGenerator(space=TINY_SPACE, seed=42).requests(NUM_REQUESTS)


def _round_requests():
    """:data:`ROUNDS` lists of the same request shapes with fresh seeds.

    Every round solves the same topologies, disruptions and pair counts, so
    rounds differ in their instance draws and the machine's state, not in
    their mix; the new seeds keep every digest distinct, so no round is
    answered from a finished job.
    """
    shapes = _sample_requests()
    return [
        [dataclasses.replace(request, seed=request.seed + offset) for request in shapes]
        for offset in range(ROUNDS)
    ]


def _direct_seconds(service, requests) -> float:
    started = time.perf_counter()
    envelopes = service.solve_batch(requests, jobs=2)
    elapsed = time.perf_counter() - started
    assert len(envelopes) == len(requests)
    return elapsed


@contextmanager
def _daemon(tmp_path: Path):
    """A 2-worker ``repro.cli serve`` daemon; yields its client once ready."""
    port = _free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--db",
            str(tmp_path / "bench.db"),
            "--port",
            str(port),
            "--workers",
            "2",
            "--poll-interval",
            "0.05",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
    try:
        # wait for the *fleet*, not just the socket: workers_ready counts
        # workers that finished importing the solver stack and wrote their
        # first counter snapshot, so the measurement starts warm on both
        # paths
        deadline = time.monotonic() + 120
        while True:
            try:
                health = client.healthz()
                if health.get("workers_ready", 0) >= 2:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline or daemon.poll() is not None:
                raise RuntimeError("bench daemon failed to become ready") from None
            time.sleep(0.1)
        yield client
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait(timeout=5)


def _served_seconds(client, requests) -> float:
    started = time.perf_counter()
    client.batch(requests)
    for request in requests:
        view = client.wait(request.digest(), timeout=120, poll_interval=0.02)
        assert view["state"] == "done", view.get("error")
    return time.perf_counter() - started


def _record_trajectory(rows) -> None:
    """Merge the overhead section into $REPRO_BENCH_RECORD (if set)."""
    target = os.environ.get("REPRO_BENCH_RECORD")
    if not target:
        return
    payload = {}
    path = Path(target)
    if path.exists():
        payload = json.loads(path.read_text())
    payload["overhead_benchmark"] = {
        "requests": NUM_REQUESTS,
        "rounds": ROUNDS,
        "paths": {row["path"]: dict(row) for row in rows},
        "served_solves_per_sec": rows[1]["solves_per_sec"],
        "direct_solves_per_sec": rows[0]["solves_per_sec"],
        # the gated number: both paths ran on the same machine in the same
        # rounds, so the ratio travels across runners where solves/s do not
        "served_vs_direct": round(rows[1]["solves_per_sec"] / rows[0]["solves_per_sec"], 3),
        "overhead_pct": rows[1]["overhead_pct"],
    }
    write_json(payload, path)


#: Tracing may slow the solve path by at most this much (percent).
TRACING_BUDGET_PCT = 2.0

#: Timed passes per side of the informational wall-clock comparison.
TRACING_REPEATS = int(os.environ.get("REPRO_BENCH_TRACING_REPEATS", "5"))

#: Span open/close pairs timed to price one span.
SPAN_PAIRS = 100_000


def _solve_pass(service, requests, traced: bool) -> float:
    started = time.perf_counter()
    for request in requests:
        if traced:
            # one trace per request, exactly like the worker loop
            with trace_context():
                service.solve(request)
        else:
            service.solve(request)
    return time.perf_counter() - started


def _spans_per_solve(service, requests) -> float:
    """Spans a traced solve records, plus one for its trace context."""
    spans = 0
    for request in requests:
        with trace_context() as trace:
            service.solve(request)
        spans += trace.span_count + trace.dropped_spans + 1
    return spans / len(requests)


def _span_seconds() -> float:
    """Cost of one span: best of three passes over ``SPAN_PAIRS`` open/close
    pairs, in fresh traces so the per-trace span cap never cuts them short."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(SPAN_PAIRS // MAX_SPANS_PER_TRACE):
            with trace_context():
                for _ in range(MAX_SPANS_PER_TRACE):
                    with span("bench"):
                        pass
        best = min(best, time.perf_counter() - started)
    return best / SPAN_PAIRS


def _record_tracing(section) -> None:
    """Merge the tracing section into $REPRO_BENCH_RECORD (if set)."""
    target = os.environ.get("REPRO_BENCH_RECORD")
    if not target:
        return
    payload = {}
    path = Path(target)
    if path.exists():
        payload = json.loads(path.read_text())
    payload["tracing_benchmark"] = section
    write_json(payload, path)


def test_tracing_overhead_budget():
    requests = _sample_requests()
    service = RecoveryService()
    # one warm pass per side: imports, topology cache, solver structures
    _solve_pass(service, requests, traced=False)
    _solve_pass(service, requests, traced=True)
    # interleave the sides so drift hits both populations equally
    untraced = traced = float("inf")
    for _ in range(TRACING_REPEATS):
        untraced = min(untraced, _solve_pass(service, requests, traced=False))
        traced = min(traced, _solve_pass(service, requests, traced=True))
    spans = _spans_per_solve(service, requests)
    span_seconds = _span_seconds()
    solve_seconds = untraced / len(requests)
    bound_pct = 100.0 * spans * span_seconds / solve_seconds
    wall_pct = 100.0 * (traced / untraced - 1.0)

    print_timings(
        f"Tracing overhead — span-cost bound and traced vs untraced in-process solves "
        f"({len(requests)} ISP requests, best of {TRACING_REPEATS})",
        [
            {
                "spans_per_solve": round(spans, 1),
                "span_us": round(span_seconds * 1e6, 3),
                "untraced_solve_ms": round(solve_seconds * 1e3, 3),
                "bound_pct": round(bound_pct, 3),
                "wall_overhead_pct": round(wall_pct, 2),
            }
        ],
        columns=["spans_per_solve", "span_us", "untraced_solve_ms", "bound_pct", "wall_overhead_pct"],
    )
    _record_tracing(
        {
            "requests": NUM_REQUESTS,
            "repeats": TRACING_REPEATS,
            "spans_per_solve": round(spans, 2),
            "span_seconds": span_seconds,
            "untraced_seconds": round(untraced, 4),
            "traced_seconds": round(traced, 4),
            # the gated number is the bound; the wall-clock A/B is information
            "overhead_pct": round(bound_pct, 3),
            "wall_overhead_pct": round(wall_pct, 2),
            "budget_pct": TRACING_BUDGET_PCT,
        }
    )
    assert bound_pct < TRACING_BUDGET_PCT, (
        f"tracing costs {spans:.1f} spans x {span_seconds * 1e6:.2f} us per "
        f"{solve_seconds * 1e3:.2f} ms solve = {bound_pct:.2f}% "
        f"(budget {TRACING_BUDGET_PCT:.1f}%)"
    )


def test_served_throughput_vs_direct_batch(tmp_path):
    rounds = _round_requests()
    assert len({request.digest() for batch in rounds for request in batch}) == NUM_REQUESTS * ROUNDS
    service = RecoveryService()
    seconds = {"direct": [], "served": []}
    with _daemon(tmp_path) as client:
        for batch in rounds:
            seconds["direct"].append(_direct_seconds(service, batch))
            seconds["served"].append(_served_seconds(client, batch))

    direct_seconds = statistics.median(seconds["direct"])
    served_seconds = statistics.median(seconds["served"])
    rows = []
    for path, median in (("direct", direct_seconds), ("served", served_seconds)):
        rows.append(
            {
                "path": path,
                "requests": NUM_REQUESTS,
                "seconds": round(median, 3),
                "solves_per_sec": round(NUM_REQUESTS / median, 3),
                "overhead_pct": round(100.0 * (median / direct_seconds - 1.0), 1),
                "round_seconds": [round(value, 3) for value in seconds[path]],
                "round_solves_per_sec": [
                    round(NUM_REQUESTS / value, 3) for value in seconds[path]
                ],
            }
        )
    print_timings(
        "Server overhead — served solves vs direct solve_batch, medians of "
        f"{ROUNDS} alternating rounds ({NUM_REQUESTS} ISP requests each, 2 workers)",
        rows,
        columns=["path", "requests", "seconds", "solves_per_sec", "overhead_pct"],
    )
    _record_trajectory(rows)

    assert direct_seconds > 0 and served_seconds > 0
    # The serve path is warm (keep-alive client, event-driven dispatch,
    # batched claims, each worker's topology LRU), so served throughput
    # must stay within 2x of direct — i.e. <=100% overhead — plus a small
    # constant for store writes on a tiny batch.  The PR 5 baseline was
    # ~560%; a return above 100% means the serving hot path regressed.
    assert served_seconds < direct_seconds * 2.0 + 1.0
