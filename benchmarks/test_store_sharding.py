"""Sharded store scale-out: a 4-shard fleet vs the single-file store.

The same request set is served twice by a live ``repro.cli serve``
daemon with 4 workers — once against the classic single SQLite file,
once against a 4-shard fleet (``--shards 4``) where claims, completions,
heartbeats and counter snapshots spread across four WAL files instead of
funnelling through one write lock.

Two things are measured:

* **throughput** — served solves/sec per backend.  The sharded fleet
  must keep pace with (and under write contention beat) the single
  file; a sharded rate far below single means the coordinator's
  peek/claim rounds regressed.
* **equivalence** — every request's ``done`` envelope must be
  byte-identical across backends once wall-clock noise is scrubbed
  (``wall_seconds``, per-run ``elapsed_seconds`` and solver stats).
  Sharding moves rows between files; it must never change an answer.

Set ``$REPRO_BENCH_RECORD`` to a ``BENCH_server.json`` path to merge a
``sharding_benchmark`` section into that artefact — CI feeds it to the
tracked trajectory checked by ``scripts/benchmark_regression_check.py``.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from bench_utils import print_timings

from repro.scenarios import ScenarioGenerator
from repro.server.client import ServiceClient
from repro.server.loadtest import TINY_SPACE
from repro.utils.jsonio import write_json

#: Served requests per backend.  Larger than the overhead benchmark's
#: sample on purpose: store contention only shows once several workers
#: fight over claims, so the queue has to stay non-empty for a while.
NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_SHARDING_REQUESTS", "24"))

WORKERS = 4
SHARDS = 4

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _sample_requests():
    return ScenarioGenerator(space=TINY_SPACE, seed=42).requests(NUM_REQUESTS)


def _scrubbed(envelope: Dict[str, Any]) -> str:
    """Canonical JSON of a result envelope minus wall-clock noise.

    Timing fields differ run to run even for identical answers, so they
    are dropped before comparing backends: the envelope's ``wall_seconds``
    plus each run's ``elapsed_seconds`` metric and solver counters.
    """
    payload = json.loads(json.dumps(envelope))  # deep copy, JSON-safe
    payload.pop("wall_seconds", None)
    for run in payload.get("results", []):
        run.pop("solver", None)
        if isinstance(run.get("metrics"), dict):
            run["metrics"].pop("elapsed_seconds", None)
    return json.dumps(payload, sort_keys=True)


def _measure_served(
    requests, db_path: Path, shards: int
) -> Tuple[float, Dict[str, str]]:
    """(seconds to drain, digest -> scrubbed envelope) for one backend."""
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
            str(db_path),
            "--port",
            str(port),
            "--workers",
            str(WORKERS),
            "--shards",
            str(shards),
            "--poll-interval",
            "0.05",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
    try:
        deadline = time.monotonic() + 120
        while True:
            try:
                health = client.healthz()
                if health.get("workers_ready", 0) >= WORKERS:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline or daemon.poll() is not None:
                raise RuntimeError("bench daemon failed to become ready") from None
            time.sleep(0.1)
        started = time.perf_counter()
        client.batch(requests)
        envelopes: Dict[str, str] = {}
        for request in requests:
            digest = request.digest()
            view = client.wait(digest, timeout=120, poll_interval=0.02)
            assert view["state"] == "done", view.get("error")
            envelopes[digest] = _scrubbed(view["result"])
        return time.perf_counter() - started, envelopes
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait(timeout=5)


def _record_trajectory(rows: List[Dict[str, Any]], identical: bool) -> None:
    """Merge the sharding section into $REPRO_BENCH_RECORD (if set)."""
    target = os.environ.get("REPRO_BENCH_RECORD")
    if not target:
        return
    payload = {}
    path = Path(target)
    if path.exists():
        payload = json.loads(path.read_text())
    payload["sharding_benchmark"] = {
        "requests": NUM_REQUESTS,
        "workers": WORKERS,
        "shards": SHARDS,
        "backends": {row["backend"]: dict(row) for row in rows},
        "single_solves_per_sec": rows[0]["solves_per_sec"],
        "sharded_solves_per_sec": rows[1]["solves_per_sec"],
        "sharded_vs_single_pct": rows[1]["vs_single_pct"],
        "envelopes_identical": identical,
    }
    write_json(payload, path)


def test_sharded_fleet_vs_single_store(tmp_path):
    requests = _sample_requests()
    single_seconds, single_envelopes = _measure_served(
        requests, tmp_path / "single.db", shards=1
    )
    sharded_seconds, sharded_envelopes = _measure_served(
        requests, tmp_path / "fleet.db", shards=SHARDS
    )

    # equivalence first: a fast wrong answer is not a speedup
    assert single_envelopes.keys() == sharded_envelopes.keys()
    mismatched = [
        digest
        for digest, envelope in single_envelopes.items()
        if sharded_envelopes[digest] != envelope
    ]
    assert not mismatched, f"envelopes diverge across backends: {mismatched}"

    rows = []
    for backend, seconds in (("single", single_seconds), ("sharded", sharded_seconds)):
        rows.append(
            {
                "backend": backend,
                "requests": len(requests),
                "seconds": round(seconds, 3),
                "solves_per_sec": round(len(requests) / seconds, 3),
                "vs_single_pct": round(100.0 * (single_seconds / seconds - 1.0), 1),
            }
        )
    print_timings(
        f"Store sharding — {SHARDS}-shard fleet vs single file "
        f"({len(requests)} ISP requests, {WORKERS} workers)",
        rows,
        columns=["backend", "requests", "seconds", "solves_per_sec", "vs_single_pct"],
    )
    _record_trajectory(rows, identical=not mismatched)

    assert single_seconds > 0 and sharded_seconds > 0
    # The sharded coordinator adds a peek/claim round trip per claim, so
    # on an uncontended toy workload it may trail slightly — but it must
    # stay in the same class as the single file.  The tracked artefact
    # records the real comparison; this floor only catches a coordinator
    # that has fallen off a cliff.
    assert sharded_seconds < single_seconds * 1.5 + 1.0
