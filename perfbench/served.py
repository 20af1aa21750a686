"""served-mix: ``repro.cli serve`` with one worker, driven open loop over HTTP.

Each daemon runs on a fresh single-file store in its own directory under the
output location, pinned with its worker to the measured core.  The generator
is this process: two sender threads share one ``ServiceClient`` (one
keep-alive connection per thread), send the seeded schedule and time every
request from its due time.  After the timed phase the daemon's public
surfaces (job views, ``/metrics``, ``/v1/trace/{digest}``) are read and every
fresh envelope is compared with an in-process solve of the same request in
a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.server.client import ServiceClient, ServiceError

from perfbench import workloads
from perfbench.child import summarise
from perfbench.common import (
    OUT,
    SETUP_REPEATS,
    child_env,
    in_process_layers,
    outputs_by_digest,
    output_totals,
    run_failures,
    run_child,
    same_children_outputs,
    same_outputs,
)
from perfbench.probe import SpeedProbe, pin
from perfbench.stats import median, ratio, served_latencies, tail

_LISTENING = re.compile(rb"repro\.server listening on http://[^:\s]+:(\d+) ")
#: Seconds between the last schedule preparation and the first due time.
LEAD_S = 0.5
#: A repeat must read a request that finished at least this long before.
REPEAT_MIN_FINISHED_S = 2.0


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text exposition as ``{series: value}``."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


# ---------------------------------------------------------------------- #
# /proc readings of the daemon's process tree
# ---------------------------------------------------------------------- #
def _stat_fields(pid: int) -> List[str]:
    raw = Path(f"/proc/{pid}/stat").read_text()
    return raw[raw.rindex(")") + 2:].split()  # fields from "state" on


def descendants(pid: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                children.setdefault(int(_stat_fields(int(entry))[1]), []).append(int(entry))
            except (OSError, ValueError, IndexError):
                continue
    found, frontier = [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found += kids
        frontier += kids
    return found


def _alive(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_seconds(pid: int) -> float:
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Daemon:
    """``repro.cli serve --workers 1`` on a fresh single-file store, on core ``cpu``."""

    def __init__(self, run_dir: Path, cpu: Optional[int]) -> None:
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        self.log_path = run_dir / "daemon.log"
        self._log = open(self.log_path, "wb")
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--db", str(run_dir / "jobs.db"),
             "--port", "0", "--workers", "1", "--shards", "1"],
            cwd=run_dir, env=child_env(), stdout=self._log, stderr=subprocess.STDOUT,
        )
        # the worker, spawned later, inherits the daemon's core
        pin(self.process.pid, cpu)
        self.port: Optional[int] = None
        self.client: Optional[ServiceClient] = None
        self._tree: List[int] = []

    def _alive_or_raise(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"daemon exited with {self.process.returncode}; see {self.log_path}")
        if time.perf_counter() > deadline:
            raise TimeoutError(f"daemon not ready before the deadline; see {self.log_path}")
        time.sleep(0.005)

    def start(self, warmup: Dict[str, Any], deadline: float) -> Tuple[float, float]:
        """Wait for a ready worker and solve the warm-up request.

        Returns the ``time.perf_counter`` readings of launch and readiness.
        """
        while self.port is None:
            match = _LISTENING.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
            else:
                self._alive_or_raise(deadline)
        self.client = ServiceClient(f"http://127.0.0.1:{self.port}")
        while self.client.healthz()["workers_ready"] < 1:
            self._alive_or_raise(deadline)
        digest = self.client.solve(warmup)["job"]["digest"]
        timeout = max(1.0, deadline - time.perf_counter())
        if self.client.wait(digest, timeout=timeout, poll_interval=0.005)["state"] != "done":
            raise RuntimeError(f"warm-up job failed; see {self.log_path}")
        return self.launched, time.perf_counter()

    def metrics(self) -> Dict[str, float]:
        return parse_metrics(self.client.metrics())

    def workers(self) -> List[int]:
        """The worker processes (the daemon's descendants minus helpers)."""
        self._tree = descendants(self.process.pid)
        return [
            pid for pid in self._tree
            if b"resource_tracker" not in Path(f"/proc/{pid}/cmdline").read_bytes()
        ]

    def peak_rss_mb(self) -> float:
        """Peak resident set of the daemon plus its workers."""
        return peak_rss_mb(self.process.pid) + sum(peak_rss_mb(pid) for pid in self.workers())

    def stop(self) -> None:
        """SIGTERM (the daemon drains its fleet), then make sure every process ended."""
        if self.client is not None:
            self.client.close()
        tree = self._tree or (descendants(self.process.pid) if self.process.poll() is None else [])
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        patience = time.perf_counter() + 10.0
        for pid in tree:
            while _alive(pid) and time.perf_counter() < patience:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self._log.close()


# ---------------------------------------------------------------------- #
# The open-loop generator
# ---------------------------------------------------------------------- #
def drive(
    client: ServiceClient, schedule, payloads: List[Dict[str, Any]], start: float
) -> List[Tuple[float, float, int, Any]]:
    """Send ``payloads[i]`` at ``start + schedule[i].due_s`` from two threads.

    Returns ``(sent, answered, status, body)`` per slot, on the
    ``time.perf_counter`` clock.  ``status`` is 200 for any 2xx answer, the
    HTTP status of an error answer, or 0 for a transport error.
    """
    outcomes: List[Any] = [None] * len(schedule)

    def sender(lane: int) -> None:
        try:
            for slot in schedule[lane::2]:
                delay = start + slot.due_s - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    status, body = 200, client.solve(payloads[slot.index])
                except ServiceError as error:
                    status, body = error.status, error.payload
                except ConnectionError as error:
                    status, body = 0, str(error)
                outcomes[slot.index] = (sent, time.perf_counter(), status, body)
        finally:
            client.close()

    threads = [threading.Thread(target=sender, args=(lane,)) for lane in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def _span_walls(spans: List[Dict[str, Any]], name: str) -> float:
    total = 0.0
    for node in spans:
        if node["name"] == name:
            total += node["wall_seconds"]
        total += _span_walls(node.get("children", []), name)
    return total


class Plan:
    """The fixed submissions of one served-mix run."""

    def __init__(self, workload_seed: int, seed: int, seconds: float) -> None:
        slots = workloads.request_count("served-mix", seconds)
        self.schedule = workloads.served_schedule(slots, seed)
        self.fresh_count = workloads.served_fresh_count(slots)
        requests = workloads.served_requests(workload_seed, self.fresh_count)
        self.digests = [request.digest() for request in requests]
        fresh = [request.to_dict() for request in requests]
        self.payloads = [
            fresh[slot.fresh if slot.fresh is not None else self.schedule[slot.repeat_of].fresh]
            for slot in self.schedule
        ]
        self.warmup = workloads.warmup_request("served-mix").to_dict()


def serve(plan: Plan, launches: int, timed_launch: int, trace: bool, deadline: float,
          cpu: Optional[int]) -> Tuple[List[Tuple[float, float]], Dict[str, Any]]:
    """Launch ``launches`` daemons one after another; drive the timed one.

    Returns the (launch, ready) clock readings of every set-up and the
    timed phase.
    """
    setups, phase = [], None
    for launch in range(launches):
        daemon = Daemon(OUT / f"served-mix.daemon{launch}", cpu)
        try:
            setups.append(daemon.start(plan.warmup, deadline))
            if launch == timed_launch:
                phase = _timed_phase(daemon, plan, trace, deadline)
        finally:
            daemon.stop()
    return setups, phase


def run(
    workload_seed: int, seed: int, seconds: float, trace: bool, deadline: float,
    probe: SpeedProbe,
) -> Dict[str, Any]:
    plan = Plan(workload_seed, seed, seconds)
    # untraced: the timed launch sits between set-up-only launches, which
    # sample more machine states for the set-up median
    launches, timed_launch = (1, 0) if trace else (SETUP_REPEATS, 1)
    try:
        setups, phase = serve(plan, launches, timed_launch, trace, deadline, probe.cpu)
        plain = run_child("served-mix", workload_seed, plan.fresh_count, deadline, probe.cpu)
        traced = None
        if trace:
            traced = run_child("served-mix", workload_seed, plan.fresh_count, deadline,
                               probe.cpu, trace=True)
    finally:
        probe.stop()
    report = _summary(phase, plan, plain.report, probe)
    report["count"] = plan.fresh_count
    report["setup_samples"] = [(ready - launched) * probe.factor(launched, ready)
                               for launched, ready in setups]
    report["metrics"]["setup_s"] = median(report["setup_samples"])
    report["unscaled"] = {
        "setup_s": median([ready - launched for launched, ready in setups]),
        "latency_p50_s": median(report.pop("unscaled_latencies")),
        "probe_speed": probe.speed(),
    }
    if traced is not None:
        report["layers"] = _layers(phase, plan, traced.report, plain.report, probe)
        if not same_children_outputs(traced.report, plain.report):
            report["failures"].append("traced and untraced replays produced different outputs")
    return report


def self_check(workload_seed: int, seed: int, seconds: float, deadline: float,
               probe: SpeedProbe) -> Tuple[Dict[str, float], Dict[str, float], bool]:
    """Two served phases with two seeds (arrival jitter, repeat targets).

    Returns the counts of each phase and whether both served the same
    envelopes without a failure.
    """
    plans = [Plan(workload_seed, s, seconds) for s in (seed, seed + 1)]
    try:
        phases = [serve(plan, 1, 0, False, deadline, probe.cpu)[1] for plan in plans]
        plain = run_child("served-mix", workload_seed, plans[0].fresh_count, deadline, probe.cpu)
    finally:
        probe.stop()
    counts, served, clean = [], [], True
    for plan, phase in zip(plans, phases):
        summary = _summary(phase, plan, plain.report, probe)
        clean = clean and not summary["failures"]
        delta = phase["delta"]
        counts.append({
            "fresh_accepted": float(sum(
                1 for slot in plan.schedule
                if slot.fresh is not None and phase["outcomes"][slot.index][2] == 200
            )),
            "repeat_reads": float(len(summary["read_rt"])),
            "repairs_total": summary["metrics"]["repairs_total"],
            "satisfied_pct_mean": summary["metrics"]["satisfied_pct_mean"],
            "server.rejected": float(sum(1 for o in phase["outcomes"] if o[2] == 429)),
            "server.jobs_failed": delta.get("repro_fleet_jobs_failed_total", 0.0),
            "server.fast_path_hits": delta.get("repro_fast_path_hits_total", 0.0),
            "server.submissions": delta.get("repro_submissions_total", 0.0),
        })
        served.append({d: summarise(job["result"]) for d, job in phase["jobs"].items()
                       if job["state"] == "done"})
    same = served[0].keys() == served[1].keys() and all(
        same_outputs(runs, served[1][digest]) for digest, runs in served[0].items()
    )
    return counts[0], counts[1], clean and same


def _timed_phase(daemon: Daemon, plan: Plan, trace: bool, deadline: float):
    client = daemon.client
    worker = daemon.workers()
    before = daemon.metrics()
    cpu_before = sum(cpu_seconds(pid) for pid in worker)
    start = time.perf_counter() + LEAD_S
    start_unix = time.time() + LEAD_S
    outcomes = drive(client, plan.schedule, plan.payloads, start)
    accepted = sum(
        1 for slot in plan.schedule
        if slot.fresh is not None and outcomes[slot.index][2] == 200
    )
    while True:  # drained: every accepted job reached a terminal state ...
        jobs = client.healthz()["jobs"]
        if jobs["queued"] == 0 and jobs["running"] == 0:
            break
        daemon._alive_or_raise(deadline)
    drained = time.perf_counter()
    while True:  # ... and the worker published its counters for them
        after = daemon.metrics()
        finished = sum(
            after[key] - before[key]
            for key in ("repro_fleet_jobs_done_total", "repro_fleet_jobs_failed_total")
        )
        if finished >= accepted:
            break
        daemon._alive_or_raise(deadline)
    cpu_after = sum(cpu_seconds(pid) for pid in worker)
    return {
        "start": start,
        "start_unix": start_unix,
        "wall_s": drained - start,
        "outcomes": outcomes,
        "delta": {key: after[key] - before.get(key, 0.0) for key in after},
        "worker_cpu_s": cpu_after - cpu_before,
        "peak_rss_mb": daemon.peak_rss_mb(),
        "jobs": {digest: client.job(digest) for digest in plan.digests},
        "traces": {d: client.trace(d) for d in plan.digests} if trace else {},
    }


def _summary(phase, plan: Plan, plain, probe: SpeedProbe) -> Dict[str, Any]:
    jobs, outcomes, schedule = phase["jobs"], phase["outcomes"], plan.schedule
    start, start_unix = phase["start"], phase["start_unix"]
    replayed = outputs_by_digest(plain)
    failures: List[str] = []
    due, finished, read_rt, runs = {}, {}, [], []
    for slot in schedule:
        sent, answered, status, body = outcomes[slot.index]
        if slot.fresh is not None:
            digest = plan.digests[slot.fresh]
            if status != 200 or body.get("deduplicated"):
                failures.append(f"fresh {digest[:12]}: HTTP {status}, {str(body)[:120]}")
                continue
            job = jobs[digest]
            if job["state"] != "done":
                failures.append(f"fresh {digest[:12]}: job {job['state']}")
                continue
            served = summarise(job["result"])
            if digest not in replayed or not same_outputs(served, replayed[digest]):
                failures.append(f"fresh {digest[:12]}: envelope differs from the in-process solve")
                continue
            problems = run_failures(digest, served)
            if problems:
                failures += problems
                continue
            runs += served
            due[digest] = start_unix + slot.due_s
            finished[digest] = job["finished_at"]
        else:
            target = plan.digests[schedule[slot.repeat_of].fresh]
            sent_unix = start_unix + (sent - start)
            target_finished = jobs[target].get("finished_at")
            job = body.get("job", {}) if status == 200 else {}
            if (
                not (status == 200 and body.get("deduplicated"))
                or job.get("state") != "done"
                or target_finished is None
                or target_finished > sent_unix - REPEAT_MIN_FINISHED_S
            ):
                failures.append(f"repeat of {target[:12]}: HTTP {status}, not a finished read")
                continue
            read_rt.append((answered - sent) * probe.factor(sent, answered))
    unscaled = served_latencies(finished, due)
    latencies = [
        latency * probe.factor(due[digest], finished[digest], column=1)
        for digest, latency in zip(due, unscaled)
    ]
    metrics = dict(output_totals(runs))
    metrics["peak_rss_mb"] = phase["peak_rss_mb"]
    metrics["latency_p50_s"] = median(latencies)
    latency_tail = tail(latencies)
    extra = {
        "requests_per_s": 0.0,
        "latency_tail_s": latency_tail["value"] if latency_tail else 0.0,
        "read_p50_s": median(read_rt),
    }
    return {
        "metrics": metrics,
        "extra": extra,
        "latency_tail": latency_tail,
        "read_rt": read_rt,
        "unscaled_latencies": unscaled,
        "failures": failures,
        "failed": len(failures),  # at most one message per slot
        "attempted": len(schedule),
    }


def _layers(phase, plan: Plan, traced, plain, probe: SpeedProbe) -> Dict[str, float]:
    layers = in_process_layers(traced, plain, probe)
    delta, jobs, schedule = phase["delta"], phase["jobs"], plan.schedule
    done = [d for d in plan.digests if jobs[d]["state"] == "done"]
    waits = [jobs[d]["started_at"] - jobs[d]["created_at"] for d in done]
    spans = [phase["traces"][d]["sources"].get("worker", {}).get("spans", []) for d in done]
    execute = [_span_walls(s, "worker.execute") - _span_walls(s, "worker.persist") for s in spans]
    wait_tail = tail(waits)
    outcomes = phase["outcomes"]
    fresh_rt = [
        outcomes[slot.index][1] - outcomes[slot.index][0]
        for slot in schedule
        if slot.fresh is not None and outcomes[slot.index][2] == 200
    ]
    busy = delta.get("repro_fleet_busy_seconds_total", 0.0)
    # server timings at the reference speed, like the end-to-end ones
    scale = probe.factor(phase["start"], phase["start"] + phase["wall_s"])
    layers.update(
        {
            "server.submit.p50_s": median(fresh_rt) * scale,
            "server.queue_wait.p50_s": median(waits) * scale,
            "server.queue_wait.tail_s": (wait_tail["value"] if wait_tail else 0.0) * scale,
            "server.execute.p50_s": median(execute) * scale,
            "server.serialize.p50_s":
                median([_span_walls(s, "store.serialize") for s in spans]) * scale,
            "server.persist.p50_s": median([_span_walls(s, "worker.persist") for s in spans]) * scale,
            "server.claim.jobs_per_batch": ratio(
                delta.get("repro_claim_batch_jobs_total", 0.0),
                delta.get("repro_claim_batches_total", 0.0),
            ),
            "server.fast_path.hit_ratio": ratio(
                delta.get("repro_fast_path_hits_total", 0.0),
                delta.get("repro_submissions_total", 0.0),
            ),
            "server.worker.busy_ratio": ratio(busy, phase["wall_s"]),
            "server.rejected": float(sum(1 for o in outcomes if o[2] == 429)),
            "server.jobs_failed": delta.get("repro_fleet_jobs_failed_total", 0.0),
            "proc.cpu_ratio": ratio(phase["worker_cpu_s"], busy),
            "generator.late_s": max(
                0.0, max(o[0] - (phase["start"] + s.due_s) for s, o in zip(schedule, outcomes))
            ),
        }
    )
    return layers
