"""Metric registry, child-process runner and output checks shared by the workloads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.probe import SpeedProbe, pin
from perfbench.stats import mean, median, ratio, tail

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes lands here (git-ignored).
OUT = ROOT / "perfbench" / ".out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Set-ups measured per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Gated end-to-end metrics every workload reports (``--trace 0``).  The
#: timings are rescaled to the reference speed of the measured core (see
#: ``perfbench/probe.py``).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "repairs_total": "count",
    "satisfied_pct_mean": "%",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every workload reports (``--trace 1``); a layer a
#: workload's requests never enter reads 0.  The first three are end-to-end
#: timings that exist on some workloads only, taken from the untraced pass
#: of the same invocation and rescaled like ``latency_p50_s``.
PER_LAYER = {
    "requests_per_s": "1/s",
    "latency_tail_s": "s",
    "read_p50_s": "s",
    "api.materialise.calls": "count",
    "api.materialise.s": "s",
    "api.demand_build.s": "s",
    "api.topology_cache.hit_ratio": "ratio",
    "alg.ISP.s": "s",
    "alg.OPT.s": "s",
    "alg.SRT.s": "s",
    "alg.GRD-COM.s": "s",
    "alg.GRD-NC.s": "s",
    "alg.ALL.s": "s",
    "core.routability.calls": "count",
    "core.routability.s": "s",
    "core.prune.calls": "count",
    "core.prune.s": "s",
    "core.prune.hit_ratio": "ratio",
    "core.centrality.calls": "count",
    "core.centrality.s": "s",
    "core.split_select.calls": "count",
    "core.split_select.s": "s",
    "core.split_select.hit_ratio": "ratio",
    "core.split_amount.calls": "count",
    "core.split_amount.s": "s",
    "core.finalise.s": "s",
    "core.fallback.calls": "count",
    "core.isp.iterations": "count",
    "network.working_graph.calls": "count",
    "network.working_graph.s": "s",
    "network.full_graph.calls": "count",
    "network.full_graph.s": "s",
    "flows.maxflow.calls": "count",
    "flows.maxflow.s": "s",
    "solver.lp.calls": "count",
    "solver.lp.s": "s",
    "solver.milp.calls": "count",
    "solver.milp.s": "s",
    "solver.build.s": "s",
    "solver.structure_cache.hit_ratio": "ratio",
    "opt.bound_reuses": "count",
    "opt.benders_iterations": "count",
    "evaluation.audit.calls": "count",
    "evaluation.audit.s": "s",
    "server.submit.p50_s": "s",
    "server.queue_wait.p50_s": "s",
    "server.queue_wait.tail_s": "s",
    "server.execute.p50_s": "s",
    "server.serialize.p50_s": "s",
    "server.persist.p50_s": "s",
    "server.claim.jobs_per_batch": "jobs/batch",
    "server.fast_path.hit_ratio": "ratio",
    "server.worker.busy_ratio": "ratio",
    "server.rejected": "count",
    "server.jobs_failed": "count",
    "proc.cpu_ratio": "ratio",
    "proc.probe_speed": "ratio",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "generator.late_s": "s",
}


class ChildFailed(RuntimeError):
    """A benchmark child process crashed, hung or broke its protocol."""


@dataclass
class ChildRun:
    """One finished child: its ``time.perf_counter`` launch and ``READY``
    readings and its report (None for a set-up-only child)."""

    launched: float
    ready: float
    report: Optional[Dict[str, Any]]

    def setup_s(self, probe: SpeedProbe) -> float:
        """Launch to ``READY``, rescaled to the reference speed."""
        return (self.ready - self.launched) * probe.factor(self.launched, self.ready)


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts.

    One BLAS/OpenMP thread, a fixed hash seed, a bytecode cache under the
    output directory (whatever the caller's setting, so set-up time does
    not depend on it), and the library's defaults (no backend, strategy or
    cache-size overrides inherited from the caller).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    for name in ("PYTHONDONTWRITEBYTECODE", "REPRO_LP_BACKEND", "REPRO_OPT_STRATEGY",
                 "REPRO_TOPOLOGY_CACHE"):
        env.pop(name, None)
    return env


def run_child(
    workload: str,
    workload_seed: int,
    count: int,
    deadline: float,
    cpu: Optional[int],
    order_seed: Optional[int] = None,
    setup_only: bool = False,
    trace: bool = False,
) -> ChildRun:
    """Run ``perfbench.child`` to completion, pinned to core ``cpu``.

    The child is killed at ``deadline`` (a ``time.perf_counter`` value).
    """
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload,
        "--workload-seed", str(workload_seed),
        "--count", str(count),
    ]
    if order_seed is not None:
        command += ["--order-seed", str(order_seed)]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command.append("--trace")
    log_path = OUT / f"{workload}.child.log"
    ready: Optional[float] = None
    report: Optional[Dict[str, Any]] = None
    with open(log_path, "ab") as log:
        launched = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log, text=True
        )
        watchdog = threading.Timer(max(1.0, deadline - launched), process.kill)
        watchdog.start()
        try:
            pin(process.pid, cpu)
            for line in process.stdout:
                if line == "READY\n":
                    ready = time.perf_counter()
                elif line.startswith("RESULT "):
                    report = json.loads(line[len("RESULT "):])
        finally:
            watchdog.cancel()
            process.stdout.close()
            code = process.wait()
    if code != 0 or ready is None or (report is None and not setup_only):
        raise ChildFailed(f"{' '.join(command[2:])} exited with {code}; see {log_path}")
    return ChildRun(launched, ready, report)


# ---------------------------------------------------------------------- #
# Outputs and checks
# ---------------------------------------------------------------------- #
def output_totals(runs: List[Dict[str, Any]]) -> Dict[str, float]:
    """``repairs_total`` and ``satisfied_pct_mean`` over (request, algorithm) runs."""
    return {
        "repairs_total": float(sum(run["metrics"]["total_repairs"] for run in runs)),
        "satisfied_pct_mean": mean(run["metrics"]["satisfied_pct"] for run in runs),
    }


def run_failures(digest: str, runs: List[Dict[str, Any]]) -> List[str]:
    """Output checks of one request: OPT proves its optimum, ISP satisfies all demand."""
    problems = []
    for run in runs:
        if run["algorithm"] == "OPT" and run["status"] != "optimal":
            problems.append(f"{digest[:12]}: OPT status {run['status']!r}, not proven optimal")
        if run["algorithm"] == "ISP" and run["metrics"]["satisfied_pct"] < 100.0 - 1e-9:
            problems.append(
                f"{digest[:12]}: ISP satisfied {run['metrics']['satisfied_pct']:.4f}% of demand"
            )
    return problems


def check_recorded(key: str, totals: Dict[str, float]) -> Tuple[bool, str]:
    """Compare output totals with the values recorded for ``key``, if any."""
    recorded = json.loads(EXPECTED.read_text()).get(key)
    if recorded is None:
        return True, f"no totals recorded for {key}: outputs checked by invariants only"
    for name, value in recorded.items():
        if abs(totals[name] - value) > 1e-9 * max(1.0, abs(value)):
            return False, f"{name} = {totals[name]!r}, recorded {value!r} for {key}"
    return True, f"totals equal the values recorded for {key}"


def rescaled_walls(child: Dict[str, Any], probe: SpeedProbe) -> List[float]:
    """Each solved request's wall seconds at the reference speed."""
    return [
        record["wall_s"] * probe.factor(record["start"], record["start"] + record["wall_s"])
        for record in child["requests"]
        if "error" not in record
    ]


def in_process_summary(child: Dict[str, Any], probe: SpeedProbe) -> Dict[str, Any]:
    """End-to-end numbers and failures of one in-process child report."""
    done = [record for record in child["requests"] if "error" not in record]
    failures = [f"{r['digest'][:12]}: {r['error']}" for r in child["requests"] if "error" in r]
    failed = len(failures)
    runs = [run for record in done for run in record["runs"]]
    for record in done:
        problems = run_failures(record["digest"], record["runs"])
        failed += bool(problems)
        failures += problems
    walls = rescaled_walls(child, probe)
    loop_s = child["wall_s"] * probe.factor(child["start"], child["start"] + child["wall_s"])
    metrics = dict(output_totals(runs))
    metrics["peak_rss_mb"] = child["peak_rss_mb"]
    metrics["latency_p50_s"] = median(walls)
    latency_tail = tail(walls)
    extra = {
        "requests_per_s": ratio(len(done), loop_s),
        "latency_tail_s": latency_tail["value"] if latency_tail else 0.0,
        "read_p50_s": 0.0,
    }
    return {
        "metrics": metrics,
        "extra": extra,
        "latency_tail": latency_tail,
        "failures": failures,
        "failed": failed,
        "attempted": len(child["requests"]),
    }


def in_process_layers(
    traced: Dict[str, Any], plain: Dict[str, Any], probe: SpeedProbe
) -> Dict[str, float]:
    """Per-layer metrics of a traced child, with ``plain`` as the untraced twin.

    Layer seconds are rescaled to the reference speed, by the probe's
    samples over the traced loop.
    """
    scale = probe.factor(traced["start"], traced["start"] + traced["wall_s"])
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(
        {name: value * scale if name.endswith(".s") else value
         for name, value in traced["layers"].items()}
    )
    runs = [run for record in traced["requests"] if "runs" in record for run in record["runs"]]

    def solver(key: str) -> float:
        return float(sum(run["solver"].get(key, 0.0) for run in runs))

    hits, misses = solver("structure_hits"), solver("structure_misses")
    cache = traced["topology_cache"]
    request_wall = sum(record["wall_s"] for record in traced["requests"])
    layers.update(
        {
            "solver.build.s": solver("build_seconds") * scale,
            "solver.structure_cache.hit_ratio": ratio(hits, hits + misses),
            "opt.bound_reuses": solver("bound_reuses"),
            "opt.benders_iterations": solver("benders_iterations"),
            "core.isp.iterations": float(
                sum(run["iterations"] for run in runs if run["algorithm"] == "ISP")
            ),
            "api.topology_cache.hit_ratio": ratio(cache["hits"], cache["hits"] + cache["misses"]),
            "proc.cpu_ratio": ratio(traced["cpu_s"], traced["wall_s"]),
            "proc.probe_speed": probe.speed(),
            "trace.overhead_pct": 100.0 * (
                ratio(sum(rescaled_walls(traced, probe)), sum(rescaled_walls(plain, probe))) - 1.0
            ),
            "trace.unattributed_pct": 100.0
            * ratio(request_wall - traced["top_level_s"], request_wall),
        }
    )
    return layers


def outputs_by_digest(child: Dict[str, Any]) -> Dict[str, List[Dict[str, Any]]]:
    return {r["digest"]: r["runs"] for r in child["requests"] if "runs" in r}


def same_outputs(left: List[Dict[str, Any]], right: List[Dict[str, Any]]) -> bool:
    """Per-algorithm metrics (without elapsed seconds) and repair lists agree."""
    keys = ("algorithm", "metrics", "repaired_nodes", "repaired_edges")
    return [{k: run[k] for k in keys} for run in left] == [
        {k: run[k] for k in keys} for run in right
    ]


def same_children_outputs(left: Dict[str, Any], right: Dict[str, Any]) -> bool:
    """Two child reports solved the same requests to the same outputs."""
    left, right = outputs_by_digest(left), outputs_by_digest(right)
    return left.keys() == right.keys() and all(
        same_outputs(runs, right[digest]) for digest, runs in left.items()
    )
