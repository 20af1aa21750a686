"""One fresh interpreter solving one request list through ``RecoveryService``.

Protocol on stdout: ``READY`` once set-up is done (imports, request
generation, one fixed warm-up request), then ``RESULT <json>`` after the
timed loop.  With ``--setup-only`` the process exits after ``READY``.  The
timed loop is single-threaded and closed: each request is sent when the
previous one has returned.  Times are ``time.perf_counter`` readings, which
the benchmark matches against its speed probe's samples.

Run from the repository root with ``src`` and the root on ``PYTHONPATH``:
``python3 -m perfbench.child --workload paper-bell --workload-seed 2016
--count 4``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from typing import Any, Dict, List


def _run_summary(run: Dict[str, Any]) -> Dict[str, Any]:
    plan = run.get("plan", {})
    return {
        "algorithm": run["algorithm"],
        "metrics": {k: v for k, v in run["metrics"].items() if k != "elapsed_seconds"},
        "repaired_nodes": plan.get("repaired_nodes", []),
        "repaired_edges": plan.get("repaired_edges", []),
        "status": plan.get("status"),
        "iterations": plan.get("iterations", 0),
        "solver": run.get("solver", {}),
    }


def summarise(envelope: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-run outputs of one JSON result envelope (served or in-process)."""
    return [_run_summary(run) for run in envelope["results"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workload-seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--order-seed", type=int, default=None,
                        help="shuffle the list with this seed (default: list order)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true", help="wrap the layers while timing")
    args = parser.parse_args(argv)

    from repro.api.service import RecoveryService

    from perfbench import workloads
    from perfbench.layers import LayerTracer, install_repro_layers, layer_metrics

    service = RecoveryService()
    requests = workloads.requests_for(args.workload, args.workload_seed, args.count)
    if args.order_seed is not None:
        random.Random(f"order/{args.order_seed}").shuffle(requests)
    service.solve(workloads.warmup_request(args.workload))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = LayerTracer()
    if args.trace:
        install_repro_layers(tracer)
    cache_before = service.cache_info()
    outcomes = []
    cpu_started = time.process_time()
    wall_started = time.perf_counter()
    for request in requests:
        started = time.perf_counter()
        try:
            result = service.solve(request)
        except Exception as error:  # a failed request is a counted failure
            outcomes.append((request, None, started, 0.0, f"{type(error).__name__}: {error}"))
            continue
        outcomes.append((request, result, started, time.perf_counter() - started, None))
    wall = time.perf_counter() - wall_started
    cpu = time.process_time() - cpu_started
    tracer.restore()
    cache_after = service.cache_info()

    records = []
    for request, result, started, seconds, error in outcomes:
        record = {"digest": request.digest(), "start": started, "wall_s": seconds}
        if error is None:
            record["runs"] = summarise(json.loads(json.dumps(result.to_dict())))
        else:
            record["error"] = error
        records.append(record)
    hits = cache_after["topology_cache_hits"] - cache_before["topology_cache_hits"]
    misses = cache_after["topology_cache_misses"] - cache_before["topology_cache_misses"]
    report = {
        "start": wall_started,
        "wall_s": wall,
        "cpu_s": cpu,
        # ru_maxrss is the peak resident set in KiB on Linux (VmHWM)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": records,
        "topology_cache": {"hits": hits, "misses": misses},
    }
    if args.trace:
        report["layers"] = layer_metrics(tracer)
        report["top_level_s"] = tracer.top_level_s
    sys.stdout.write("RESULT " + json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
