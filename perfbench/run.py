#!/usr/bin/env python3
"""Fixed-work benchmark of the recovery library: three workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload isp-caida --seed 1 --seconds 20 --trace 0

``--workload`` is ``isp-caida``, ``paper-bell`` or ``served-mix``.  With
``--trace 0`` the run is untraced and the result line carries the
end-to-end metrics; with ``--trace 1`` a separate traced run gives the
per-layer metrics.  The request list is fixed by ``--workload-seed`` and
``--seconds``; ``--seed`` only sets the issue order (in-process) or the
arrival jitter and repeat targets (served).  Timed processes run on one
core next to a speed probe, and timings are rescaled to the probe's
reference speed (``perfbench/probe.py``).  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric with its unit, and the full report is written
to ``perfbench/.out/``.  ``--self-check`` runs the workload twice with two
``--seed`` values and fails unless outputs and every count repeat exactly.
``perfbench/PREDICTIONS.md`` says what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.pycache_prefix = str(ROOT / "perfbench" / ".out" / "pycache")
sys.dont_write_bytecode = False
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import workloads  # noqa: E402
from perfbench.common import (  # noqa: E402
    END_TO_END,
    OUT,
    PER_LAYER,
    SETUP_REPEATS,
    ChildFailed,
    check_recorded,
    child_env,
    in_process_layers,
    in_process_summary,
    run_child,
    same_children_outputs,
)
from perfbench.probe import SpeedProbe, measured_cpu  # noqa: E402
from perfbench.stats import median  # noqa: E402

#: Workload seed of the recorded baseline (also written in BENCHMARK.json).
DEFAULT_WORKLOAD_SEED = 2016
#: Second workload seed: a claimed gain must also hold on this list.
CHECK_WORKLOAD_SEED = 2017
#: A run ends within this many seconds, or fails without a result line.
RUN_BUDGET_S = 170.0


def in_process(args, deadline: float, probe: SpeedProbe) -> dict:
    count = workloads.request_count(args.workload, args.seconds)

    def child(**options):
        return run_child(args.workload, args.workload_seed, count, deadline, probe.cpu,
                         order_seed=args.seed, **options)

    try:
        if args.trace:
            plain, traced = child(), child(trace=True)
            setups = [plain]
        else:
            # set-ups before and after the timed child sample more machine states
            setups = [child(setup_only=True)]
            plain = child()
            setups.append(plain)
            setups += [child(setup_only=True) for _ in range(SETUP_REPEATS - 2)]
    finally:
        probe.stop()
    report = in_process_summary(plain.report, probe)
    report["setup_samples"] = [run.setup_s(probe) for run in setups]
    report["metrics"]["setup_s"] = median(report["setup_samples"])
    report["unscaled"] = {
        "setup_s": median([run.ready - run.launched for run in setups]),
        "latency_p50_s": median([r["wall_s"] for r in plain.report["requests"]]),
        "probe_speed": probe.speed(),
    }
    if args.trace:
        report["layers"] = in_process_layers(traced.report, plain.report, probe)
        if not same_children_outputs(traced.report, plain.report):
            report["failures"].append("traced and untraced runs produced different outputs")
    report["count"] = count
    return report


def self_check(args, deadline: float, probe: SpeedProbe) -> int:
    """The workload twice with seeds ``--seed`` and ``--seed + 1``: outputs
    and every count must repeat.  In-process: two traced passes in two
    issue orders.  Served: two daemon phases with two arrival schedules."""
    if args.workload == "served-mix":
        from perfbench import served

        first, second, same = served.self_check(
            args.workload_seed, args.seed, args.seconds, deadline, probe
        )
    else:
        count = workloads.request_count(args.workload, args.seconds)
        children = []
        try:
            for order_seed in (args.seed, args.seed + 1):
                children.append(run_child(args.workload, args.workload_seed, count, deadline,
                                          probe.cpu, order_seed=order_seed, trace=True).report)
        finally:
            probe.stop()
        passes = []
        for traced in children:
            summary = in_process_summary(traced, probe)
            counts = {
                name: value for name, value in in_process_layers(traced, traced, probe).items()
                if name.endswith((".calls", ".iterations", ".bound_reuses", ".benders_iterations"))
            }
            counts["repairs_total"] = summary["metrics"]["repairs_total"]
            counts["satisfied_pct_mean"] = summary["metrics"]["satisfied_pct_mean"]
            counts["failed"] = float(summary["failed"])
            passes.append(counts)
        first, second = passes
        same = not any(counts["failed"] for counts in passes) and same_children_outputs(*children)
    differing = sorted(name for name in first if first[name] != second[name])
    for name, value in sorted(first.items()):
        mark = "" if name not in differing else f"   != {second[name]!r}"
        print(f"  {name:<34} {value!r}{mark}")
    passed = same and not differing
    print(json.dumps({"self_check": passed, "workload": args.workload, "differing": differing}))
    return 0 if passed else 1


def _print_table(args, report: dict) -> None:
    print(f"perfbench {args.workload}: workload seed {args.workload_seed}, seed {args.seed}, "
          f"--seconds {args.seconds:g}, trace {args.trace}")
    print(f"  attempted {report['attempted']}, failed {report['failed']}")
    for failure in report["failures"][:20]:
        print(f"  FAILED {failure}")
    print(f"  check: {report['recorded']}")
    rows = [(name, report["metrics"][name], unit) for name, unit in END_TO_END.items()]
    rows += [
        (name, report["layers"][name] if "layers" in report else report["extra"][name], unit)
        for name, unit in PER_LAYER.items()
        if "layers" in report or name in report["extra"]
    ]
    for name, value, unit in rows:
        print(f"  {name:<34} {value:.6g} {unit}")
    latency_tail = report.get("latency_tail")
    if latency_tail:
        print(f"  latency_tail_s is p{latency_tail['percentile']:g} of "
              f"{latency_tail['samples']} samples ({latency_tail['beyond']} beyond it)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="issue order / arrival jitter seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run length; sets the fixed request count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=DEFAULT_WORKLOAD_SEED,
                        help=f"seed of the request list (claims are re-checked "
                             f"with {CHECK_WORKLOAD_SEED})")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # a caller's SIGTERM unwinds through the finally blocks that stop the daemon
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}.child.log").write_bytes(b"")
    deadline = time.perf_counter() + RUN_BUDGET_S
    # timed processes and the speed probe share one core; this process
    # (the served generator) keeps to the others
    cpu = measured_cpu()
    others = set(os.sched_getaffinity(0)) - {cpu} if cpu is not None else set()
    if others:
        os.sched_setaffinity(0, others)
    try:
        probe = SpeedProbe(cpu, child_env(), ROOT)
        try:
            if args.self_check:
                return self_check(args, deadline, probe)
            if args.workload == "served-mix":
                from perfbench import served

                report = served.run(args.workload_seed, args.seed, args.seconds,
                                    bool(args.trace), deadline, probe)
            else:
                report = in_process(args, deadline, probe)
        finally:
            probe.stop()
    except (ChildFailed, RuntimeError, OSError) as error:
        print(f"perfbench: {args.workload} did not complete: {error}", file=sys.stderr)
        return 1
    if args.trace:
        report["layers"].update(report["extra"])
    totals = {name: report["metrics"][name] for name in ("repairs_total", "satisfied_pct_mean")}
    recorded_ok, report["recorded"] = check_recorded(
        f"{args.workload}/{args.workload_seed}/{report['count']}", totals
    )
    _print_table(args, report)
    (OUT / f"{args.workload}.report.json").write_text(json.dumps(report, indent=1, default=str))

    chosen = PER_LAYER if args.trace else END_TO_END
    values = report["layers"] if args.trace else report["metrics"]
    result = {
        "correct": recorded_ok and not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
