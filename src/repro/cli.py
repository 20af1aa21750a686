"""Command-line interface for the recovery library.

Every sub-command is a thin client of :mod:`repro.api`: the arguments are
parsed into a declarative request, handed to a
:class:`~repro.api.service.RecoveryService`, and the versioned result
envelope is printed as a table or — with ``--json`` — as the raw envelope
for scripting and service smoke tests.

``solve``
    Build (or load) a topology, apply a disruption, generate a demand graph
    and run one or more recovery algorithms, printing the comparison table
    (or the JSON envelope).

``sweep``
    Run one of the registered sweep experiments (the paper's figures)
    through the parallel experiment engine: ``--jobs`` fans the instances
    out to worker processes, ``--resume`` persists completed cells to an
    on-disk cache so interrupted or extended sweeps pick up where they left
    off instead of recomputing (MILP solves are never repeated).  Per-cell
    progress lines include solver effort (``lp=<solves>x<ms>``).

``assess``
    Print the damage-assessment report of a disrupted instance without
    running any recovery algorithm.

``fuzz``
    Sample a budget of scenarios from the declarative scenario space (zoo
    topologies x compound failures x demand sizes), solve each with every
    requested algorithm through the batch engine, and — with ``--verify`` —
    audit every plan against the cross-algorithm invariants
    (:mod:`repro.verification`).  Exits non-zero on any violation, which is
    what makes it a CI gate.

``online``
    Run a seeded online-recovery campaign: repeated plan / execute-prefix /
    perturb / observe epochs over one instance, with limited repair crews,
    optional fog-of-war damage knowledge and mid-recovery disruption events
    (``--event aftershock,variance=40,at=1``).  Reports per-episode regret
    against a clairvoyant baseline solved on the final realized damage;
    with ``--verify`` the full invariant battery runs on every epoch and
    the command exits non-zero on any violation or on an episode that
    beats a *proven* optimal baseline (an impossibility), which is what
    makes it a CI gate.

``serve``
    Run the recovery daemon: a durable SQLite job store, an asyncio JSON
    API (``/v1/solve``, ``/v1/assess``, ``/v1/batch``, ``/v1/jobs/{id}``,
    ``/healthz``, ``/metrics``) and a fleet of worker processes.  Jobs are
    deduplicated by request digest and survive daemon restarts; SIGTERM
    drains gracefully.

``loadtest``
    Replay generated scenario traffic against a running daemon at a target
    request rate and write ``BENCH_server.json`` (achieved RPS, submit and
    job latency percentiles, dedup hit rate).  Exits non-zero if any job
    fails, which is what makes it a CI smoke gate.

``topologies`` / ``algorithms`` / ``scenarios``
    List the registered topology builders, recovery algorithms and sweep
    experiment specs.

Every ``--json`` flag pairs with ``--out FILE``: the envelope is then
written atomically (temp + rename) instead of printed, so artefact readers
never observe a partial file.

Examples
--------
::

    python -m repro.cli solve --topology bell-canada --disruption complete \
        --pairs 4 --flow 10 --algorithms ISP SRT ALL
    python -m repro.cli solve --topology grid --topology-arg rows=3 \
        --topology-arg cols=3 --algorithms ISP --json | python -m json.tool
    python -m repro.cli sweep figure4 --jobs 4 --seed 11 --runs 5 --resume
    python -m repro.cli assess --topology bell-canada --disruption gaussian --variance 60
    python -m repro.cli solve --topology barabasi-albert --disruption cascading \
        --disruption-arg num_triggers=2 --disruption-arg propagation_factor=1.5
    python -m repro.cli fuzz --budget 25 --verify --seed 7
    python -m repro.cli online --topology grid --topology-arg rows=5 \
        --topology-arg cols=5 --disruption gaussian --variance 2 \
        --epochs 4 --crews 2 --fog 0.3 --event aftershock,variance=2,at=1 \
        --episodes 3 --verify
    python -m repro.cli serve --db repro-server.db --port 8351 --workers 4
    python -m repro.cli loadtest --rps 20 --duration 30 --out BENCH_server.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from repro.api.requests import (
    AssessmentRequest,
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
    available_disruptions,
)
from repro.api.service import RecoveryService
from repro.engine.registry import available_specs, get_spec
from repro.evaluation.reporting import format_table
from repro.heuristics.registry import available_algorithms
from repro.topologies.registry import available_topologies
from repro.utils.jsonio import emit_json

#: Default cache directory for ``sweep --resume``.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default artefact path of ``loadtest``.
DEFAULT_BENCH_PATH = "BENCH_server.json"


def _parse_value(text: str) -> object:
    """Parse a ``key=value`` value: bool, int, float, then plain string.

    Booleans must be recognised here — a literal ``"false"`` forwarded as a
    string would be *truthy* under the models' ``bool()`` coercion.
    """
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def _keyword_arguments(items: Optional[Sequence[str]], flag: str) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    for item in items or []:
        if "=" not in item:
            raise SystemExit(f"{flag} expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        kwargs[key] = _parse_value(value)
    return kwargs


def _instance_sections(args: argparse.Namespace):
    """The (topology, disruption, demand) section specs an instance needs."""
    try:
        topology = TopologySpec(
            args.topology, kwargs=_keyword_arguments(args.topology_arg, "--topology-arg")
        )
        disruption_kwargs = _keyword_arguments(args.disruption_arg, "--disruption-arg")
        if args.disruption in ("gaussian", "multi-gaussian"):
            disruption_kwargs.setdefault("variance", args.variance)
        elif args.disruption == "random":
            disruption_kwargs.setdefault("node_probability", args.failure_probability)
            disruption_kwargs.setdefault("edge_probability", args.failure_probability)
        disruption = DisruptionSpec(args.disruption, kwargs=disruption_kwargs)
        demand = DemandSpec("routable-far-apart", num_pairs=args.pairs, flow_per_pair=args.flow)
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0])) from None
    return topology, disruption, demand


def _command_solve(args: argparse.Namespace) -> int:
    topology, disruption, demand = _instance_sections(args)
    try:
        request = RecoveryRequest(
            topology=topology,
            disruption=disruption,
            demand=demand,
            algorithms=tuple(args.algorithms),
            seed=args.seed,
            opt_time_limit=args.opt_time_limit,
        )
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0])) from None
    try:
        result = RecoveryService().solve(request)
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0])) from None
    if args.json or args.out:
        emit_json(result.to_dict(), out=args.out)
        return 0
    print(
        format_table(
            result.rows(),
            columns=[
                "algorithm",
                "node_repairs",
                "edge_repairs",
                "total_repairs",
                "satisfied_pct",
                "elapsed_seconds",
            ],
            title=(
                f"Recovery on {args.topology!r} "
                f"({args.pairs} pairs x {args.flow} units, disruption={args.disruption})"
            ),
        )
    )
    return 0


def _command_assess(args: argparse.Namespace) -> int:
    topology, disruption, demand = _instance_sections(args)
    request = AssessmentRequest(
        topology=topology, disruption=disruption, demand=demand, seed=args.seed
    )
    try:
        result = RecoveryService().assess(request)
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0])) from None
    if args.json or args.out:
        emit_json(result.to_dict(), out=args.out)
        return 0
    print(format_table(result.rows(), columns=["metric", "value"], title="Damage assessment"))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    service = RecoveryService()
    if args.jobs < 0:
        raise SystemExit("--jobs must be a positive integer, or 0 for one per CPU")
    try:
        spec = get_spec(args.spec)
    except KeyError as error:
        raise SystemExit(error.args[0]) from None

    changes: Dict[str, object] = {}
    if args.values:
        changes["sweep_values"] = tuple(_parse_value(value) for value in args.values)
    if args.runs is not None:
        changes["runs"] = args.runs
    if args.algorithms:
        changes["algorithms"] = tuple(args.algorithms)
    if args.opt_time_limit is not None:
        limit = args.opt_time_limit
        changes["opt_time_limit"] = None if limit <= 0 else limit

    cache_dir = args.cache_dir if args.cache_dir else (DEFAULT_CACHE_DIR if args.resume else None)

    def progress(completed: int, total: int, result) -> None:
        source = "cache" if result.cached else f"{result.wall_seconds:.2f}s"
        solver = ""
        lp_solves = result.solver.get("lp_solves", 0)
        milp_solves = result.solver.get("milp_solves", 0)
        solves = lp_solves + milp_solves
        if solves:
            solve_seconds = result.solver.get("solve_seconds", 0.0)
            counts = " ".join(
                f"{kind}={int(count)}"
                for kind, count in (("lp", lp_solves), ("milp", milp_solves))
                if count
            )
            if lp_solves and milp_solves:
                # Mixed cell: a pooled per-solve average would misattribute
                # the MILP's cost, so report the total instead.
                solver = f" {counts} tot={1000.0 * solve_seconds:.0f}ms"
            else:
                solver = f" {counts}x{1000.0 * solve_seconds / solves:.0f}ms"
        print(
            f"[{completed}/{total}] {spec.sweep.parameter}={result.sweep_value} "
            f"run={result.run_index} {result.algorithm} ({source}{solver})",
            file=sys.stderr,
        )

    result = service.sweep(
        spec,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=cache_dir,
        progress=progress if not args.quiet else None,
        **changes,
    )
    print(
        format_table(
            result.rows,
            columns=[
                spec.sweep.parameter,
                "algorithm",
                "runs",
                "node_repairs",
                "edge_repairs",
                "total_repairs",
                "satisfied_pct",
                "elapsed_seconds",
            ],
            title=f"{result.figure} — {spec.name} (seed={args.seed}, jobs={args.jobs})",
        )
    )
    return 0


def _command_fuzz(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.scenarios import DEFAULT_SPACE, run_fuzz

    if args.jobs < 0:
        raise SystemExit("--jobs must be a positive integer, or 0 for one per CPU")
    space = DEFAULT_SPACE
    if args.algorithms:
        space = dataclasses.replace(space, algorithms=tuple(args.algorithms))
    if args.opt_time_limit is not None:
        space = dataclasses.replace(space, opt_time_limit=args.opt_time_limit)

    def progress(completed: int, total: int, result) -> None:
        source = "cache" if result.cached else f"{result.wall_seconds:.2f}s"
        print(f"[{completed}/{total}] {result.algorithm} ({source})", file=sys.stderr)

    try:
        report = run_fuzz(
            budget=args.budget,
            seed=args.seed,
            space=space,
            service=RecoveryService(),
            jobs=args.jobs,
            verify=args.verify,
            cache_dir=args.cache_dir,
            progress=progress if not args.quiet else None,
        )
    except (KeyError, ValueError, RuntimeError) as error:
        raise SystemExit(str(error.args[0])) from None

    if args.json or args.out:
        emit_json(report.to_dict(), out=args.out)
    else:
        print(
            format_table(
                report.rows(),
                columns=[
                    "request",
                    "topology",
                    "disruption",
                    "pairs",
                    "broken",
                    "algorithms",
                    "violations",
                ],
                title=(
                    f"Fuzz campaign (budget={args.budget}, seed={args.seed}, "
                    f"verify={'on' if args.verify else 'off'}, "
                    f"{report.wall_seconds:.1f}s)"
                ),
            )
        )
        for violation in report.violations:
            print(f"VIOLATION {violation}", file=sys.stderr)
        if args.verify:
            downgraded = report.audit.unproven_baselines
            baseline_note = (
                f", {downgraded} request(s) without a proven OPT baseline"
                if downgraded
                else ""
            )
            print(
                f"{report.audit.checked} plans audited, "
                f"{len(report.violations)} invariant violation(s){baseline_note}",
                file=sys.stderr,
            )
            gaps = report.audit.gap_summary()
            if gaps["count"]:
                print(
                    f"OPT optimality gap over {gaps['count']} audited run(s): "
                    f"mean {gaps['mean']:.2%}, max {gaps['max']:.2%}",
                    file=sys.stderr,
                )
    return 0 if report.ok else 1


def _parse_event(text: str):
    """Parse one ``--event`` value: ``KIND[,key=value,...]``.

    The trigger keys ``at`` (``+``-separated epoch indices), ``every`` and
    ``probability``/``p`` configure *when* the event fires; every other
    ``key=value`` pair is forwarded to the failure model (e.g. an
    aftershock's ``variance``).
    """
    from repro.online import EventSpec

    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise SystemExit("--event expects KIND[,key=value,...]")
    kind, kwargs = parts[0], {}
    at_epochs: tuple = ()
    every, probability = 0, 0.0
    for item in parts[1:]:
        if "=" not in item:
            raise SystemExit(f"--event expects key=value entries, got {item!r}")
        key, value = item.split("=", 1)
        if key == "at":
            try:
                at_epochs = tuple(int(epoch) for epoch in value.split("+"))
            except ValueError:
                raise SystemExit(f"--event at= expects epoch indices, got {value!r}") from None
        elif key == "every":
            every = int(value)
        elif key in ("p", "probability"):
            probability = float(value)
        else:
            kwargs[key] = _parse_value(value)
    try:
        return EventSpec(
            kind=kind, kwargs=kwargs, at_epochs=at_epochs, every=every, probability=probability
        )
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0])) from None


def _command_online(args: argparse.Namespace) -> int:
    from repro.online import CrewSpec, FogSpec, OnlineScenarioSpec, run_campaign

    if args.jobs < 0:
        raise SystemExit("--jobs must be a positive integer, or 0 for one per CPU")
    topology, disruption, demand = _instance_sections(args)
    try:
        spec = OnlineScenarioSpec(
            topology=topology,
            disruption=disruption,
            demand=demand,
            algorithm=args.algorithm,
            seed=args.seed,
            epochs=args.epochs,
            epoch_hours=args.epoch_hours,
            crews=CrewSpec(
                count=args.crews,
                node_hours=args.crew_node_hours,
                edge_hours=args.crew_edge_hours,
                travel_hours=args.crew_travel_hours,
            ),
            fog=FogSpec(hidden_fraction=args.fog, reveal_per_epoch=args.reveal),
            events=tuple(_parse_event(text) for text in args.event or []),
            baseline_algorithm=args.baseline,
            opt_time_limit=args.opt_time_limit,
        )
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0])) from None

    def progress(completed: int, total: int) -> None:
        print(f"[{completed}/{total}] episode done", file=sys.stderr)

    try:
        campaign = run_campaign(
            spec,
            episodes=args.episodes,
            jobs=args.jobs,
            verify=args.verify,
            cache_dir=args.cache_dir,
            progress=progress if not args.quiet else None,
        )
    except (KeyError, ValueError, RuntimeError) as error:
        raise SystemExit(str(error.args[0])) from None

    if args.json or args.out:
        emit_json(campaign.to_dict(), out=args.out)
    else:
        print(
            format_table(
                campaign.rows(),
                columns=[
                    "episode",
                    "seed",
                    "satisfied_pct",
                    "online_cost",
                    "baseline_cost",
                    "regret",
                    "violations",
                ],
                title=(
                    f"Online campaign on {args.topology!r} "
                    f"({args.episodes} episodes x {args.epochs} epochs, "
                    f"algorithm={spec.algorithm}, crews={args.crews}, fog={args.fog:g})"
                ),
            )
        )
        summary = campaign.summary()
        print(
            f"{summary['episodes']} episode(s), {summary['violations']} violation(s), "
            f"regret mean {summary['mean_regret']:.3f} "
            f"[{summary['min_regret']:.3f}, {summary['max_regret']:.3f}], "
            f"{summary['proven_baselines']} proven baseline(s), "
            f"{campaign.wall_seconds:.1f}s",
            file=sys.stderr,
        )
        for episode in campaign.episodes:
            for violation in episode.violations:
                print(f"VIOLATION {violation}", file=sys.stderr)
    return 0 if campaign.ok else 1


def _command_serve(args: argparse.Namespace) -> int:
    from repro.server.daemon import ServerConfig, run_server
    from repro.server.stores import REMOVED_LAYOUT_MESSAGE, StoreSchemaError

    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    if args.max_queue_depth < 1:
        raise SystemExit("--max-queue-depth must be at least 1")
    if args.claim_batch < 1:
        raise SystemExit("--claim-batch must be at least 1")
    if args.shards != 1:
        raise SystemExit(f"--shards {args.shards}: {REMOVED_LAYOUT_MESSAGE}")
    if args.slow_request_threshold <= 0:
        raise SystemExit("--slow-request-threshold must be positive")
    config = ServerConfig(
        db=args.db,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue_depth=args.max_queue_depth,
        poll_interval=args.poll_interval,
        claim_batch=args.claim_batch,
        portfolio=args.portfolio,
        log_level=args.log_level,
        log_format=args.log_format,
        slow_request_threshold=args.slow_request_threshold,
    )
    try:
        return run_server(config)
    except (KeyError, ValueError, StoreSchemaError) as error:
        raise SystemExit(str(error.args[0])) from None
    except OSError as error:
        raise SystemExit(f"cannot serve on {args.host}:{args.port}: {error}") from None


def _command_loadtest(args: argparse.Namespace) -> int:
    from repro.server.loadtest import run_loadtest

    url = args.url or f"http://{args.host}:{args.port}"
    try:
        report = run_loadtest(
            url,
            rps=args.rps,
            duration=args.duration,
            distinct=args.distinct,
            seed=args.seed,
            space=args.scenario_space,
            algorithms=tuple(args.algorithms) if args.algorithms else None,
            out=args.out,
            wait_timeout=args.wait_timeout,
            measure_direct=args.measure_direct,
            arrival=args.arrival,
        )
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0])) from None
    except OSError as error:
        raise SystemExit(f"cannot reach the daemon at {url}: {error}") from None

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(
            format_table(
                report.rows(),
                columns=["metric", "value"],
                title=(
                    f"Loadtest against {url} "
                    f"(rps={args.rps:g}, duration={args.duration:g}s, seed={args.seed})"
                ),
            )
        )
        if args.out:
            print(f"bench artefact written to {args.out}", file=sys.stderr)
    return 0 if report.ok else 1


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import render_trace
    from repro.server.client import ServiceClient, ServiceError

    url = args.url or f"http://{args.host}:{args.port}"
    client = ServiceClient(url)
    try:
        doc = client.trace(args.digest)
    except ServiceError as error:
        raise SystemExit(str(error)) from None
    except OSError as error:
        raise SystemExit(f"cannot reach the daemon at {url}: {error}") from None
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(render_trace(doc))
    return 0


def _command_scenarios(_: argparse.Namespace) -> int:
    rows = []
    for name in available_specs():
        spec = get_spec(name)
        rows.append(
            {
                "name": name,
                "figure": spec.figure,
                "sweep": f"{spec.sweep.parameter} ({spec.sweep.target})",
                "values": len(spec.sweep.values),
                "algorithms": " ".join(spec.algorithms),
            }
        )
    print(
        format_table(
            rows,
            columns=["name", "figure", "sweep", "values", "algorithms"],
            title="Registered experiment specs",
        )
    )
    return 0


def _command_topologies(_: argparse.Namespace) -> int:
    for name in available_topologies():
        print(name)
    return 0


def _command_algorithms(_: argparse.Namespace) -> int:
    for name in available_algorithms():
        print(name)
    return 0


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", default="bell-canada", help="registered topology name")
    parser.add_argument(
        "--topology-arg",
        action="append",
        metavar="KEY=VALUE",
        help="extra keyword argument for the topology builder (repeatable)",
    )
    parser.add_argument(
        "--disruption",
        choices=list(available_disruptions()),
        default="complete",
        help="disruption model applied to the topology",
    )
    parser.add_argument(
        "--disruption-arg",
        action="append",
        metavar="KEY=VALUE",
        help="extra keyword argument for the disruption model (repeatable)",
    )
    parser.add_argument(
        "--variance",
        type=float,
        default=60.0,
        help="variance of the gaussian / multi-gaussian disruptions",
    )
    parser.add_argument(
        "--failure-probability",
        type=float,
        default=0.3,
        help="per-element probability for the random disruption",
    )
    parser.add_argument("--pairs", type=int, default=4, help="number of demand pairs")
    parser.add_argument("--flow", type=float, default=10.0, help="flow units per demand pair")
    parser.add_argument("--seed", type=int, default=1, help="random seed")


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the versioned result envelope as JSON instead of a table",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the JSON envelope atomically to FILE instead of stdout (implies --json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Network recovery after massive failures (DSN 2016 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve = subparsers.add_parser("solve", help="run recovery algorithms on an instance")
    _add_instance_arguments(solve)
    solve.add_argument(
        "--algorithms",
        nargs="+",
        default=["ISP", "SRT", "ALL"],
        help="algorithm names (see the 'algorithms' sub-command)",
    )
    solve.add_argument(
        "--opt-time-limit",
        type=float,
        default=120.0,
        help="time limit in seconds for the exact MILP (OPT)",
    )
    _add_json_argument(solve)
    solve.set_defaults(handler=_command_solve)

    sweep = subparsers.add_parser(
        "sweep", help="run a registered sweep experiment through the parallel engine"
    )
    sweep.add_argument(
        "spec",
        help="experiment spec name or figure alias (see the 'scenarios' sub-command)",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = in-process, 0 = one per CPU)",
    )
    sweep.add_argument("--seed", type=int, default=1, help="root random seed")
    sweep.add_argument("--runs", type=int, default=None, help="repetitions per sweep value")
    sweep.add_argument(
        "--values",
        nargs="+",
        metavar="VALUE",
        help="override the sweep values (numbers parsed automatically)",
    )
    sweep.add_argument(
        "--algorithms", nargs="+", help="override the spec's algorithm list"
    )
    sweep.add_argument(
        "--opt-time-limit",
        type=float,
        default=None,
        help="time limit per MILP solve (<= 0 means exact)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help=f"cache completed cells under {DEFAULT_CACHE_DIR!r} and reuse them",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help="cache completed cells under this directory (implies --resume)",
    )
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress on stderr"
    )
    sweep.set_defaults(handler=_command_sweep)

    assess = subparsers.add_parser("assess", help="print a damage assessment report")
    _add_instance_arguments(assess)
    _add_json_argument(assess)
    assess.set_defaults(handler=_command_assess)

    fuzz = subparsers.add_parser(
        "fuzz", help="sample scenarios from the zoo, solve and audit them"
    )
    fuzz.add_argument(
        "--budget", type=int, default=10, help="number of scenarios to sample and solve"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="seed of the scenario stream")
    fuzz.add_argument(
        "--verify",
        action="store_true",
        help="audit every plan against the cross-algorithm invariants",
    )
    fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the batch (1 = in-process, 0 = one per CPU)",
    )
    fuzz.add_argument(
        "--algorithms",
        nargs="+",
        help="algorithms to run per scenario (default: every registered one)",
    )
    fuzz.add_argument(
        "--opt-time-limit",
        type=float,
        default=None,
        help="time limit per exact MILP solve within the campaign",
    )
    fuzz.add_argument(
        "--cache-dir",
        default=None,
        help="persist solved cells under this directory (resumable campaigns)",
    )
    fuzz.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress on stderr"
    )
    _add_json_argument(fuzz)
    fuzz.set_defaults(handler=_command_fuzz)

    online = subparsers.add_parser(
        "online",
        help="run a seeded online-recovery campaign (replanning under change)",
    )
    _add_instance_arguments(online)
    online.add_argument(
        "--algorithm",
        default="ISP",
        help="recovery algorithm replanning each epoch (see 'algorithms')",
    )
    online.add_argument("--epochs", type=int, default=4, help="epochs per episode")
    online.add_argument(
        "--epoch-hours", type=float, default=8.0, help="crew hours available per epoch"
    )
    online.add_argument("--crews", type=int, default=2, help="number of repair crews")
    online.add_argument(
        "--crew-node-hours", type=float, default=4.0, help="crew hours to repair one node"
    )
    online.add_argument(
        "--crew-edge-hours", type=float, default=2.0, help="crew hours to repair one edge"
    )
    online.add_argument(
        "--crew-travel-hours",
        type=float,
        default=1.0,
        help="crew hours to reach each repair site",
    )
    online.add_argument(
        "--fog",
        type=float,
        default=0.0,
        help="fraction of fresh damage hidden from the planner (0..1)",
    )
    online.add_argument(
        "--reveal",
        type=int,
        default=2,
        help="hidden elements revealed by assessment each epoch",
    )
    online.add_argument(
        "--event",
        action="append",
        metavar="KIND[,key=value,...]",
        help=(
            "mid-recovery disruption event (repeatable); KIND is aftershock, "
            "cascade or attack; trigger keys: at=E[+E...], every=N, "
            "probability=P; other keys go to the failure model"
        ),
    )
    online.add_argument("--episodes", type=int, default=1, help="episodes per campaign")
    online.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the campaign (1 = in-process, 0 = one per CPU)",
    )
    online.add_argument(
        "--verify",
        action="store_true",
        help="run the full invariant battery on every epoch's plan",
    )
    online.add_argument(
        "--baseline",
        default="OPT",
        help="clairvoyant baseline algorithm solved on the final realized damage",
    )
    online.add_argument(
        "--opt-time-limit",
        type=float,
        default=None,
        help="time limit per exact MILP solve (online and baseline)",
    )
    online.add_argument(
        "--cache-dir",
        default=None,
        help="persist finished episodes under this directory (resumable campaigns)",
    )
    online.add_argument(
        "--quiet", action="store_true", help="suppress per-episode progress on stderr"
    )
    _add_json_argument(online)
    online.set_defaults(handler=_command_online)

    serve = subparsers.add_parser(
        "serve", help="run the recovery daemon (job store + HTTP API + worker fleet)"
    )
    serve.add_argument(
        "--db",
        default="repro-server.db",
        help="path of the durable SQLite job store (created if missing)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8351, help="TCP port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2, help="worker processes")
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=256,
        help="queued jobs beyond which new submissions are rejected with 429",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="seconds an idle worker sleeps between claim attempts "
        "(fallback only: enqueues wake workers immediately)",
    )
    serve.add_argument(
        "--claim-batch",
        type=int,
        default=4,
        help="jobs a worker claims per store round-trip",
    )
    # Only 1 is accepted: perfbench/served.py still passes --shards 1.
    serve.add_argument("--shards", type=int, default=1, help=argparse.SUPPRESS)
    serve.add_argument(
        "--portfolio",
        action="store_true",
        help=(
            "two-stage portfolio execution: complete jobs with the heuristic "
            "envelope first, upgrade it in place when the exact solve lands "
            "(a 'done' job's envelope may change until finalised)"
        ),
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="structured-log level for the daemon and its workers",
    )
    serve.add_argument(
        "--log-format",
        choices=("json", "text"),
        default="json",
        help="log line format: one JSON object per line, or human text",
    )
    serve.add_argument(
        "--slow-request-threshold",
        type=float,
        default=1.0,
        help="seconds of in-server handling beyond which a request is "
        "counted (and logged, rate-limited) as slow",
    )
    serve.set_defaults(handler=_command_serve)

    trace = subparsers.add_parser(
        "trace", help="render a served job's end-to-end span tree"
    )
    trace.add_argument("digest", help="job digest (as returned by submission)")
    trace.add_argument("--url", default=None, help="daemon base URL (overrides --host/--port)")
    trace.add_argument("--host", default="127.0.0.1", help="daemon host")
    trace.add_argument("--port", type=int, default=8351, help="daemon port")
    _add_json_argument(trace)
    trace.set_defaults(handler=_command_trace)

    loadtest = subparsers.add_parser(
        "loadtest", help="replay generated traffic against a running daemon"
    )
    loadtest.add_argument("--url", default=None, help="daemon base URL (overrides --host/--port)")
    loadtest.add_argument("--host", default="127.0.0.1", help="daemon host")
    loadtest.add_argument("--port", type=int, default=8351, help="daemon port")
    loadtest.add_argument("--rps", type=float, default=5.0, help="target submissions per second")
    loadtest.add_argument("--duration", type=float, default=10.0, help="replay seconds")
    loadtest.add_argument(
        "--distinct",
        type=int,
        default=8,
        help="size of the sampled request pool (smaller than rps*duration => dedup traffic)",
    )
    loadtest.add_argument("--seed", type=int, default=0, help="seed of the traffic trace")
    loadtest.add_argument(
        "--arrival",
        choices=("uniform", "bursty"),
        default="uniform",
        help="open-loop arrival model: evenly paced, or flash-crowd bursts "
        "at the same long-run rate",
    )
    loadtest.add_argument(
        "--scenario-space",
        default="tiny",
        help="named scenario space to sample requests from (tiny, default)",
    )
    loadtest.add_argument(
        "--algorithms", nargs="+", help="algorithms per request (default: the space's)"
    )
    loadtest.add_argument(
        "--wait-timeout",
        type=float,
        default=120.0,
        help="seconds to wait for accepted jobs to finish",
    )
    loadtest.add_argument(
        "--out",
        default=DEFAULT_BENCH_PATH,
        metavar="FILE",
        help="bench artefact path (atomic write)",
    )
    loadtest.add_argument(
        "--measure-direct",
        action="store_true",
        help="also solve the request pool in-process and record the served-vs-direct overhead",
    )
    loadtest.add_argument(
        "--json", action="store_true", help="also print the report as JSON on stdout"
    )
    loadtest.set_defaults(handler=_command_loadtest)

    topologies = subparsers.add_parser("topologies", help="list registered topologies")
    topologies.set_defaults(handler=_command_topologies)

    algorithms = subparsers.add_parser("algorithms", help="list registered algorithms")
    algorithms.set_defaults(handler=_command_algorithms)

    scenarios = subparsers.add_parser(
        "scenarios", help="list registered sweep experiment specs"
    )
    scenarios.set_defaults(handler=_command_scenarios)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used both by ``python -m repro.cli`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
