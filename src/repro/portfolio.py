"""The portfolio racer: answer with heuristics now, upgrade to exact later.

The paper's OPT is the slowest algorithm in every figure — a served request
asking for ``["ISP", "SRT", "OPT"]`` historically waited for the MILP
before the client saw *anything*.  This module races the two classes
instead:

1. **Stage 1 (heuristic)** runs every non-exact algorithm of the request
   and publishes that partial envelope immediately (the worker completes
   the job row with it), annotated ``envelope["portfolio"] =
   {"stage": "heuristic", "pending": ["OPT"]}`` so clients and the HTTP
   fast path know more is coming.
2. **Stage 2 (exact)** runs the exact algorithms *seeded with the stage-1
   plans* (see :func:`repro.flows.milp.solve_minimum_recovery` — a verified
   incumbent frequently lets the decomposed strategy prove optimality
   without a MILP) and upgrades the stored envelope in place
   (:meth:`~repro.server.stores.base.JobStoreBackend.upgrade_result`), now
   annotated ``{"stage": "exact", "pending": [], "upgraded": True, ...}``.

A stage-2 failure never takes back the stage-1 answer: the exception is
folded into the annotation (``"error"``) and the heuristic envelope stands,
with ``pending`` cleared so caches may admit it.

The same split also serves the in-process path:
:meth:`~repro.api.service.RecoveryService.solve` orders execution through
:func:`execution_order` so heuristics always run before exacts and their
plans are available as incumbents — regardless of how the client ordered
the ``algorithms`` list (the envelope keeps the requested order).
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.results import (
    AlgorithmRun,
    RecoveryResult,
    evaluation_metrics,
    plan_payload,
)
from repro.evaluation.metrics import evaluate_plan
from repro.flows.solver.stats import collect_solver_stats
from repro.obs.trace import span

#: Algorithm names whose solve is exact (MILP-backed) and therefore raced.
EXACT_ALGORITHMS = frozenset({"OPT"})

#: The annotation key portfolio envelopes carry at the top level.
PORTFOLIO_KEY = "portfolio"


def is_exact(name: str) -> bool:
    """Whether ``name`` is an exact (raced) algorithm."""
    return name.upper() in EXACT_ALGORITHMS


def split_algorithms(names: Sequence[str]) -> Tuple[List[str], List[str]]:
    """``(heuristics, exacts)`` preserving each class's requested order."""
    heuristics = [name for name in names if not is_exact(name)]
    exacts = [name for name in names if is_exact(name)]
    return heuristics, exacts


def execution_order(names: Sequence[str]) -> List[str]:
    """The order to *run* algorithms in: heuristics first, then exacts.

    Running every heuristic before any exact solve means the exact solves
    can always be seeded with the heuristic plans, whatever order the
    client listed the algorithms in.
    """
    heuristics, exacts = split_algorithms(names)
    return heuristics + exacts


def can_stage(names: Sequence[str]) -> bool:
    """Whether a request benefits from two-stage execution.

    Staging needs both classes present: without an exact algorithm there
    is nothing slow to race, and without a heuristic there is no early
    answer to publish.
    """
    heuristics, exacts = split_algorithms(names)
    return bool(heuristics) and bool(exacts)


def annotation(
    stage: str,
    pending: Sequence[str] = (),
    upgraded: bool = False,
    proven: int = 0,
    exact: int = 0,
    error: Optional[str] = None,
) -> Dict[str, Any]:
    """The ``envelope["portfolio"]`` payload for one stage."""
    payload: Dict[str, Any] = {
        "stage": stage,
        "pending": list(pending),
        "upgraded": bool(upgraded),
        "proven_exact_runs": int(proven),
        "exact_runs": int(exact),
    }
    if error is not None:
        payload["error"] = str(error)
    return payload


def pending_algorithms(envelope: Optional[Dict[str, Any]]) -> List[str]:
    """The exact algorithms a portfolio envelope is still waiting on.

    Empty for non-portfolio envelopes and for fully upgraded ones — the
    HTTP fast path uses this to decide whether a done row is immutable
    (cacheable) or will be upgraded in place.
    """
    if not isinstance(envelope, dict):
        return []
    marker = envelope.get(PORTFOLIO_KEY)
    if not isinstance(marker, dict):
        return []
    pending = marker.get("pending")
    return [str(name) for name in pending] if isinstance(pending, list) else []


def proven_exact_runs(runs: Sequence[AlgorithmRun]) -> Tuple[int, int]:
    """``(proven, total)`` exact runs, judged by the plan's solver status."""
    exact = [run for run in runs if is_exact(run.algorithm)]
    proven = sum(1 for run in exact if run.plan.get("status") == "optimal")
    return proven, len(exact)


def solve_two_stage(
    service,
    request,
    publish: Optional[Callable[[Dict[str, Any]], bool]] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Solve ``request`` as a two-stage portfolio; return ``(envelope, info)``.

    ``service`` is a :class:`~repro.api.service.RecoveryService`;
    ``publish`` (optional) is called exactly once with the stage-1
    heuristic envelope when staging applies — the worker passes a closure
    that completes the job row, so a polling client sees the heuristic
    answer while the exact solve is still running.  Its boolean return
    (did the write land?) is echoed in ``info["published"]``.

    ``info`` carries the counters the worker feeds ``/metrics``:
    ``staged`` (two-stage execution applied), ``published`` (the early
    envelope was stored), ``proven``/``exact`` (exact runs proven optimal
    over exact runs).  Requests with nothing to race fall back to the
    service's single-stage :meth:`~repro.api.service.RecoveryService.solve`.
    """
    info = {"staged": False, "published": False, "proven": 0, "exact": 0}
    names = list(request.algorithms)
    if not can_stage(names):
        envelope = service.solve(request).to_dict()
        runs = [AlgorithmRun.from_dict(run) for run in envelope.get("results", [])]
        info["proven"], info["exact"] = proven_exact_runs(runs)
        return envelope, info

    info["staged"] = True
    names = list(dict.fromkeys(names))
    heuristics, exacts = split_algorithms(names)
    started = time.perf_counter()
    spec = request.to_experiment_spec()
    with service._request_backend(request):
        supply, demand, _ = service.build_instance(request)
        broken = len(supply.broken_nodes) + len(supply.broken_edges)

        runs_by_name: Dict[str, AlgorithmRun] = {}
        seed_plans: List[Any] = []

        def run_one(name: str, extra: Dict[str, Any]) -> Any:
            algorithm = spec.resolve_algorithm(name)
            with collect_solver_stats() as stats, span(
                "portfolio.run", algorithm=name
            ):
                plan = algorithm.solve(supply, demand, **extra)
                evaluation = evaluate_plan(supply, demand, plan, context=service.context)
            runs_by_name[name] = AlgorithmRun(
                algorithm=algorithm.name,
                metrics=evaluation_metrics(evaluation),
                plan=plan_payload(plan),
                solver=stats.as_dict(),
            )
            return plan

        with span("portfolio.stage1", algorithms=",".join(heuristics)):
            for name in heuristics:
                seed_plans.append(run_one(name, {}))

        stage1 = RecoveryResult(
            request=request.to_dict(),
            results=[runs_by_name[name] for name in names if name in runs_by_name],
            broken_elements=broken,
            wall_seconds=time.perf_counter() - started,
        )
        envelope = stage1.to_dict()
        envelope[PORTFOLIO_KEY] = annotation("heuristic", pending=exacts)
        if publish is not None:
            info["published"] = bool(publish(envelope))

        error: Optional[str] = None
        try:
            with span("portfolio.stage2", algorithms=",".join(exacts)):
                for name in exacts:
                    run_one(name, {"seed_plans": list(seed_plans)})
        except Exception:
            # the heuristic answer stands; record why the upgrade is partial
            error = traceback.format_exc(limit=20)

        final = RecoveryResult(
            request=request.to_dict(),
            results=[runs_by_name[name] for name in names if name in runs_by_name],
            broken_elements=broken,
            wall_seconds=time.perf_counter() - started,
        )
        info["proven"], info["exact"] = proven_exact_runs(final.results)
        envelope = final.to_dict()
        envelope[PORTFOLIO_KEY] = annotation(
            "heuristic" if error is not None else "exact",
            pending=(),
            upgraded=info["published"],
            proven=info["proven"],
            exact=info["exact"],
            error=error,
        )
    return envelope, info


__all__ = [
    "EXACT_ALGORITHMS",
    "PORTFOLIO_KEY",
    "annotation",
    "can_stage",
    "execution_order",
    "is_exact",
    "pending_algorithms",
    "proven_exact_runs",
    "split_algorithms",
    "solve_two_stage",
]
