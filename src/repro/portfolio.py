"""The portfolio racer: answer with heuristics now, upgrade to exact later.

The paper's OPT is the slowest algorithm in every figure — a served request
asking for ``["ISP", "SRT", "OPT"]`` historically waited for the MILP
before the client saw *anything*.  The racer is a policy on top of the one
request runner, :meth:`~repro.api.service.RecoveryService.solve`, which
runs every heuristic first and seeds the exact solves with their plans:

1. **Stage 1 (heuristic)** is ``solve``'s ``on_heuristics`` callback: the
   heuristic envelope is published at once (the worker completes the job
   row with it), annotated ``envelope["portfolio"] = {"stage":
   "heuristic", "pending": ["OPT"]}`` so clients and the HTTP fast path
   know more is coming.
2. **Stage 2 (exact)** is the rest of ``solve``: the seeded exact solves
   (see :func:`repro.flows.milp.solve_minimum_recovery`), after which the
   worker upgrades the stored envelope in place
   (:meth:`~repro.server.stores.sqlite.JobStore.upgrade_result`), now
   annotated ``{"stage": "exact", "pending": [], "upgraded": True, ...}``.

A stage-2 failure never takes back the stage-1 answer: the published
envelope stands, its annotation carrying the exception (``"error"``) with
``pending`` cleared so caches may admit it.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.results import AlgorithmRun, RecoveryResult

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
    (did the write land?) is echoed in ``info["published"]``.  An
    exception raised by ``publish`` or by a heuristic propagates.

    ``info`` carries the counters the worker feeds ``/metrics``:
    ``staged`` (two-stage execution applied), ``published`` (the early
    envelope was stored), ``proven``/``exact`` (exact runs proven optimal
    over exact runs).  Requests with nothing to race (no heuristic, or no
    exact algorithm) come back as plain ``solve`` envelopes.
    """
    info = {"staged": False, "published": False, "proven": 0, "exact": 0}
    _, exacts = split_algorithms(request.algorithms)
    stage1: List[Dict[str, Any]] = []

    def on_heuristics(result: RecoveryResult) -> None:
        info["staged"] = True
        envelope = result.to_dict()
        envelope[PORTFOLIO_KEY] = annotation("heuristic", pending=exacts)
        if publish is not None:
            info["published"] = bool(publish(envelope))
        stage1.append(envelope)

    try:
        result = service.solve(request, on_heuristics=on_heuristics)
    except Exception:
        if not stage1:
            raise  # a heuristic or publish failed: nothing was answered yet
        # the heuristic answer stands; record why the upgrade is partial
        marker = annotation(
            "heuristic", upgraded=info["published"], error=traceback.format_exc(limit=20)
        )
        return {**stage1[0], PORTFOLIO_KEY: marker}, info

    envelope = result.to_dict()
    info["proven"], info["exact"] = proven_exact_runs(result.results)
    if info["staged"]:
        envelope[PORTFOLIO_KEY] = annotation(
            "exact",
            upgraded=info["published"],
            proven=info["proven"],
            exact=info["exact"],
        )
    return envelope, info


__all__ = [
    "EXACT_ALGORITHMS",
    "PORTFOLIO_KEY",
    "annotation",
    "is_exact",
    "pending_algorithms",
    "proven_exact_runs",
    "split_algorithms",
    "solve_two_stage",
]
