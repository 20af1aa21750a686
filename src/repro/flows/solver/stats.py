"""Per-solve effort accounting for the solver substrate.

Every LP/MILP solve that goes through :mod:`repro.flows.solver.backends`
and every constraint-structure build that goes through
:mod:`repro.flows.solver.incremental` reports here, and each report is
counted on every open span (:func:`repro.obs.trace.count`).  A span
therefore sums the solver effort of everything run inside it, nested spans
and threads run through ``contextvars.copy_context().run`` included:
:func:`repro.api.service.run_algorithms` reads each run's ``solver`` stats
off its ``service.run`` span with :func:`solver_counts`, and ``repro.cli
sweep`` reports them per cell.

When a trace is active (a worker executing a job), the build and solve
reports also land completed ``solver.*`` leaves on the trace via
:func:`repro.obs.trace.record_timed`, so the substrate shows up in
``GET /v1/trace/{digest}`` without the backends knowing traces exist.

The counts, in the order of a run's ``solver`` dict (:data:`SOLVER_COUNTS`):

``lp_solves`` / ``milp_solves``
    LP respectively MILP solves dispatched to the backend.
``build_seconds``
    Wall time spent constructing constraint matrices (the part the
    incremental structure cache eliminates on a hit).
``solve_seconds``
    Wall time spent inside the backend's solve call.
``warm_start_attempts`` / ``warm_start_hits``
    How often an LP was offered the HiGHS basis of an earlier LP, and how
    often HiGHS accepted it.  Only ISP's split LP is offered one, so both
    are 0 for every other algorithm.
``structure_hits`` / ``structure_misses``
    Topology-structure cache hits and misses within the instance (a miss
    pays the full indexing + constraint-block construction, a hit only the
    RHS).
``incumbent_seeds``
    How often a MILP solve was seeded with a heuristic incumbent (repair
    vector + routed flows offered as a feasible start).

Nothing the substrate reuses outlives one instance scope
(:func:`repro.flows.solver.incremental.instance_scope`), so every count
depends only on the request that was solved.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.trace import Span, count, record_timed

SOLVER_COUNTS = (
    "lp_solves",
    "milp_solves",
    "build_seconds",
    "solve_seconds",
    "warm_start_attempts",
    "warm_start_hits",
    "structure_hits",
    "structure_misses",
    "incumbent_seeds",
)


def solver_counts(node: Span) -> Dict[str, float]:
    """The solver effort counted on ``node``, as floats in :data:`SOLVER_COUNTS` order."""
    return {key: float(node.counts.get(key, 0)) for key in SOLVER_COUNTS}


def record_solve(
    seconds: float,
    kind: str = "lp",
    warm_start_attempted: bool = False,
    warm_start_used: bool = False,
) -> None:
    """Report one backend solve of ``kind`` (``"lp"`` or ``"milp"``)."""
    solves = "milp_solves" if kind == "milp" else "lp_solves"
    count(
        **{solves: 1},
        solve_seconds=seconds,
        warm_start_attempts=int(warm_start_attempted),
        warm_start_hits=int(warm_start_used),
    )
    if warm_start_attempted:
        record_timed(
            "solver.solve", seconds, kind=kind, warm_start_used=warm_start_used
        )
    else:
        record_timed("solver.solve", seconds, kind=kind)


def record_build(seconds: float) -> None:
    """Report time spent building constraint matrices."""
    count(build_seconds=seconds)
    record_timed("solver.build", seconds)


def record_structure_lookup(hit: bool) -> None:
    """Report a topology-structure cache lookup outcome."""
    count(**{"structure_hits" if hit else "structure_misses": 1})


__all__ = [
    "SOLVER_COUNTS",
    "record_build",
    "record_solve",
    "record_structure_lookup",
    "solver_counts",
]
