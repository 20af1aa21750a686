"""Per-solve effort accounting for the solver substrate.

Every LP/MILP solve that goes through :mod:`repro.flows.solver.backends`
and every constraint-structure build that goes through
:mod:`repro.flows.solver.incremental` reports into the *active* collectors:
:class:`SolverStats` objects opened with :func:`collect_solver_stats`.

Collectors nest — :func:`repro.api.service.run_algorithms` opens one around
each run (solve plus evaluation LP) while ISP opens another around its own
solve; both see the solves in their scope — and cost nothing when none is
active (module-level counters aside).
The open collectors live in a contextvar, like the trace's spans, so a
solve run in another thread through ``contextvars.copy_context().run``
reports to the collectors that were open where the context was copied.
The collected numbers travel with the results: ISP stores them in the plan
metadata, the runner in each run's (and engine cell's) ``solver`` stats, so
``repro.cli sweep`` can report solver effort per cell.

The same reporters double as the solver substrate's **tracing hooks**: when
a trace is active (worker executing a job), every build/solve/decomposition
report also lands a completed span on the trace via
:func:`repro.obs.trace.record_timed` — so the substrate shows up in
``GET /v1/trace/{digest}`` without the backends knowing traces exist.  With
no active trace the hook is a single contextvar read (the collectors'
zero-cost-when-idle property is preserved).
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterator, Tuple

from repro.obs.trace import record_timed


@dataclass(eq=False)  # identity semantics: every open scope is its own collector
class SolverStats:
    """Counters describing the solver effort spent inside one scope.

    Attributes
    ----------
    lp_solves / milp_solves:
        Number of LP respectively MILP solves dispatched to a backend.
    build_seconds:
        Wall time spent constructing constraint matrices (the part the
        incremental structure cache eliminates on a hit).
    solve_seconds:
        Wall time spent inside the backend's solve call.
    warm_start_attempts / warm_start_hits:
        How often an LP was offered the HiGHS basis of an earlier LP, and
        how often HiGHS accepted it.  Only ISP's split LP is offered one, so
        both are 0 for every other algorithm.
    structure_hits / structure_misses:
        Topology-structure cache hits and misses (a miss pays the full
        indexing + constraint-block construction, a hit only the RHS).
    incumbent_seeds:
        How often a MILP solve was seeded with a heuristic incumbent
        (repair vector + routed flows offered as a feasible start).
    benders_iterations / benders_cuts:
        Master-subproblem rounds of the combinatorial Benders loop and the
        total number of feasibility cuts it added.
    bound_reuses:
        How often a cached dual bound / certificate was reused for an
        instance already solved in this process (keyed by instance
        signature).
    """

    lp_solves: int = 0
    milp_solves: int = 0
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    warm_start_attempts: int = 0
    warm_start_hits: int = 0
    structure_hits: int = 0
    structure_misses: int = 0
    incumbent_seeds: int = 0
    benders_iterations: int = 0
    benders_cuts: int = 0
    bound_reuses: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Flat JSON-serialisable view (used in plan metadata / run stats)."""
        return {field.name: float(getattr(self, field.name)) for field in fields(self)}


_ACTIVE: contextvars.ContextVar[Tuple[SolverStats, ...]] = contextvars.ContextVar(
    "repro_solver_stats", default=()
)


@contextmanager
def collect_solver_stats() -> Iterator[SolverStats]:
    """Collect solver effort for everything solved inside the ``with`` block."""
    stats = SolverStats()
    token = _ACTIVE.set(_ACTIVE.get() + (stats,))
    try:
        yield stats
    finally:
        _ACTIVE.reset(token)


def record_solve(
    seconds: float,
    kind: str = "lp",
    warm_start_attempted: bool = False,
    warm_start_used: bool = False,
) -> None:
    """Report one backend solve of ``kind`` (``"lp"`` or ``"milp"``)."""
    for stats in _ACTIVE.get():
        if kind == "milp":
            stats.milp_solves += 1
        else:
            stats.lp_solves += 1
        stats.solve_seconds += seconds
        if warm_start_attempted:
            stats.warm_start_attempts += 1
        if warm_start_used:
            stats.warm_start_hits += 1
    if warm_start_attempted:
        record_timed(
            "solver.solve", seconds, kind=kind, warm_start_used=warm_start_used
        )
    else:
        record_timed("solver.solve", seconds, kind=kind)


def record_build(seconds: float) -> None:
    """Report time spent building constraint matrices."""
    for stats in _ACTIVE.get():
        stats.build_seconds += seconds
    record_timed("solver.build", seconds)


def record_structure_lookup(hit: bool) -> None:
    """Report a topology-structure cache lookup outcome."""
    for stats in _ACTIVE.get():
        if hit:
            stats.structure_hits += 1
        else:
            stats.structure_misses += 1


def record_incumbent_seed() -> None:
    """Report one MILP solve seeded with a heuristic incumbent."""
    for stats in _ACTIVE.get():
        stats.incumbent_seeds += 1


def record_benders(iterations: int = 0, cuts: int = 0) -> None:
    """Report combinatorial Benders effort (master rounds and cuts added)."""
    for stats in _ACTIVE.get():
        stats.benders_iterations += iterations
        stats.benders_cuts += cuts
    record_timed("solver.benders", 0.0, iterations=iterations, cuts=cuts)


def record_bound_reuse() -> None:
    """Report one reuse of a cached bound/certificate across solves."""
    for stats in _ACTIVE.get():
        stats.bound_reuses += 1


__all__ = [
    "SolverStats",
    "collect_solver_stats",
    "record_solve",
    "record_build",
    "record_structure_lookup",
    "record_incumbent_seed",
    "record_benders",
    "record_bound_reuse",
]
