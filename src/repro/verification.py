"""Cross-algorithm invariant checking — the harness that keeps the zoo honest.

A broader scenario space (zoo topologies, compound failures, fuzzed
requests) only pays off if every heuristic plan is continuously checked
against properties that must hold *regardless* of the scenario.  This
module is that checker.  It is deliberately independent of how a plan was
produced: tests call :func:`check_plan_invariants` with live objects, the
fuzz harness and any service client call :func:`audit_result` with a result
envelope, and both paths run the same invariants:

``repairs-within-damage``
    A plan may only repair elements that are actually broken.
``routing-feasibility``
    Explicit routes use only working/repaired elements, respect nominal
    capacities and never over-deliver a pair (via
    :meth:`RecoveryPlan.validate_routing`), and each route connects the
    endpoints of its own demand pair.
``flow-conservation``
    The per-pair bookkeeping is consistent: claimed satisfied demand equals
    the sum of route flows for that pair, and only known pairs appear.
``satisfaction-monotonicity``
    Replaying the repairs cumulatively (in a deterministic order) never
    decreases the LP-audited satisfiable demand — repairing more can only
    help.
``metrics-consistency``
    The envelope's reported ``satisfied_pct`` matches an independent
    re-audit with the concurrent-flow LP.
``cost-dominance``
    On instances where the exact MILP optimum is available and proven
    optimal, no fully-satisfying heuristic may be cheaper than OPT
    (cost ratio >= 1), and never may a plan satisfy more demand than the
    LP bound of its own repaired network.  When the OPT run is *unproven*
    (time-limited incumbent) the check falls back to the MILP dual bound
    the solver recorded: no fully-satisfying plan may cost less than any
    valid lower bound on the optimum, proven or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.evaluation.metrics import recovered_graph
from repro.flows.demand_satisfaction import max_satisfiable_flow
from repro.flows.solver.tolerances import FLOW_TOLERANCE
from repro.network.demand import DemandGraph, canonical_pair
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph

#: Reported percentages may differ from a re-audit by LP solver noise only.
PERCENT_TOLERANCE = 1e-3 * 100.0

#: A plan counts as "fully satisfying" above this audited fraction.
FULL_SATISFACTION = 1.0 - 1e-6


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough context to reproduce it."""

    invariant: str
    algorithm: str
    detail: str
    request: str = ""

    def __str__(self) -> str:
        prefix = f"[{self.request}] " if self.request else ""
        return f"{prefix}{self.algorithm}: {self.invariant}: {self.detail}"


@dataclass
class InvariantReport:
    """The outcome of auditing one result envelope (or one plan).

    ``unproven_baselines`` counts requests whose OPT run is not a *proven*
    optimum (time-limited "feasible" incumbent, solver error, or a
    pre-status cache entry).  Such runs are downgraded, not discarded: when
    the solver recorded a dual bound, cost-dominance still runs against the
    bound, and the run's relative optimality gap lands in ``opt_gaps`` so
    campaigns can report *how far* from proven the baselines were instead
    of merely counting them.
    """

    checked: int = 0
    violations: List[Violation] = field(default_factory=list)
    unproven_baselines: int = 0
    #: Relative optimality gap of every audited OPT run that carried enough
    #: metadata to compute one (0.0 for proven optima).
    opt_gaps: List[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def extend(self, violations: Sequence[Violation]) -> None:
        self.violations.extend(violations)

    def gap_summary(self) -> Dict[str, float]:
        """Aggregate gap statistics over the audited OPT runs."""
        if not self.opt_gaps:
            return {"count": 0, "max": 0.0, "mean": 0.0}
        return {
            "count": len(self.opt_gaps),
            "max": max(self.opt_gaps),
            "mean": sum(self.opt_gaps) / len(self.opt_gaps),
        }

    def summary(self) -> Dict[str, object]:
        return {
            "plans_checked": self.checked,
            "violations": len(self.violations),
            "unproven_baselines": self.unproven_baselines,
            "opt_gaps": self.gap_summary(),
            "ok": self.ok,
        }


# --------------------------------------------------------------------- #
# Individual invariants
# --------------------------------------------------------------------- #
def _check_repairs_within_damage(
    supply: SupplyGraph, plan: RecoveryPlan
) -> List[Violation]:
    problems: List[Violation] = []
    stray_nodes = set(plan.repaired_nodes) - supply.broken_nodes
    if stray_nodes:
        problems.append(
            Violation(
                "repairs-within-damage",
                plan.algorithm,
                f"repairs {len(stray_nodes)} working node(s), e.g. "
                f"{sorted(stray_nodes, key=repr)[:3]!r}",
            )
        )
    stray_edges = set(plan.repaired_edges) - supply.broken_edges
    if stray_edges:
        problems.append(
            Violation(
                "repairs-within-damage",
                plan.algorithm,
                f"repairs {len(stray_edges)} working edge(s), e.g. "
                f"{sorted(stray_edges, key=repr)[:3]!r}",
            )
        )
    return problems


def _check_routing(
    supply: SupplyGraph, demand: DemandGraph, plan: RecoveryPlan
) -> List[Violation]:
    if not plan.routes:
        return []
    problems = [
        Violation("routing-feasibility", plan.algorithm, description)
        for description in plan.validate_routing(supply, demand)
    ]
    for route in plan.routes:
        endpoints = canonical_pair(route.path[0], route.path[-1])
        if endpoints != route.pair:
            problems.append(
                Violation(
                    "routing-feasibility",
                    plan.algorithm,
                    f"route for pair {route.pair} runs {route.path[0]!r} -> "
                    f"{route.path[-1]!r} instead",
                )
            )
    return problems


def _check_flow_conservation(
    demand: DemandGraph, plan: RecoveryPlan
) -> List[Violation]:
    # Note: ``satisfied_demand`` may legitimately contain pairs outside the
    # demand graph — ISP records its split sub-pairs there — so only the
    # route/bookkeeping consistency is checked, not the key set.
    problems: List[Violation] = []
    if plan.routes:
        routed: Dict = {}
        for route in plan.routes:
            routed[route.pair] = routed.get(route.pair, 0.0) + route.flow
        for pair, claimed in plan.satisfied_demand.items():
            delivered = routed.get(pair, 0.0)
            if abs(delivered - claimed) > FLOW_TOLERANCE:
                problems.append(
                    Violation(
                        "flow-conservation",
                        plan.algorithm,
                        f"pair {pair!r} claims {claimed:.6f} units but routes "
                        f"deliver {delivered:.6f}",
                    )
                )
    return problems


def repair_sequence(plan: RecoveryPlan):
    """A deterministic repair order: nodes first, then edges, sorted.

    This is the canonical execution order of a plan — the monotonicity
    replay walks it, and the online crew simulator dispatches it — so both
    layers agree on what "the k-th repair" means.
    """
    steps = [("node", node) for node in sorted(plan.repaired_nodes, key=repr)]
    steps += [("edge", edge) for edge in sorted(plan.repaired_edges, key=repr)]
    return steps


def _check_satisfaction_monotonicity(
    supply: SupplyGraph,
    demand: DemandGraph,
    plan: RecoveryPlan,
    full_satisfied: float,
    prefix_points: int = 3,
) -> List[Violation]:
    """Replay repairs cumulatively; the satisfiable demand must not drop.

    ``full_satisfied`` is the caller's already-audited value for the
    complete repair set, so the replay only solves the strict prefixes.
    """
    steps = repair_sequence(plan)
    if not steps or prefix_points < 1:
        return []
    # Evenly spaced strict prefixes; the full set is the caller's value
    # (rounding can hit len(steps) on short plans — drop it, it would just
    # re-solve the LP the caller already solved).
    cuts = sorted(
        {round(i * len(steps) / prefix_points) for i in range(prefix_points)}
        - {len(steps)}
    )
    previous = -1.0
    previous_cut = 0
    problems: List[Violation] = []
    for cut, satisfied in _prefix_satisfactions(supply, demand, steps, cuts):
        if satisfied < previous - FLOW_TOLERANCE:
            problems.append(
                Violation(
                    "satisfaction-monotonicity",
                    plan.algorithm,
                    f"satisfiable demand dropped from {previous:.6f} after "
                    f"{previous_cut} repairs to {satisfied:.6f} after {cut}",
                )
            )
        previous, previous_cut = satisfied, cut
    if full_satisfied < previous - FLOW_TOLERANCE:
        problems.append(
            Violation(
                "satisfaction-monotonicity",
                plan.algorithm,
                f"satisfiable demand dropped from {previous:.6f} after "
                f"{previous_cut} repairs to {full_satisfied:.6f} with the full plan",
            )
        )
    return problems


def _prefix_satisfactions(supply, demand, steps, cuts):
    for cut in cuts:
        nodes = {element for kind, element in steps[:cut] if kind == "node"}
        edges = {element for kind, element in steps[:cut] if kind == "edge"}
        graph = supply.working_graph(extra_nodes=nodes, extra_edges=edges, use_residual=False)
        yield cut, max_satisfiable_flow(graph, demand).total_satisfied


def check_repair_sequence_monotonicity(
    supply: SupplyGraph,
    demand: DemandGraph,
    steps: Sequence,
    algorithm: str = "online",
    cuts: Optional[Sequence[int]] = None,
) -> List[Violation]:
    """Replay an explicit *realized* repair sequence; satisfaction must rise.

    Where :func:`check_plan_invariants` replays a plan in the canonical
    order, this checks a sequence in the order it actually executed — the
    online engine passes the steps its crews completed across a whole
    campaign, with ``cuts`` at the epoch boundaries.  ``supply`` must carry
    every element the sequence repairs in its broken set (the online engine
    audits against the clairvoyant instance, where everything ever broken
    is broken); repairing a working element is reported as a
    repairs-within-damage violation.  Duplicate steps (an element re-broken
    mid-campaign and repaired again) are fine: prefixes are replayed as
    cumulative *sets*, which grow monotonically regardless.
    """
    steps = list(steps)
    if not steps:
        return []
    problems: List[Violation] = []
    stray = {
        element
        for kind, element in steps
        if (kind == "node" and element not in supply.broken_nodes)
        or (kind == "edge" and element not in supply.broken_edges)
    }
    if stray:
        problems.append(
            Violation(
                "repairs-within-damage",
                algorithm,
                f"realized sequence repairs {len(stray)} element(s) not in the "
                f"damage set, e.g. {sorted(stray, key=repr)[:3]!r}",
            )
        )
    if cuts is None:
        cuts = range(len(steps) + 1)
    cuts = sorted({min(max(int(cut), 0), len(steps)) for cut in cuts} | {len(steps)})
    previous = -1.0
    previous_cut = 0
    for cut, satisfied in _prefix_satisfactions(supply, demand, steps, cuts):
        if satisfied < previous - FLOW_TOLERANCE:
            problems.append(
                Violation(
                    "satisfaction-monotonicity",
                    algorithm,
                    f"realized satisfiable demand dropped from {previous:.6f} "
                    f"after {previous_cut} repairs to {satisfied:.6f} after {cut}",
                )
            )
        previous, previous_cut = satisfied, cut
    return problems


def _check_metrics_consistency(
    plan: RecoveryPlan, audited_fraction: float, reported_metrics: Mapping[str, float]
) -> List[Violation]:
    reported = reported_metrics.get("satisfied_pct")
    if reported is None:
        return []
    audited_pct = 100.0 * audited_fraction
    if abs(float(reported) - audited_pct) > PERCENT_TOLERANCE:
        return [
            Violation(
                "metrics-consistency",
                plan.algorithm,
                f"envelope reports {float(reported):.4f}% satisfied but the "
                f"re-audit finds {audited_pct:.4f}%",
            )
        ]
    return []


def _optimal_is_proven(optimal: RecoveryPlan) -> bool:
    """Only a proven optimum may serve as the cost-dominance baseline.

    The MILP status travels with the plan both live (``metadata``) and
    through result envelopes (``plan_payload`` keeps it), so a time-limited
    "feasible" incumbent or an errored solve is never trusted — a cheaper
    heuristic would be a legitimate outcome against those, not a violation.
    """
    return optimal.metadata.get("status") == "optimal"


def _optimal_bound(optimal: RecoveryPlan) -> Optional[float]:
    """The MILP dual (lower) bound the solver recorded, if any."""
    bound = optimal.metadata.get("bound")
    if isinstance(bound, bool) or not isinstance(bound, (int, float)):
        return None
    return float(bound)


def _optimal_gap(supply: SupplyGraph, optimal: RecoveryPlan) -> Optional[float]:
    """The OPT run's relative optimality gap, or None when unknowable.

    A proven optimum has gap 0.  Otherwise the solver-reported ``mip_gap``
    is preferred; failing that the gap is derived from the dual bound and
    the incumbent's repair cost.  None means the run carries neither
    (errored solve, pre-bound cache entry) — nothing can be said.
    """
    if _optimal_is_proven(optimal):
        return 0.0
    gap = optimal.metadata.get("mip_gap")
    if isinstance(gap, (int, float)) and not isinstance(gap, bool):
        return max(0.0, float(gap))
    bound = _optimal_bound(optimal)
    if bound is None:
        return None
    cost = optimal.repair_cost(supply)
    if cost <= FLOW_TOLERANCE:
        return 0.0
    return max(0.0, (cost - bound) / cost)


def _check_cost_dominance(
    supply: SupplyGraph,
    plan: RecoveryPlan,
    audited_fraction: float,
    optimal: Optional[RecoveryPlan],
) -> List[Violation]:
    if optimal is None or plan.algorithm.upper() == "OPT":
        return []
    if audited_fraction < FULL_SATISFACTION:
        # A partially-satisfying heuristic may legitimately be cheaper than
        # the optimum of the full-satisfaction problem.
        return []
    plan_cost = plan.repair_cost(supply)
    if _optimal_is_proven(optimal):
        optimal_cost = optimal.repair_cost(supply)
        if plan_cost < optimal_cost - FLOW_TOLERANCE:
            return [
                Violation(
                    "cost-dominance",
                    plan.algorithm,
                    f"fully-satisfying plan costs {plan_cost:.6f} < proven "
                    f"optimum {optimal_cost:.6f}",
                )
            ]
        return []
    # Unproven incumbent: the dual bound is still a valid lower bound on
    # the optimum, so no fully-satisfying plan may undercut it.
    bound = _optimal_bound(optimal)
    if bound is None:
        return []
    if plan_cost < bound - FLOW_TOLERANCE:
        return [
            Violation(
                "cost-dominance",
                plan.algorithm,
                f"fully-satisfying plan costs {plan_cost:.6f} < MILP dual "
                f"bound {bound:.6f} of the unproven OPT run",
            )
        ]
    return []


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #
def check_plan_invariants(
    supply: SupplyGraph,
    demand: DemandGraph,
    plan: RecoveryPlan,
    optimal: Optional[RecoveryPlan] = None,
    reported_metrics: Optional[Mapping[str, float]] = None,
    prefix_points: int = 3,
) -> List[Violation]:
    """Run every applicable invariant on one plan; return the violations.

    Parameters
    ----------
    supply, demand:
        The *disrupted* instance the plan was computed on (the supply still
        carries its broken sets).
    plan:
        The plan to audit.  Route-based checks are skipped when the plan
        carries no explicit routes (e.g. plans rebuilt from envelopes).
    optimal:
        The OPT plan for the same instance, enabling ``cost-dominance``.
    reported_metrics:
        Envelope metrics to cross-check against the independent re-audit.
    prefix_points:
        Number of intermediate prefixes for the monotonicity replay.
    """
    violations: List[Violation] = []
    violations += _check_repairs_within_damage(supply, plan)
    violations += _check_routing(supply, demand, plan)
    violations += _check_flow_conservation(demand, plan)

    satisfaction = max_satisfiable_flow(recovered_graph(supply, plan), demand)
    if satisfaction.fraction > 1.0 + FLOW_TOLERANCE:
        violations.append(
            Violation(
                "routing-feasibility",
                plan.algorithm,
                f"audited satisfaction fraction {satisfaction.fraction:.6f} exceeds 1",
            )
        )
    if reported_metrics is not None:
        violations += _check_metrics_consistency(plan, satisfaction.fraction, reported_metrics)
    violations += _check_satisfaction_monotonicity(
        supply,
        demand,
        plan,
        satisfaction.total_satisfied,
        prefix_points=prefix_points,
    )
    violations += _check_cost_dominance(supply, plan, satisfaction.fraction, optimal)
    return violations


def audit_result(service, request, result, prefix_points: int = 3) -> InvariantReport:
    """Audit a :class:`~repro.api.results.RecoveryResult` envelope.

    Rebuilds the request's instance through the service's construction path
    (bit-identical to what the solving worker saw), reconstructs each run's
    plan from its payload, and runs :func:`check_plan_invariants` on every
    run — using the envelope's own OPT run, when present, as the
    cost-dominance baseline.  This is the opt-in post-solve audit: cheap
    enough to run after every batch, independent of the solver that
    produced the plans.
    """
    supply, demand, _ = service.build_instance(request)
    digest = request.digest()[:12]

    optimal: Optional[RecoveryPlan] = None
    for run in result.results:
        if run.algorithm.upper() == "OPT":
            optimal = run.to_plan()
            break

    report = InvariantReport()
    if optimal is not None:
        if not _optimal_is_proven(optimal):
            report.unproven_baselines += 1
        gap = _optimal_gap(supply, optimal)
        if gap is not None:
            report.opt_gaps.append(gap)
    for run in result.results:
        plan = run.to_plan()
        violations = check_plan_invariants(
            supply,
            demand,
            plan,
            optimal=optimal,
            reported_metrics=run.metrics,
            prefix_points=prefix_points,
        )
        report.checked += 1
        report.extend(
            Violation(v.invariant, v.algorithm, v.detail, request=digest) for v in violations
        )
    return report


__all__ = [
    "FULL_SATISFACTION",
    "PERCENT_TOLERANCE",
    "InvariantReport",
    "Violation",
    "audit_result",
    "check_plan_invariants",
    "check_repair_sequence_monotonicity",
    "repair_sequence",
]
