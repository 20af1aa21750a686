"""The Iterative Split and Prune (ISP) recovery algorithm (Section IV).

ISP decides which broken elements to repair so that all demand flows can be
routed, while trying to keep the number of repairs as low as possible.  Each
iteration of the main loop performs, in this order:

1. **Termination test** — is the current demand routable on the working
   graph (non-broken elements plus everything already listed for repair)?
   This is the LP routability test of Section IV-A.
2. **Pruning** — every demand that can be routed inside a working *bubble*
   is routed there and removed from the instance, consuming residual
   capacity (Section IV-F, Theorem 3).
3. **Direct repairs** — a broken supply edge that directly connects the two
   endpoints of an unsatisfiable demand is listed for repair
   (Section IV-E).
4. **Split** — otherwise the node with the highest demand-based centrality
   is (virtually) repaired and the most constrained demand contributing to
   that centrality is split through it; the split amount is the maximum
   value that keeps the instance routable (Section IV-B/IV-C).

The algorithm returns a :class:`~repro.network.plan.RecoveryPlan` containing
both the repair list and the routing produced by prune actions and by the
final routability test, as the paper requires.

A run keeps one :class:`~repro.network.index.GraphIndex` of its supply copy,
updated by every repair and prune.  The graph primitives of steps 1-4 read
it instead of rebuilding networkx graphs: step 1 answers "not routable"
from component labels when a demand pair has no working path, the
routability LP and prune hits read the index's networkx working graph,
built at most once per repair, and step 4's split LP reads the index's
residual capacities through the run's
:class:`~repro.flows.splitting_lp.SplitProgram` (see
``docs/isp-kernel.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, List, Literal, Optional, Set, Tuple

from repro.core.centrality import demand_based_centrality
from repro.core.prune import PruneAction, find_prunable_routing
from repro.core.split import select_demand_to_split
from repro.flows.routability import routability_test
from repro.flows.splitting_lp import SplitProgram, maximum_splittable_amount
from repro.flows.decomposition import decompose_flows
from repro.flows.solver.tolerances import EPSILON
from repro.network.demand import DemandGraph
from repro.network.index import GraphIndex
from repro.network.paths import (
    DEFAULT_LENGTH_CONSTANT,
    attach_dynamic_lengths,
    path_broken_elements,
    path_edges,
    shortest_path_cover,
)
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph, canonical_edge

Node = Hashable
Pair = Tuple[Node, Node]

#: ``split_amount_mode="auto"`` runs the paper's split LP on supply graphs
#: of at most this many edges and the bottleneck approximation above it.
LP_EDGE_THRESHOLD = 400


@dataclass
class ISPConfig:
    """Tunable parameters of the ISP algorithm.

    Attributes
    ----------
    length_const:
        Constant term of the dynamic path metric (Section IV-D).
    metric:
        ``"dynamic"`` for the paper's repair-cost/capacity path metric,
        ``"hop"`` for plain hop counts (ablation study).
    require_bubble:
        Restrict pruning to bubble paths (the paper's safe behaviour).  The
        ablation benches set this to ``False`` to measure the effect.
    split_amount_mode:
        How the split amount ``dx`` is computed:

        * ``"lp"`` — the exact LP of Decision 2 (paper behaviour);
        * ``"bottleneck"`` — a fast approximation using the capacity of the
          covering paths through the split node;
        * ``"auto"`` — LP on small graphs, bottleneck on graphs with more
          than :data:`LP_EDGE_THRESHOLD` edges.
    max_iterations:
        Hard cap on main-loop iterations; ``None`` derives a generous bound
        from the instance size.  If the cap is hit, the remaining demand is
        handled by the shortest-path fallback so the algorithm always
        terminates with a plan.
    """

    length_const: float = DEFAULT_LENGTH_CONSTANT
    metric: str = "dynamic"
    require_bubble: bool = True
    split_amount_mode: Literal["lp", "bottleneck", "auto"] = "auto"
    max_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        if self.metric not in ("dynamic", "hop"):
            raise ValueError(f"metric must be 'dynamic' or 'hop', got {self.metric!r}")
        if self.split_amount_mode not in ("lp", "bottleneck", "auto"):
            raise ValueError(
                "split_amount_mode must be 'lp', 'bottleneck' or 'auto', "
                f"got {self.split_amount_mode!r}"
            )


class _ISPState:
    """Mutable state of one ISP run (kept separate from the public plan)."""

    def __init__(self, supply: SupplyGraph, demand: DemandGraph, config: ISPConfig) -> None:
        self.supply = supply.copy()
        self.supply.reset_residuals()
        self.demand = demand.copy()
        self.config = config
        self.repaired_nodes: Set[Node] = set()
        self.repaired_edges: Set[Tuple[Node, Node]] = set()
        self.plan = RecoveryPlan(algorithm="ISP")
        self.splits = 0
        self.prunes = 0
        self.direct_repairs = 0
        self.fallback_used = False
        self.unsatisfiable_pairs: List[Pair] = []
        #: Indexed snapshot of ``supply``, kept current by the methods below.
        self.index = GraphIndex(self.supply)
        mode = config.split_amount_mode
        if mode == "auto":
            mode = "lp" if len(self.index.edges) <= LP_EDGE_THRESHOLD else "bottleneck"
        #: The split LP of this run on the complete graph of ``index``, or
        #: ``None`` when ``config.split_amount_mode`` resolves to
        #: ``"bottleneck"`` for this supply.  Its bases are never shared
        #: across runs, so a plan cannot depend on which requests ran before
        #: it; it builds its arrays at the first split LP.
        self.split_program = SplitProgram(self.index) if mode == "lp" else None

    # ------------------------------------------------------------------ #
    def demand_connected(self) -> bool:
        """Whether every demand pair has working endpoints joined by working
        edges: without that the routability LP cannot be feasible."""
        return all(self.index.working_path(pair.source, pair.target) for pair in self.demand)

    def repair_node(self, node: Node) -> None:
        if self.supply.is_broken_node(node) and node not in self.repaired_nodes:
            self.repaired_nodes.add(node)
            self.plan.add_node_repair(node)
            self.index.list_node(node)

    def repair_edge(self, u: Node, v: Node) -> None:
        key = canonical_edge(u, v)
        if self.supply.is_broken_edge(u, v) and key not in self.repaired_edges:
            self.repaired_edges.add(key)
            self.plan.add_edge_repair(u, v)
            self.index.list_edge(u, v)
        # Using an edge requires working endpoints (constraint 1(c)).
        self.repair_node(u)
        self.repair_node(v)

    def apply_prune(self, action: PruneAction) -> None:
        source, target = action.pair
        self.demand.reduce(source, target, action.amount)
        for path, flow in action.routes:
            self.plan.add_route(action.pair, path, flow)
            for u, v in path_edges(path):
                self.supply.consume_capacity(u, v, flow)
                self.index.set_residual(u, v, self.supply.residual(u, v))
        self.prunes += 1


def iterative_split_prune(
    supply: SupplyGraph,
    demand: DemandGraph,
    config: Optional[ISPConfig] = None,
) -> RecoveryPlan:
    """Run ISP on ``supply`` / ``demand`` and return the recovery plan.

    The inputs are not modified; ISP operates on internal copies.

    Examples
    --------
    >>> from repro.topologies import grid_topology
    >>> from repro.failures import CompleteDestruction
    >>> from repro.network import DemandGraph
    >>> supply = grid_topology(3, 3, capacity=10.0)
    >>> CompleteDestruction().apply(supply)           # doctest: +ELLIPSIS
    FailureReport(...)
    >>> demand = DemandGraph()
    >>> demand.add((0, 0), (2, 2), 5.0)
    >>> plan = iterative_split_prune(supply, demand)
    >>> plan.total_repairs >= 7   # at least the 5 nodes and 4 edges of a path, minus nothing
    True
    """
    config = config or ISPConfig()
    state = _ISPState(supply, demand, config)

    started = time.perf_counter()
    _initialise(state)
    iterations = _main_loop(state)
    _finalise_routing(state)

    plan = state.plan
    plan.iterations = iterations
    plan.elapsed_seconds = time.perf_counter() - started
    plan.metadata.update(
        {
            "splits": state.splits,
            "prunes": state.prunes,
            "direct_edge_repairs": state.direct_repairs,
            "fallback_used": state.fallback_used,
            "unsatisfiable_pairs": list(state.unsatisfiable_pairs),
        }
    )
    return plan


# ---------------------------------------------------------------------- #
# Phases of the algorithm
# ---------------------------------------------------------------------- #
def _initialise(state: _ISPState) -> None:
    """Repair broken demand endpoints and drop structurally impossible pairs.

    Any feasible solution must repair a broken endpoint of a positive demand
    (flow has to enter/leave it), so listing them upfront loses nothing.
    Pairs whose endpoints are disconnected even in the full supply graph can
    never be satisfied and are removed so the LPs stay feasible.
    """
    for pair in state.demand.pairs():
        if not state.index.connected(pair.source, pair.target):
            state.unsatisfiable_pairs.append(pair.pair)
            state.demand.remove_pair(pair.source, pair.target)
            continue
        for endpoint in (pair.source, pair.target):
            state.repair_node(endpoint)


def _main_loop(state: _ISPState) -> int:
    config = state.config
    supply = state.supply
    if config.max_iterations is not None:
        max_iterations = config.max_iterations
    else:
        max_iterations = 20 * (supply.number_of_nodes + supply.number_of_edges) + 100

    iterations = 0
    while iterations < max_iterations:
        iterations += 1

        if state.demand.is_empty:
            return iterations
        if (
            state.demand_connected()
            and routability_test(state.index.working_graph(), state.demand).routable
        ):
            return iterations

        if _prune_phase(state):
            continue
        if _direct_repair_phase(state):
            continue
        if _split_phase(state):
            continue

        # Nothing applicable: resolve the rest with the shortest-path fallback.
        _fallback(state)
        return iterations

    _fallback(state)
    return iterations


def _prune_phase(state: _ISPState) -> bool:
    """Prune every demand that admits a bubble routing.  Returns True if any pruned."""
    pruned_any = False
    progress = True
    while progress:
        progress = False
        for pair in state.demand.pairs():
            action = find_prunable_routing(
                state.index,
                state.demand,
                pair.pair,
                require_bubble=state.config.require_bubble,
            )
            if action is None:
                continue
            state.apply_prune(action)
            pruned_any = True
            progress = True
            break
    return pruned_any


def _direct_repair_phase(state: _ISPState) -> bool:
    """Repair broken edges that directly connect unsatisfiable demand pairs."""
    repaired_any = False
    for pair in state.demand.pairs():
        source, target = pair.source, pair.target
        if not state.supply.has_edge(source, target):
            continue
        if not state.supply.is_broken_edge(source, target):
            continue
        if canonical_edge(source, target) in state.repaired_edges:
            continue
        satisfiable = state.index.max_flow(source, target, working=True)
        if satisfiable + EPSILON >= pair.demand:
            continue
        state.repair_edge(source, target)
        state.direct_repairs += 1
        repaired_any = True
    return repaired_any


def _split_phase(state: _ISPState) -> bool:
    """Perform one split action.  Returns True when a split was executed."""
    config = state.config
    centrality = demand_based_centrality(
        state.supply,
        state.demand,
        length_const=config.length_const,
        metric=config.metric,
        index=state.index,
    )
    for candidate in centrality.ranked_nodes():
        if centrality.scores.get(candidate, 0.0) <= 0:
            break
        choice = select_demand_to_split(centrality, state.demand, candidate)
        if choice is None:
            continue
        source, target = choice.pair
        if state.split_program is not None:
            amount = maximum_splittable_amount(
                state.split_program, state.demand, choice.pair, candidate
            )
        else:
            # Bottleneck approximation: what the covering paths through the
            # node can carry, capped by the pair's residual demand.
            amount = min(state.demand.demand(source, target), choice.routable_through_node)
        if amount <= EPSILON:
            continue

        state.repair_node(candidate)
        state.demand.split(source, target, candidate, amount)
        state.splits += 1
        return True
    return False


def _fallback(state: _ISPState) -> None:
    """Shortest-path fallback guaranteeing termination.

    For every remaining demand, repair all broken elements on the shortest
    path cover (dynamic metric) of the full supply graph.  This mirrors the
    SRT baseline but is only reached when the split machinery can make no
    further progress (e.g. degenerate instances); the event is recorded in
    the plan metadata.
    """
    if state.demand.is_empty:
        return
    state.fallback_used = True
    full = state.supply.full_graph(use_residual=True)
    if state.config.metric == "dynamic":
        attach_dynamic_lengths(
            state.supply,
            full,
            repaired_nodes=state.repaired_nodes,
            repaired_edges=state.repaired_edges,
            const=state.config.length_const,
        )
    else:
        for u, v in full.edges:
            full.edges[u, v]["length"] = 1.0
    for pair in state.demand.pairs():
        cover = shortest_path_cover(full, pair.source, pair.target, pair.demand, weight="length")
        for path, _ in cover:
            nodes, edges = path_broken_elements(state.supply, path)
            for node in nodes:
                state.repair_node(node)
            for u, v in edges:
                state.repair_edge(u, v)


def _finalise_routing(state: _ISPState) -> None:
    """Route whatever demand is still pending on the final working graph.

    When the main loop terminates because the routability test succeeded,
    the remaining (non-pruned) demand still needs an explicit routing in the
    plan; we take it from the feasible LP solution of the final test.
    """
    if state.demand.is_empty:
        return
    outcome = routability_test(state.index.working_graph(), state.demand, want_flows=True)
    if not outcome.routable:
        return
    for commodity, arc_flows in zip(outcome.commodities, outcome.flows):
        for path, flow in decompose_flows(arc_flows, commodity.source, commodity.target):
            if flow > EPSILON:
                state.plan.add_route((commodity.source, commodity.target), path, flow)
