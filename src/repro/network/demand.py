"""The demand graph ``H = (V_H, E_H)`` of the MinR problem.

Each demand pair ``(s_h, t_h)`` carries a positive flow requirement ``d_h``
that must be routed through the (recovered) supply network.  The demand graph
supports exactly the operations the ISP algorithm needs:

* *reduce* — remove routed units after a prune (Section IV-F),
* *split* — move units from ``(s_h, t_h)`` onto the two derived pairs
  ``(s_h, v)`` and ``(v, t_h)`` (Section IV-C),
* removal of satisfied pairs and of endpoints that no longer appear in any
  pair.

Demand between the same two endpoints is aggregated: routing-wise, two
pairs with identical endpoints are equivalent to a single pair carrying the
sum of their flows, and aggregation keeps the instance small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.utils.validation import check_positive

Node = Hashable
Pair = Tuple[Node, Node]

#: Demands below this value are considered fully satisfied and removed.
DEMAND_EPSILON = 1e-9


def canonical_pair(u: Node, v: Node) -> Pair:
    """Canonical (order independent) representation of a demand pair."""
    a, b = sorted((u, v), key=repr)
    return (a, b)


@dataclass(frozen=True)
class DemandPair:
    """A single demand: ``demand`` units of flow between ``source`` and ``target``."""

    source: Node
    target: Node
    demand: float

    @property
    def pair(self) -> Pair:
        """Canonical endpoint pair."""
        return canonical_pair(self.source, self.target)

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValueError("a demand pair must connect two distinct nodes")
        if self.demand <= 0:
            raise ValueError(f"demand must be positive, got {self.demand}")


class DemandGraph:
    """Mutable collection of demand pairs with positive flow requirements.

    Examples
    --------
    >>> h = DemandGraph()
    >>> h.add("a", "b", 10.0)
    >>> h.add("b", "a", 5.0)   # aggregated with the previous pair
    >>> h.demand("a", "b")
    15.0
    >>> h.reduce("a", "b", 15.0)
    >>> h.is_empty
    True
    """

    def __init__(self, pairs: Optional[Iterable[DemandPair]] = None) -> None:
        self._demands: Dict[Pair, float] = {}
        if pairs is not None:
            for pair in pairs:
                self.add(pair.source, pair.target, pair.demand)

    # ------------------------------------------------------------------ #
    # Construction and mutation
    # ------------------------------------------------------------------ #
    def add(self, u: Node, v: Node, demand: float) -> None:
        """Add ``demand`` units between ``u`` and ``v`` (aggregating duplicates)."""
        check_positive(demand, "demand")
        if not math.isfinite(demand):
            raise ValueError(f"demand must be finite, got {demand!r}")
        if u == v:
            raise ValueError("a demand pair must connect two distinct nodes")
        key = canonical_pair(u, v)
        self._demands[key] = self._demands.get(key, 0.0) + float(demand)

    def reduce(self, u: Node, v: Node, amount: float, tolerance: float = 1e-9) -> None:
        """Remove ``amount`` units of demand between ``u`` and ``v``.

        The pair is deleted once its residual demand drops below
        :data:`DEMAND_EPSILON`.

        Raises
        ------
        KeyError
            If no demand exists between ``u`` and ``v``.
        ValueError
            If ``amount`` exceeds the current demand beyond ``tolerance``.
        """
        check_positive(amount, "amount")
        key = canonical_pair(u, v)
        if key not in self._demands:
            raise KeyError(f"no demand between {u!r} and {v!r}")
        current = self._demands[key]
        if amount > current + tolerance:
            raise ValueError(
                f"cannot remove {amount} units from pair {key}: only {current} requested"
            )
        remaining = current - amount
        if remaining <= DEMAND_EPSILON:
            del self._demands[key]
        else:
            self._demands[key] = remaining

    def remove_pair(self, u: Node, v: Node) -> None:
        """Drop the pair ``(u, v)`` entirely, regardless of residual demand."""
        self._demands.pop(canonical_pair(u, v), None)

    def split(self, u: Node, v: Node, via: Node, amount: float) -> None:
        """Split ``amount`` units of the demand ``(u, v)`` through node ``via``.

        Implements the split action of Section IV-C: ``amount`` units are
        removed from ``(u, v)`` and re-added as two new demands ``(u, via)``
        and ``(via, v)``.  ``via`` must differ from both endpoints.
        """
        if via in (u, v):
            raise ValueError("the split node must differ from the demand endpoints")
        self.reduce(u, v, amount)
        self.add(u, via, amount)
        self.add(via, v, amount)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def demand(self, u: Node, v: Node) -> float:
        """Current demand between ``u`` and ``v`` (0 when no pair exists)."""
        return self._demands.get(canonical_pair(u, v), 0.0)

    def has_pair(self, u: Node, v: Node) -> bool:
        return canonical_pair(u, v) in self._demands

    def pairs(self) -> List[DemandPair]:
        """All demand pairs as immutable :class:`DemandPair` objects."""
        return [
            DemandPair(source=u, target=v, demand=d) for (u, v), d in self._demands.items()
        ]

    @property
    def endpoints(self) -> Set[Node]:
        """The set ``V_H`` of nodes that appear in at least one demand pair."""
        nodes: Set[Node] = set()
        for u, v in self._demands:
            nodes.add(u)
            nodes.add(v)
        return nodes

    @property
    def total_demand(self) -> float:
        """Sum of all residual demand flows."""
        return sum(self._demands.values())

    @property
    def is_empty(self) -> bool:
        return not self._demands

    def __len__(self) -> int:
        return len(self._demands)

    def __iter__(self) -> Iterator[DemandPair]:
        return iter(self.pairs())

    def __contains__(self, pair: Pair) -> bool:
        return canonical_pair(*pair) in self._demands

    def copy(self) -> "DemandGraph":
        clone = DemandGraph()
        clone._demands = dict(self._demands)
        return clone

    def as_dict(self) -> Dict[Pair, float]:
        """Snapshot of the demand as ``{canonical pair: demand}``."""
        return dict(self._demands)

    def validate_against(self, supply_nodes: Iterable[Node]) -> None:
        """Raise ``ValueError`` if any endpoint is missing from the supply graph."""
        known = set(supply_nodes)
        missing = self.endpoints - known
        if missing:
            raise ValueError(
                f"demand endpoints not present in the supply graph: {sorted(missing, key=repr)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DemandGraph(pairs={len(self._demands)}, total={self.total_demand:.3f})"
