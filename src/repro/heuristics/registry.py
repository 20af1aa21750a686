"""Registry mapping algorithm names to :class:`RecoveryAlgorithm` instances.

The evaluation scenarios refer to algorithms by the names used in the
paper's figures (``"ISP"``, ``"OPT"``, ``"SRT"``, ``"GRD-COM"``, ``"GRD-NC"``,
``"MCB"``, ``"MCW"``, ``"ALL"``); this registry resolves those names and lets
users register their own algorithms for side-by-side comparison.
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, List, Mapping

from repro.core.isp import ISPConfig, iterative_split_prune
from repro.heuristics.all_repair import repair_all
from repro.heuristics.base import RecoveryAlgorithm
from repro.heuristics.greedy import greedy_commitment, greedy_no_commitment
from repro.heuristics.multicommodity_heuristic import multicommodity_best, multicommodity_worst
from repro.heuristics.optimal import optimal_recovery
from repro.heuristics.srt import shortest_path_repair
from repro.network.demand import DemandGraph
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph


def _isp_solver(supply: SupplyGraph, demand: DemandGraph, **kwargs: Any) -> RecoveryPlan:
    """Adapter turning keyword arguments into an :class:`ISPConfig`."""
    config = kwargs.pop("config", None)
    if config is None and kwargs:
        config = ISPConfig(**kwargs)
        kwargs = {}
    return iterative_split_prune(supply, demand, config=config)


_FACTORIES: Dict[str, Any] = {
    "ISP": _isp_solver,
    "OPT": optimal_recovery,
    "SRT": shortest_path_repair,
    "GRD-COM": greedy_commitment,
    "GRD-NC": greedy_no_commitment,
    "MCB": multicommodity_best,
    "MCW": multicommodity_worst,
    "ALL": repair_all,
}


def available_algorithms() -> List[str]:
    """Names of all registered algorithms, in the order the paper introduces them."""
    return list(_FACTORIES)


def get_algorithm(name: str, **kwargs: Any) -> RecoveryAlgorithm:
    """Return a :class:`RecoveryAlgorithm` for ``name`` with bound ``kwargs``.

    Raises
    ------
    KeyError
        If the name is unknown; the message lists valid names.
    """
    key = name.upper()
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(available_algorithms())}"
        )
    return RecoveryAlgorithm(name=key, solver=_FACTORIES[key], kwargs=dict(kwargs))


def check_algorithm_kwargs(name: str, kwargs: Mapping[str, Any]) -> None:
    """Bind a request's options for algorithm ``name`` against its solver.

    ISP's options are the :class:`ISPConfig` fields, values included; the
    other solvers' are their keyword parameters.  An unknown name raises
    ``KeyError``; an unknown, invalid or runner-supplied option (the
    ``seed_plans`` an exact solve gets from the heuristic runs) raises
    ``ValueError``.
    """
    algorithm = get_algorithm(name)
    if "seed_plans" in kwargs:
        raise ValueError(f"{algorithm.name} seed_plans are supplied by the runner, not a request")
    try:
        if algorithm.solver is _isp_solver:
            ISPConfig(**kwargs)
        else:
            inspect.signature(algorithm.solver).bind(None, None, **kwargs)
    except TypeError as error:
        raise ValueError(f"invalid {algorithm.name} options: {error}") from None


def register_algorithm(name: str, solver: Any, overwrite: bool = False) -> None:
    """Register a custom recovery algorithm under ``name``."""
    key = name.upper()
    if key in _FACTORIES and not overwrite:
        raise ValueError(f"algorithm {name!r} is already registered")
    _FACTORIES[key] = solver
