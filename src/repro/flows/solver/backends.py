"""The LP/MILP solver backend.

Every optimisation problem in the library — the routability test, the
split-amount LP, the concurrent-flow satisfaction LP, the multi-commodity
relaxation and the exact MinR MILP — is expressed as a
:class:`LinearProgram` / :class:`MILProgram` and solved by :data:`HIGHS`,
the one instance of :class:`ScipyHighsBackend`.

:class:`ScipyHighsBackend` runs the HiGHS core that scipy ships
(``scipy.optimize._highspy._core``) directly: it loads each model from
numpy arrays through ``_Highs.passModel``, sets exactly the options
``linprog(method="highs"|"highs-ipm")`` and ``milp`` set and runs
``linprog``'s check of an LP optimum, so x, objective and status are
theirs bit for bit, without their per-call input validation,
option-manager loop and result unpacking.  An LP's row system is
``linprog``'s: the ``A_ub`` rows over the ``A_eq`` rows as one canonical
CSC matrix with their row bounds (:meth:`LinearProgram.row_system`); a
caller that keeps that triple ready passes it as
:attr:`LinearProgram.rows` (ISP's split LP,
:class:`~repro.flows.splitting_lp.SplitProgram`).  An LP may start from
the HiGHS basis of an earlier LP of the same shape
(:attr:`LPSolution.basis`); only callers that read nothing but the optimum
pass one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.optimize._highspy._core as _highs
from scipy import sparse

from repro.flows.solver.stats import record_solve

#: Per-variable bounds, as ``linprog`` takes them: one (lo, hi) for all
#: variables, or one per variable (pairs or an ``(n, 2)`` array); ``None``
#: or an infinity means unbounded.
BoundsLike = Union[
    Tuple[Optional[float], Optional[float]],
    Sequence[Tuple[Optional[float], Optional[float]]],
    np.ndarray,
]

#: An LP's rows as HiGHS loads them: a canonical CSC matrix and its row
#: lower and upper bounds (float64).
RowSystem = Tuple[sparse.csc_array, np.ndarray, np.ndarray]


@dataclass
class LinearProgram:
    """A backend-neutral LP: ``min c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x = b_eq``."""

    c: np.ndarray
    a_ub: Optional[sparse.spmatrix] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[sparse.spmatrix] = None
    b_eq: Optional[np.ndarray] = None
    bounds: BoundsLike = (0, None)
    #: ``"auto"`` lets the backend choose (simplex for HiGHS);
    #: ``"interior-point"`` requests an IPM solve (used by MCW, whose optimal
    #: face interior is the point of the exercise).
    method_hint: str = "auto"
    #: The row system :meth:`row_system` would build, when the caller has
    #: it ready; ``a_ub``/``b_ub``/``a_eq``/``b_eq`` are then unused.
    rows: Optional[RowSystem] = None

    @property
    def num_variables(self) -> int:
        return len(self.c)

    def row_system(self) -> RowSystem:
        """``(matrix, row lower, row upper)`` as ``linprog`` builds them: the
        ``A_ub`` rows (``-inf <= row <= b_ub``), then the ``A_eq`` rows
        (``b_eq <= row <= b_eq``), as one canonical CSC matrix."""
        if self.rows is not None:
            return self.rows
        blocks, row_lower, row_upper = [], [], []
        if self.a_ub is not None:
            b_ub = np.asarray(self.b_ub, dtype=np.float64).reshape(-1)
            blocks.append(self.a_ub)
            row_lower.append(np.full(len(b_ub), -np.inf))
            row_upper.append(b_ub)
        if self.a_eq is not None:
            b_eq = np.asarray(self.b_eq, dtype=np.float64).reshape(-1)
            blocks.append(self.a_eq)
            row_lower.append(b_eq)
            row_upper.append(b_eq)
        if not blocks:
            return sparse.csc_array((0, len(self.c))), np.zeros(0), np.zeros(0)
        matrix = sparse.csc_array(sparse.vstack(blocks) if len(blocks) > 1 else blocks[0])
        matrix.sum_duplicates()
        return matrix, np.concatenate(row_lower), np.concatenate(row_upper)


@dataclass
class LPSolution:
    """Outcome of one LP solve, normalised across backends."""

    status: str  #: ``"optimal"``, ``"infeasible"``, ``"unbounded"`` or ``"error"``
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    message: str = ""
    #: The final HiGHS basis of an optimal solve; a later LP of the same
    #: shape may start from it.
    basis: Optional[object] = None

    @property
    def success(self) -> bool:
        return self.status == "optimal"


@dataclass
class MILProgram:
    """A backend-neutral MILP: objective, linear constraints, integrality."""

    c: np.ndarray
    #: Constraints as ``(matrix, lb, ub)`` triples (row bounds may be ±inf).
    constraints: List[Tuple[sparse.spmatrix, np.ndarray, np.ndarray]] = field(default_factory=list)
    integrality: Optional[np.ndarray] = None
    lb: Union[float, np.ndarray] = 0.0
    ub: Union[float, np.ndarray] = np.inf
    time_limit: Optional[float] = None
    mip_rel_gap: float = 0.0

    @property
    def num_variables(self) -> int:
        return len(self.c)


@dataclass
class MILPSolution:
    """Outcome of one MILP solve, normalised across backends."""

    status: str  #: ``"optimal"``, ``"feasible"``, ``"infeasible"`` or ``"error"``
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    mip_gap: Optional[float] = None
    #: Best proven lower bound on the objective (the MIP dual bound), when
    #: the backend reports one.  Equals ``objective`` on a proven optimum.
    dual_bound: Optional[float] = None

    @property
    def feasible(self) -> bool:
        return self.status in ("optimal", "feasible")


def _bounds_arrays(bounds: BoundsLike, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """:attr:`LinearProgram.bounds` as (lower, upper) arrays; ``None`` is unbounded."""
    pairs = np.array(bounds, dtype=float)  # None becomes nan
    if pairs.shape == (2,):
        pairs = np.broadcast_to(pairs, (n, 2))
    elif pairs.shape != (n, 2):
        raise ValueError(f"expected {n} bound pairs, got an array of shape {pairs.shape}")
    lower = np.where(np.isnan(pairs[:, 0]), -np.inf, pairs[:, 0])
    upper = np.where(np.isnan(pairs[:, 1]), np.inf, pairs[:, 1])
    return lower, upper


#: The options ``linprog(method="highs")`` sets (``"highs-ipm"`` adds ``solver``).
_LP_OPTIONS = {
    "presolve": "on",
    "highs_debug_level": 0,
    "log_to_console": False,
    "output_flag": False,
    "simplex_strategy": 1,  # dual simplex
}
_IPM_OPTIONS = dict(_LP_OPTIONS, solver="ipm")

#: Model statuses that are not ``"error"``, read the way scipy's
#: ``_highs_to_scipy_status_message`` reads them (a model error counts as
#: infeasible; "unbounded or infeasible" is an error).
_STATUSES = {
    _highs.HighsModelStatus.kOptimal: "optimal",
    _highs.HighsModelStatus.kInfeasible: "infeasible",
    _highs.HighsModelStatus.kModelError: "infeasible",
    _highs.HighsModelStatus.kUnbounded: "unbounded",
}

#: ``passModel``'s codes for a column-wise matrix and a minimisation.
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)

#: linprog's tolerance when it checks an optimum (scipy's ``_check_result``:
#: ``sqrt(tol) * 10`` with its default ``tol`` of 1e-9).
_CHECK_TOL = np.sqrt(1e-9) * 10

#: MILP statuses that still carry an incumbent when its objective is finite.
_LIMIT_STATUSES = (
    _highs.HighsModelStatus.kTimeLimit,
    _highs.HighsModelStatus.kIterationLimit,
    _highs.HighsModelStatus.kSolutionLimit,
)


def _run(
    c: np.ndarray,
    matrix: sparse.csc_array,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    options: Dict[str, object],
    integrality: Optional[np.ndarray] = None,
    basis: Optional[object] = None,
) -> Tuple[object, object, bool]:
    """Load one model into a fresh HiGHS instance and run it.

    The model goes in through ``passModel``'s array overload, which copies
    the arrays; it takes an integrality array of length ``num_col`` even
    for an LP (all continuous), since with an empty one it returns
    ``kError``.  Returns ``(highs, model status, whether basis was
    accepted)``; a model HiGHS refuses to load reports ``kModelError``, as
    in scipy.
    """
    num_row, num_col = matrix.shape
    if integrality is None:
        integrality = np.zeros(num_col, dtype=np.int32)
    highs = _highs._Highs()
    for name, value in options.items():
        highs.setOptionValue(name, value)
    loaded = highs.passModel(
        num_col,
        num_row,
        matrix.nnz,
        _COLWISE,
        _MINIMIZE,
        0.0,
        c,
        col_lower,
        col_upper,
        row_lower,
        row_upper,
        matrix.indptr,
        matrix.indices,
        matrix.data,
        integrality,
    )
    if loaded == _highs.HighsStatus.kError:
        return highs, _highs.HighsModelStatus.kModelError, False
    accepted = basis is not None and highs.setBasis(basis) == _highs.HighsStatus.kOk
    highs.run()
    return highs, highs.getModelStatus(), accepted


def _within_bounds(
    x: np.ndarray,
    objective: float,
    row_value: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    row_lower: np.ndarray,
    row_upper: np.ndarray,
) -> bool:
    """linprog's check of an LP optimum: nothing is NaN, and every column
    and row lies within its bounds up to :data:`_CHECK_TOL`.

    Row residuals are formed as linprog forms its slack and equality
    residuals (``bound - value``), so the verdict is linprog's.
    """
    if np.isnan(objective) or np.isnan(x).any() or np.isnan(row_value).any():
        return False
    tol = _CHECK_TOL
    if not np.all((x >= col_lower - tol) & (x <= col_upper + tol)):
        return False
    return not ((row_upper - row_value < -tol).any() or (row_value - row_lower < -tol).any())


class ScipyHighsBackend:
    """The one backend: scipy's bundled HiGHS core, driven directly."""

    def solve_lp(self, program: LinearProgram, basis: Optional[object] = None) -> LPSolution:
        """Solve ``program``, starting from ``basis`` when HiGHS accepts it.

        ``basis`` is the :attr:`LPSolution.basis` of an earlier LP of the
        same shape.  It may change which optimal vertex is returned, so only
        callers that read nothing but the optimum pass one.
        """
        started = time.perf_counter()
        c = np.asarray(program.c, dtype=np.float64)
        col_lower, col_upper = _bounds_arrays(program.bounds, len(c))
        matrix, row_lower, row_upper = program.row_system()
        options = _IPM_OPTIONS if program.method_hint == "interior-point" else _LP_OPTIONS
        highs, status, warm = _run(
            c,
            matrix,
            row_lower,
            row_upper,
            col_lower,
            col_upper,
            options,
            basis=basis,
        )
        message = highs.modelStatusToString(status)
        solution = LPSolution(status=_STATUSES.get(status, "error"), message=message)
        if status == _highs.HighsModelStatus.kOptimal:
            values = highs.getSolution()
            x = np.array(values.col_value)
            objective = float(highs.getInfo().objective_function_value)
            row_value = np.array(values.row_value)
            if _within_bounds(x, objective, row_value, col_lower, col_upper, row_lower, row_upper):
                final_basis = highs.getBasis()
                solution = LPSolution(
                    status="optimal",
                    x=x,
                    objective=objective,
                    message=message,
                    basis=final_basis if final_basis.valid else None,
                )
            else:
                # linprog downgrades such an optimum to its status 4.
                solution = LPSolution(
                    status="error",
                    message=f"{message}, but outside its bounds by more than {_CHECK_TOL:.2e}",
                )
        record_solve(
            time.perf_counter() - started,
            kind="lp",
            warm_start_attempted=basis is not None,
            warm_start_used=warm,
        )
        return solution

    def solve_milp(self, program: MILProgram) -> MILPSolution:
        """Solve the mixed-integer ``program``."""
        started = time.perf_counter()
        c = np.asarray(program.c, dtype=np.float64)
        shape = c.shape
        integrality = np.broadcast_to(
            0 if program.integrality is None else program.integrality, shape
        ).astype(np.int32)
        # milp's row system: each constraint block as CSC, stacked in order.
        blocks, row_lower, row_upper = [], [], []
        for block, lb, ub in program.constraints:
            block = sparse.csc_array(block)
            blocks.append(block)
            row_lower.append(np.broadcast_to(np.atleast_1d(lb).astype(np.float64), block.shape[:1]))
            row_upper.append(np.broadcast_to(np.atleast_1d(ub).astype(np.float64), block.shape[:1]))
        if blocks:
            matrix = sparse.vstack(blocks, format="csc") if len(blocks) > 1 else blocks[0]
            row_lower, row_upper = np.concatenate(row_lower), np.concatenate(row_upper)
        else:
            matrix = sparse.csc_array((0, len(c)))
            row_lower = row_upper = np.zeros(0)
        options: Dict[str, object] = {
            "log_to_console": False,
            "mip_rel_gap": float(program.mip_rel_gap),
        }
        if program.time_limit is not None:
            options["time_limit"] = float(program.time_limit)
        highs, status, _ = _run(
            c,
            matrix,
            row_lower,
            row_upper,
            np.broadcast_to(program.lb, shape).astype(np.float64),
            np.broadcast_to(program.ub, shape).astype(np.float64),
            options,
            integrality=integrality,
        )
        is_mip = bool(integrality.any())
        info = highs.getInfo()
        has_x = status == _highs.HighsModelStatus.kOptimal or (
            is_mip
            and status in _LIMIT_STATUSES
            and info.objective_function_value != _highs.kHighsInf
        )
        if _STATUSES.get(status) == "infeasible":
            solution = MILPSolution(status="infeasible")
        elif not has_x:
            solution = MILPSolution(status="error")
        else:
            solution = MILPSolution(
                status="optimal" if status == _highs.HighsModelStatus.kOptimal else "feasible",
                x=np.array(highs.getSolution().col_value),
                objective=float(info.objective_function_value),
                mip_gap=float(info.mip_gap) if is_mip else None,
                dual_bound=float(info.mip_dual_bound) if is_mip else None,
            )
        record_solve(time.perf_counter() - started, kind="milp")
        return solution


#: The instance every solve site calls.  Its methods are looked up on the
#: class at call time, so a wrapper set on ``ScipyHighsBackend.solve_lp`` or
#: ``solve_milp`` sees every solve.
HIGHS = ScipyHighsBackend()


__all__ = [
    "HIGHS",
    "LinearProgram",
    "RowSystem",
    "LPSolution",
    "MILProgram",
    "MILPSolution",
    "ScipyHighsBackend",
]
