"""The one module that drives HiGHS: linear programs on scipy's bundled
binding, without importing ``scipy.optimize`` or ``scipy.sparse``."""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SolverError

# The HiGHS options of scipy's linprog(method="highs").
_HIGHS_OPTIONS = (("presolve", "on"), ("simplex_strategy", 1),  # dual simplex
                  ("output_flag", False), ("log_to_console", False),
                  ("highs_debug_level", 0))
_HIGHS_MODULE = "scipy.optimize._highspy._core"
_HIGHS_LOCK = threading.Lock()


def _highs_binding():
    """scipy's bundled HiGHS binding, ``scipy.optimize._highspy._core``,
    without importing the ``scipy.optimize`` package.

    An already loaded binding is returned as is.  Otherwise the extension
    is found in its folder inside the installed scipy and executed under its
    real name, then registered in ``sys.modules``, so a later
    ``import scipy.optimize`` reuses this very module (under another name,
    pybind11 would register its types a second time).  Where scipy's layout
    hides the file, the plain import runs instead: slower, same binding.
    A lock makes concurrent first calls load it once.

    Known gap: after a load from the file, the attribute access
    ``scipy.optimize._highspy._core`` raises ``AttributeError``, because
    the import system binds a submodule to its parent only when it loads
    it.  ``from scipy.optimize._highspy import _core``, and scipy's own
    ``linprog`` and ``milp``, get this module.
    """
    with _HIGHS_LOCK:
        module = sys.modules.get(_HIGHS_MODULE)
        if module is not None:
            return module
        import scipy
        folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
        spec = importlib.machinery.PathFinder.find_spec(_HIGHS_MODULE, [folder])
        if spec is None:
            return importlib.import_module(_HIGHS_MODULE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_HIGHS_MODULE] = module
        return module


@dataclass(eq=False)
class Model:
    """A live HiGHS model and the problem data it holds.

    ``given`` is the cold call's c, A_ub, b_ub, A_eq and b_eq, the very
    objects a warm call must pass again.  ``problem`` is what HiGHS was
    given: costs, the column-wise matrix, row bounds and column lower
    bounds.  ``upper`` tracks the column upper bounds now in the model, and
    ``restarted`` whether a warm solve has restarted it under Devex pricing.
    ``source`` is the caller's record of what it built the LP from.
    """

    highs: object
    given: tuple
    problem: tuple
    upper: np.ndarray
    restarted: bool = False
    source: object = None


class Solution(NamedTuple):
    """An optimal :func:`solve`: x, value, inequality-row duals (scipy's
    ``ineqlin.marginals``), iterations, the live model and scipy's status 0."""

    x: np.ndarray
    fun: float
    duals: np.ndarray
    nit: int
    model: Model
    status: int = 0


@dataclass(frozen=True, eq=False)
class Coo:
    """A matrix as COO triplets, its fields named as those of scipy's
    ``coo_array``, so that either one can be handed to :func:`solve`."""

    data: np.ndarray
    row: np.ndarray
    col: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return self.data.size


def _colwise(A_ub, A_eq):
    """HiGHS's column-wise arrays (indptr, indices, data) of A_ub stacked
    over A_eq, two COO matrices without duplicate entries: those of
    scipy's ``csc_array(vstack((A_ub, A_eq)))``, rows sorted in each column."""
    rows = np.concatenate([A_ub.row, A_eq.row + A_ub.shape[0]])
    cols = np.concatenate([A_ub.col, A_eq.col])
    order = np.lexsort((rows, cols))
    counts = np.bincount(cols, minlength=A_ub.shape[1])
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    data = np.concatenate([A_ub.data, A_eq.data])
    return indptr, rows[order].astype(np.int32), data[order]


def solve(c, A_ub, b_ub, A_eq, b_eq, lower, upper, warm: Model | None = None) -> Solution:
    """Minimise c x subject to A_ub x <= b_ub, A_eq x = b_eq and
    lower <= x <= upper, as ``scipy.optimize.linprog(method="highs")`` does.

    Same options (presolve on, dual simplex, no output) and post-solve
    check as scipy's; a solve that is not optimal, or whose solution breaks
    a bound, slack or equality row by more than 10 sqrt(1e-9), raises
    :class:`SolverError`.  A_ub and A_eq are COO matrices (:class:`Coo` or
    scipy's ``coo_array``), merged in numpy into the column-wise arrays
    HiGHS reads (:func:`_colwise`); the bounds are float arrays, copied.

    ``warm=model`` re-solves that model after pushing in the changed column
    upper bounds only: a bound change keeps the last optimal basis dual
    feasible, so the dual simplex restarts from it in a few pivots.  A warm
    call passes the very c, A_ub, b_ub, A_eq and b_eq objects of the
    model's cold call, which are compared by identity, not rebuilt, and the
    same column lower bounds; otherwise it raises :class:`DomainError`.  A
    model's first warm solve restarts HiGHS from the cold solve's basis
    under Devex dual pricing, which the model then keeps; the cold solve
    keeps scipy's options.
    """
    highspy = _highs_binding()
    n_ub = len(b_ub)
    if warm is None:
        shape = (A_ub.shape[0] + A_eq.shape[0], A_ub.shape[1])
        indptr, indices, data = _colwise(A_ub, A_eq)
        lhs = np.concatenate([np.full(n_ub, -np.inf), b_eq])
        rhs = np.concatenate([b_ub, b_eq])
        model = Model(highspy._Highs(), (c, A_ub, b_ub, A_eq, b_eq),
                      (c, indptr, indices, data, lhs, rhs, lower.copy()), upper.copy())
        for key, value in _HIGHS_OPTIONS:
            model.highs.setOptionValue(key, value)
        lp = highspy.HighsLp()
        lp.num_row_, lp.num_col_ = shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = shape
        lp.a_matrix_.format_ = highspy.MatrixFormat.kColwise
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = \
            indptr, indices, data
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, lower, upper
        lp.row_lower_, lp.row_upper_ = lhs, rhs
        if model.highs.passModel(lp) == highspy.HighsStatus.kError:
            raise SolverError("HiGHS refused the LP")
    else:
        model = warm
        if (any(a is not b for a, b in zip((c, A_ub, b_ub, A_eq, b_eq), model.given))
                or not np.array_equal(lower, model.problem[6])):
            raise DomainError("a warm LP solve may change column upper bounds only")
        if not model.restarted:
            # Restart from the cold basis under Devex pricing: exact dual
            # steepest-edge weights for that basis would cost HiGHS
            # several times the re-solve itself.
            basis = model.highs.getBasis()
            model.highs.clearSolver()
            model.highs.setBasis(basis)
            model.highs.setOptionValue("simplex_dual_edge_weight_strategy", 1)
            model.restarted = True
        changed = np.flatnonzero(upper != model.upper)
        model.highs.changeColsBounds(changed.size, changed, lower[changed], upper[changed])
        model.upper = upper.copy()
    highs, rhs = model.highs, model.problem[5]
    run = highs.run()
    status = highs.getModelStatus()
    if run == highspy.HighsStatus.kError or status != highspy.HighsModelStatus.kOptimal:
        raise SolverError(f"HiGHS: {highs.modelStatusToString(status)}")
    solution, info = highs.getSolution(), highs.getInfo()
    x = np.array(solution.col_value)
    fun = info.objective_function_value
    residual = rhs - np.array(solution.row_value)
    slack, con = residual[:n_ub], residual[n_ub:]
    tol = 10.0 * 1e-9 ** 0.5
    if (np.isnan(x).any() or np.isnan(fun) or np.isnan(residual).any()
            or np.any(x < lower - tol) or np.any(x > upper + tol)
            or np.any(slack < -tol) or np.any(np.abs(con) > tol)):
        raise SolverError(f"HiGHS solution breaks the constraints by more than {tol:.2e}")
    return Solution(x, fun, np.array(solution.row_dual)[:n_ub],
                    info.simplex_iteration_count, model)
