"""Thin deterministic layer over the HiGHS linear-programming solver.

All callers express problems as maximization with rows in
``A_ub x <= b_ub`` form.  Determinism contract: identical inputs (same
row ordering) produce identical solutions.

There is one engine: ``LpModel`` keeps one HiGHS model alive so that
switched column bounds are re-solved by the dual simplex from the last
basis; ``lp_solve`` is a single solve on a fresh ``LpModel``, which the
exhaustive oracle's mixed-integer program makes.  ``LpModel.polish``
has HiGHS refactor the last basis and re-solve from it; a model with
``integer`` columns is solved by branch and bound.  Every model is built
under the one option table ``_OPTIONS`` and handed to HiGHS as CSC
arrays in one ``passModel`` call.  Replaying the same calls on an
``LpModel`` gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import LpInfeasibleError, LpSolverError, LpUnboundedError

try:
    # private module: the only import of it in the package
    from scipy.optimize._highspy import _core as _highs

    _highs._Highs.changeColsBounds
except (ImportError, AttributeError) as exc:  # pragma: no cover - old scipy
    raise ImportError(
        "screenforge needs scipy >= 1.17: its bundled HiGHS binding "
        "(scipy.optimize._highspy._core._Highs) must provide changeColsBounds"
    ) from exc

_INF = _highs.kHighsInf
# Set before the model is passed: HiGHS drops matrix entries below
# small_matrix_value when it receives the matrix, and its default of 1e-9
# would silently solve another program (1e-12 is the least it accepts).
# The mip_ options act only on integer columns: a zero gap, and no
# feasibility-jump heuristic, which costs more than the small searches.
_OPTIONS = {
    "output_flag": False,
    "presolve": "off",
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "small_matrix_value": 1e-12,
    "mip_rel_gap": 0.0,
    "mip_abs_gap": 0.0,
    "mip_feasibility_tolerance": 1e-10,
    "mip_heuristic_run_feasibility_jump": False,
}
_VERDICTS = (_highs.HighsModelStatus.kOptimal, _highs.HighsModelStatus.kInfeasible,
             _highs.HighsModelStatus.kUnbounded)


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    value: float


def lp_solve(c, a_ub=None, b_ub=None, bounds=None, integer=()) -> LpSolution:
    """Solve max c.x subject to A_ub x <= b_ub once, on a fresh
    :class:`LpModel` (bounds, ``integer`` and errors as there)."""
    return LpModel(c, a_ub, b_ub, bounds=bounds, integer=integer).solve()


def _bound_arrays(bounds, n: int):
    """(lower, upper) arrays from scipy-style bounds; None is unbounded."""
    if bounds is None:
        return np.zeros(n), np.full(n, _INF)
    pairs = np.array(bounds, dtype=float).reshape(-1, 2)  # None -> nan
    pairs = np.broadcast_to(pairs, (n, 2))
    lower = np.where(np.isnan(pairs[:, 0]), -_INF, pairs[:, 0])
    upper = np.where(np.isnan(pairs[:, 1]), _INF, pairs[:, 1])
    return lower, upper


class LpModel:
    """A persistent HiGHS model of max c.x s.t. A_ub x <= b_ub.

    Built once, as CSC (a CSC argument is passed on as it is; None is no
    rows); its rows and objective are fixed.  Columns listed in
    ``integer`` take integer values only; ``solve`` then runs branch and
    bound to a zero gap, and ``polish`` does not apply.
    ``polish`` re-solves from a fresh factor of the last basis.
    ``set_bounds`` replaces the column bounds; the next ``solve`` re-runs
    the dual simplex from the last basis, with presolve off.  ``bounds``
    follow scipy conventions (default x >= 0, None is unbounded).  A
    solve raises :class:`LpInfeasibleError` or :class:`LpUnboundedError`
    on those verdicts and :class:`LpSolverError` when HiGHS stops without
    either.
    A run that HiGHS rejects or that stops without a verdict is retried
    once, from scratch, by the primal simplex, which the model then keeps.
    A solve that ends without an optimum clears the solver before it
    raises, so the next solve starts from scratch rather than from a
    stale basis.
    """

    def __init__(self, c, a_ub, b_ub, bounds=None, integer=()):
        self._c = np.asarray(c, dtype=float)
        n = len(self._c)
        a = sp.csc_matrix(a_ub, dtype=float) if a_ub is not None else sp.csc_matrix((0, n))
        row_upper = np.asarray(b_ub if b_ub is not None else [], dtype=float)
        if a.shape != (len(row_upper), n):
            raise ValueError("inequality rows do not match c")
        self._lower, self._upper = _bound_arrays(bounds, n)
        self._highs = _highs._Highs()
        for key, value in _OPTIONS.items():
            self._check(self._highs.setOptionValue(key, value), f"option {key}")
        self._check(self._highs.passModel(
            n, a.shape[0], a.nnz, _highs.MatrixFormat.kColwise, _highs.ObjSense.kMaximize, 0.0,
            self._c, self._lower, self._upper,
            np.full(len(row_upper), -_INF), row_upper,
            # integrality: 1 (kInteger) on listed columns; HiGHS rejects an empty array
            a.indptr, a.indices, a.data, np.isin(np.arange(n), integer).astype(np.int32),
        ), "passModel")

    @staticmethod
    def _check(status, what: str):
        if status == _highs.HighsStatus.kError:
            raise LpSolverError(f"HiGHS rejected {what}")

    def set_bounds(self, bounds):
        """Replace the column bounds (scipy convention, as in the constructor)."""
        lower, upper = _bound_arrays(bounds, len(self._c))
        cols = np.flatnonzero((lower != self._lower) | (upper != self._upper))
        if len(cols):
            self._check(
                self._highs.changeColsBounds(
                    len(cols), cols.astype(np.int32), lower[cols], upper[cols]
                ),
                "changeColsBounds",
            )
        self._lower, self._upper = lower, upper

    def solve(self) -> LpSolution:
        """Re-optimize from the last basis."""
        rejected = self._highs.run() == _highs.HighsStatus.kError
        if rejected or self._highs.getModelStatus() not in _VERDICTS:
            # at HiGHS's numerical edge the dual simplex can fail where the primal does not
            self._highs.clearSolver()
            self._check(self._highs.setOptionValue("simplex_strategy", 4), "option simplex_strategy")
            self._check(self._highs.run(), "run")
        status = self._highs.getModelStatus()
        if status == _highs.HighsModelStatus.kOptimal:
            x = np.array(self._highs.getSolution().col_value, dtype=float)
            return LpSolution(x=x, value=float(np.dot(self._c, x)))
        message = self._highs.modelStatusToString(status)
        self._highs.clearSolver()
        if status == _highs.HighsModelStatus.kInfeasible:
            raise LpInfeasibleError(message)
        if status == _highs.HighsModelStatus.kUnbounded:
            raise LpUnboundedError(message)
        raise LpSolverError(f"solver failure: {message}")

    def polish(self) -> LpSolution:
        """The last optimum re-solved from a fresh factor of its basis.

        Handed its own basis back, HiGHS drops the factor; the re-run
        refactors the basis, recomputes the vertex and moves on from it if
        the fresh factor shows it infeasible (one step of iterative
        refinement, Gleixner, Steffy & Wolter 2016).  Without a valid
        basis it raises :class:`LpSolverError`.
        """
        basis = self._highs.getBasis()
        if not basis.valid:
            raise LpSolverError("no valid basis to polish")
        self._check(self._highs.setBasis(basis), "setBasis")
        return self.solve()
