import types

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from screenforge import lp
from screenforge.errors import LpInfeasibleError, LpSolverError, LpUnboundedError
from screenforge.lp import LpModel, lp_solve


def _reference(c, a, b, bounds, a_eq=None, b_eq=None):
    """Cold solve of max c.x s.t. a x <= b, a_eq x = b_eq by scipy's
    linprog, an engine independent of ``LpModel`` (status 0 optimal,
    2 infeasible, 3 unbounded; ``value`` is the maximum)."""
    res = linprog(-np.asarray(c, dtype=float), A_ub=a, b_ub=b, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    res.value = -res.fun if res.status == 0 else None
    return res


class TestBasics:
    def test_box_maximum(self):
        sol = lp_solve([1.0], a_ub=[[1.0]], b_ub=[1.0], bounds=[(0, None)])
        assert abs(sol.value - 1.0) < 1e-9
        assert abs(sol.x[0] - 1.0) < 1e-9

    def test_minimize(self):
        # min x over [2, 5] is -max(-x)
        sol = lp_solve([-1.0], bounds=[(2.0, 5.0)])
        assert abs(sol.value + 2.0) < 1e-9

    def test_infeasible(self):
        with pytest.raises(LpInfeasibleError):
            lp_solve([1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0], bounds=[(None, None)])

    def test_unbounded(self):
        with pytest.raises(LpUnboundedError):
            lp_solve([1.0], bounds=[(0, None)])

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(0)
        c = rng.random(8)
        a = rng.random((5, 8))
        b = rng.random(5) + 1.0
        s1 = lp_solve(c, a_ub=a, b_ub=b, bounds=[(0, 1)] * 8)
        s2 = lp_solve(c, a_ub=a, b_ub=b, bounds=[(0, 1)] * 8)
        assert s1.x.tobytes() == s2.x.tobytes()

    def test_small_coefficients_are_kept(self):
        # max x1 s.t. 5e-10 x0 + x1 <= 1 with x0 = 1: HiGHS's default
        # small_matrix_value (1e-9) would drop the first coefficient
        c, a, b, bounds = [0.0, 1.0], [[5e-10, 1.0]], [1.0], [(1.0, 1.0), (None, None)]
        for sol in (lp_solve(c, a_ub=a, b_ub=b, bounds=bounds),
                    LpModel(c, a, b, bounds=bounds).solve()):
            assert abs(sol.x[1] - (1.0 - 5e-10)) < 1e-15


class TestTransportToy:
    def test_two_by_two_against_enumeration(self):
        # min-cost transport, solved as max of negated cost; each balance
        # equation a.x = b is the row pair a.x <= b, -a.x <= -b
        supply = [0.6, 0.4]
        demand = [0.5, 0.5]
        cost = np.array([[1.0, 3.0], [2.0, 1.0]])
        c = -cost.reshape(-1)
        a_eq = []
        b_eq = []
        for i in range(2):
            row = np.zeros(4)
            row[2 * i : 2 * i + 2] = 1.0
            a_eq.append(row)
            b_eq.append(supply[i])
        for j in range(2):
            row = np.zeros(4)
            row[j::2] = 1.0
            a_eq.append(row)
            b_eq.append(demand[j])
        a_eq, b_eq = np.array(a_eq), np.array(b_eq)
        sol = lp_solve(c, a_ub=np.vstack([a_eq, -a_eq]), b_ub=np.concatenate([b_eq, -b_eq]),
                       bounds=[(0, None)] * 4)

        # vertex enumeration: one free parameter t = x11 in [0.1, 0.5]
        best = min(
            float(np.sum(cost * np.array([[t, 0.6 - t], [0.5 - t, t - 0.1]])))
            for t in np.linspace(0.1, 0.5, 401)
        )
        assert abs(-sol.value - best) < 1e-9


CAPPED = (-1.0, 1.0)
FREE = (None, None)


def _random_program(seed, n=6, rows=5):
    """max c.x over random rows that x = 0 satisfies, plus |x_i| <= 2 rows
    so that the program stays bounded once the column bounds are dropped."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n)
    a = np.vstack([rng.normal(size=(rows, n)), np.eye(n), -np.eye(n)])
    b = np.concatenate([rng.random(rows) + 0.5, np.full(2 * n, 2.0)])
    return rng, c, a, b


def _dual_program(seed):
    """The dual of ``_random_program``, min b.y s.t. A^T y = c, y >= 0,
    as a model of max -b.y; its box rows make it feasible for every c.
    Returns (rng, model, its cost -b, cold) where ``cold(cost)`` solves
    the dual under another cost by the reference engine."""
    rng, c, a, b = _random_program(seed)

    def cold(cost):
        return _reference(cost, None, None, (0, None), a.T, c)

    return rng, LpModel(-b, None, None, a_eq=a.T, b_eq=c), -b, cold


def _dual_replay(seed):
    """Move the dual's cost three times on one warm model; [(warm, cold)]."""
    rng, model, cost, cold = _dual_program(seed)
    steps = [(model.solve(), cold(cost))]
    for _ in range(3):
        moved = cost * (rng.random(len(cost)) + 0.5)
        model.set_cost(moved)
        steps.append((model.solve(), cold(moved)))
    return steps


def _replay(seed):
    """Edit one warm model step by step; after each step solve it and
    the same program from scratch by the reference engine.  Returns
    [(warm, cold)] per step."""
    rng, c, a, b = _random_program(seed)
    n = len(c)
    model = LpModel(c, sp.csr_matrix(a), b, bounds=CAPPED)
    steps = []

    def check(bounds):
        steps.append((model.solve(), _reference(c, a, b, bounds)))

    check(CAPPED)
    c = c + rng.normal(size=n)
    model.set_cost(c)
    check(CAPPED)
    model.set_bounds(FREE)
    check(FREE)
    model.set_bounds(CAPPED)
    check(CAPPED)
    return steps


class TestPassedModel:
    """HiGHS holds exactly the program the model was given."""

    @pytest.mark.parametrize("n_ub,n_eq", [(4, 0), (0, 3), (4, 3)], ids=["ub", "eq", "mixed"])
    def test_highs_lp_equals_the_inputs(self, n_ub, n_eq):
        rng = np.random.default_rng(n_ub + 10 * n_eq)
        c = rng.random(5)
        a = rng.random((n_ub + n_eq, 5)) * (rng.random((n_ub + n_eq, 5)) < 0.6)
        b = rng.random(n_ub + n_eq)
        bounds = [(0.0, 1.0), (None, 2.0), (-1.0, None), (None, None), (0.5, 0.5)]
        model = LpModel(c, sp.csr_matrix(a[:n_ub]) if n_ub else None, b[:n_ub] if n_ub else None,
                        bounds=bounds, a_eq=a[n_ub:] if n_eq else None, b_eq=b[n_ub:] if n_eq else None)
        got = model._highs.getLp()
        assert got.sense_ == lp._highs.ObjSense.kMaximize
        assert (got.num_col_, got.num_row_) == (5, n_ub + n_eq)
        assert np.asarray(got.col_cost_).tobytes() == c.tobytes()
        np.testing.assert_array_equal(got.col_lower_, [0.0, -np.inf, -1.0, -np.inf, 0.5])
        np.testing.assert_array_equal(got.col_upper_, [1.0, 2.0, np.inf, np.inf, 0.5])
        np.testing.assert_array_equal(got.row_lower_, np.concatenate([[-np.inf] * n_ub, b[n_ub:]]))
        np.testing.assert_array_equal(got.row_upper_, b)
        csc = sp.csc_matrix(a)
        assert got.a_matrix_.format_ == lp._highs.MatrixFormat.kColwise
        np.testing.assert_array_equal(got.a_matrix_.start_, csc.indptr)
        np.testing.assert_array_equal(got.a_matrix_.index_, csc.indices)
        np.testing.assert_array_equal(got.a_matrix_.value_, csc.data)


class TestLpModel:
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_lp_solve_after_edits(self, seed):
        for warm, cold in _replay(seed):
            assert abs(warm.value - cold.value) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_replay_is_byte_identical(self, seed):
        first, second = _replay(seed), _replay(seed)
        for (a, _), (b, _) in zip(first, second):
            assert a.x.tobytes() == b.x.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_moved_costs_of_the_dual_form(self, seed):
        # the dual keeps its feasible set while its cost moves; each warm
        # re-solve by the primal simplex matches a cold solve
        for warm, cold in _dual_replay(seed):
            assert abs(warm.value - cold.value) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_dual_replay_is_byte_identical(self, seed):
        for (a, _), (b, _) in zip(_dual_replay(seed), _dual_replay(seed)):
            assert a.x.tobytes() == b.x.tobytes()

    def test_cost_shape_mismatch(self):
        _, model, cost, _ = _dual_program(0)
        with pytest.raises(ValueError):
            model.set_cost(cost[:-1])

    def test_unbounded_cost_then_recovery(self):
        _, model, cost, cold = _dual_program(11)
        before = model.solve().value
        bad = cost.copy()
        bad[-1] = 5.0  # the dual of -x_n <= -5 against x_n <= 2
        model.set_cost(bad)
        with pytest.raises(LpUnboundedError):
            model.solve()
        assert cold(bad).status == 3
        model.set_cost(cost)
        assert abs(model.solve().value - before) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_two_unbounded_costs_then_bounded(self, seed):
        # an unbounded verdict clears the solver: no stale basis is kept
        _, model, cost, cold = _dual_program(seed)
        model.solve()
        for cut in (5.0, 3.0):
            bad = cost.copy()
            bad[-1] = cut
            model.set_cost(bad)
            with pytest.raises(LpUnboundedError):
                model.solve()
            assert cold(bad).status == 3
            assert not model._highs.getBasis().valid
        model.set_cost(cost)
        assert abs(model.solve().value - cold(cost).value) <= 1e-9

    def test_equality_rows(self):
        # min x_1 + 2 x_2 + 4 x_3 s.t. x_1 + x_2 + x_3 = 1, x_1 - x_3 = 0.2,
        # x >= 0: with x_3 = t the cost is 1.8 + t, so x = (0.2, 0.8, 0)
        c, a_eq, b_eq = [-1.0, -2.0, -4.0], [[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]], [1.0, 0.2]
        sol = LpModel(c, None, None, a_eq=a_eq, b_eq=b_eq).solve()
        np.testing.assert_allclose(sol.x, [0.2, 0.8, 0.0], atol=1e-12)
        assert abs(sol.value + 1.8) <= 1e-12
        assert abs(_reference(c, None, None, (0, None), a_eq, b_eq).value + 1.8) <= 1e-12

    def test_integer_columns(self):
        # max x_1 + x_2 s.t. 2 x_1 + 2 x_2 <= 3 on [0, 1]^2: 1.5 relaxed,
        # 1 when both columns are integer
        c, a, b = [1.0, 1.0], [[2.0, 2.0]], [3.0]
        assert abs(LpModel(c, a, b, bounds=(0.0, 1.0)).solve().value - 1.5) <= 1e-12
        sol = LpModel(c, a, b, bounds=(0.0, 1.0), integer=[0, 1]).solve()
        assert abs(sol.value - 1.0) <= 1e-12
        np.testing.assert_allclose(np.sort(sol.x), [0.0, 1.0], rtol=0, atol=1e-12)

    def test_unbounded_after_dropping_bounds(self):
        # max x_1 subject to x_1 - x_2 <= 0: bounded only by the caps
        c, a, b = [1.0, 0.0], [[1.0, -1.0]], [0.0]
        model = LpModel(c, a, b, bounds=CAPPED)
        assert abs(model.solve().value - 1.0) <= 1e-9
        model.set_bounds(FREE)
        with pytest.raises(LpUnboundedError):
            model.solve()
        assert _reference(c, a, b, FREE).status == 3

    def test_infeasible_bounds_then_recovery(self):
        # raising both lower bounds to 1 asks x_1 + x_2 >= 2 against x_1 + x_2 <= 1
        c, a, b = [1.0, 1.0], [[1.0, 1.0]], [1.0]
        model = LpModel(c, a, b, bounds=(0.0, None))
        before = model.solve().value
        model.set_bounds((1.0, None))
        with pytest.raises(LpInfeasibleError):
            model.solve()
        assert _reference(c, a, b, (1.0, None)).status == 2
        assert not model._highs.getBasis().valid
        model.set_bounds((0.0, None))
        assert abs(model.solve().value - before) <= 1e-9


class TestPolish:
    @pytest.mark.parametrize("seed", range(8))
    def test_recomputes_the_same_vertex(self, seed):
        _, c, a, b = _random_program(seed)
        model = LpModel(c, a, b, bounds=FREE)
        sol = model.solve()
        polished = model.polish()
        np.testing.assert_allclose(polished.x, sol.x, rtol=0, atol=1e-9)
        assert polished.value == float(np.dot(c, polished.x))
        assert np.max(a @ polished.x - b) <= 1e-12

    def test_dual_form_with_equality_rows(self):
        _, model, cost, cold = _dual_program(2)
        model.solve()
        polished = model.polish()
        assert abs(polished.value - cold(cost).value) <= 1e-9
        assert polished.x.min() >= 0.0

    def test_no_basis_raises(self):
        model = LpModel([1.0, 1.0], [[1.0, 1.0]], [1.0], bounds=(1.0, None))
        with pytest.raises(LpInfeasibleError):
            model.solve()
        with pytest.raises(LpSolverError):
            model.polish()

    def test_singular_factor_raises_solver_error(self, monkeypatch):
        def singular(matrix):
            raise RuntimeError("Factor is exactly singular")

        _, c, a, b = _random_program(0)
        model = LpModel(c, a, b, bounds=FREE)
        model.solve()
        monkeypatch.setattr(lp, "splu", singular)
        with pytest.raises(LpSolverError, match="exactly singular"):
            model.polish()

    def test_non_square_basis_raises(self):
        _, c, a, b = _random_program(0)
        model = LpModel(c, a, b, bounds=FREE)
        model.solve()
        basis = model._highs.getBasis()
        basis.col_status = [lp._highs.HighsBasisStatus.kBasic] * len(c)
        # every column and every row slack basic
        basic = np.concatenate([np.arange(len(c)), -1 - np.arange(len(b))]).astype(np.int32)
        model._highs = types.SimpleNamespace(
            getBasis=lambda: basis,
            getBasicVariables=lambda: (lp._highs.HighsStatus.kOk, basic))
        with pytest.raises(LpSolverError, match="columns on 0 tight rows"):
            model.polish()
