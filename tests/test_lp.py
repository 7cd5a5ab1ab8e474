import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from screenforge import lp
from screenforge.errors import LpInfeasibleError, LpSolverError, LpUnboundedError
from screenforge.lp import LpModel, lp_solve


def _reference(c, a, b, bounds):
    """Cold solve of max c.x s.t. a x <= b by scipy's linprog, an engine
    independent of ``LpModel`` (status 0 optimal, 2 infeasible,
    3 unbounded; ``value`` is the maximum)."""
    res = linprog(-np.asarray(c, dtype=float), A_ub=a, b_ub=b, bounds=bounds, method="highs")
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
        a_bal = []
        b_bal = []
        for i in range(2):
            row = np.zeros(4)
            row[2 * i : 2 * i + 2] = 1.0
            a_bal.append(row)
            b_bal.append(supply[i])
        for j in range(2):
            row = np.zeros(4)
            row[j::2] = 1.0
            a_bal.append(row)
            b_bal.append(demand[j])
        a_bal, b_bal = np.array(a_bal), np.array(b_bal)
        sol = lp_solve(c, a_ub=np.vstack([a_bal, -a_bal]), b_ub=np.concatenate([b_bal, -b_bal]),
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


def _replay(seed):
    """Edit one warm model step by step; after each step solve it and
    the same program from scratch by the reference engine.  Returns
    [(warm, cold)] per step."""
    _, c, a, b = _random_program(seed)
    model = LpModel(c, sp.csr_matrix(a), b, bounds=CAPPED)
    steps = []

    def check(bounds):
        steps.append((model.solve(), _reference(c, a, b, bounds)))

    check(CAPPED)
    model.set_bounds(FREE)
    check(FREE)
    model.set_bounds(CAPPED)
    check(CAPPED)
    return steps


def _dual_program(seed):
    """The dual of ``_random_program`` over free columns, min b.y s.t.
    A^T y = c, y >= 0, as max -b.y; each equality is a pair of opposite
    <= rows.  Returns (cost, rows, rhs)."""
    _, c, a, b = _random_program(seed)
    return -b, np.vstack([a.T, -a.T]), np.concatenate([c, -c])


def _dual_replay(seed):
    """Cap the dual's columns, tighter and then off again, on one warm
    model; [(warm, cold)] per step, where warm is the solution or the
    ``LpInfeasibleError`` the solve raised."""
    cost, rows, rhs = _dual_program(seed)
    model = LpModel(cost, rows, rhs)
    steps = []

    def check(bounds):
        try:
            warm = model.solve()
        except LpInfeasibleError as exc:
            warm = exc
        steps.append((warm, _reference(cost, rows, rhs, bounds)))

    check((0.0, None))
    top = steps[0][0].x.max()
    for bounds in ((0.0, 0.9 * top), (0.0, 0.5 * top), (0.0, None)):
        model.set_bounds(bounds)
        check(bounds)
    return steps


class TestPassedModel:
    """HiGHS holds exactly the program the model was given."""

    @pytest.mark.parametrize("form", [sp.csr_matrix, sp.csc_matrix, np.asarray],
                             ids=["csr", "csc", "dense"])
    def test_highs_lp_equals_the_inputs(self, form):
        rng = np.random.default_rng(4)
        c = rng.random(5)
        a = rng.random((4, 5)) * (rng.random((4, 5)) < 0.6)
        b = rng.random(4)
        bounds = [(0.0, 1.0), (None, 2.0), (-1.0, None), (None, None), (0.5, 0.5)]
        model = LpModel(c, form(a), b, bounds=bounds)
        got = model._highs.getLp()
        assert got.sense_ == lp._highs.ObjSense.kMaximize
        assert (got.num_col_, got.num_row_) == (5, 4)
        assert np.asarray(got.col_cost_).tobytes() == c.tobytes()
        np.testing.assert_array_equal(got.col_lower_, [0.0, -np.inf, -1.0, -np.inf, 0.5])
        np.testing.assert_array_equal(got.col_upper_, [1.0, 2.0, np.inf, np.inf, 0.5])
        np.testing.assert_array_equal(got.row_lower_, [-np.inf] * 4)
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
    def test_dual_form_matches_the_primal(self, seed):
        # strong duality: min b.y over A^T y = c, y >= 0 equals max c.x
        _, c, a, b = _random_program(seed)
        primal = LpModel(c, a, b, bounds=FREE).solve().value
        dual = LpModel(*_dual_program(seed)).solve().value
        assert abs(primal + dual) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_capped_dual_matches_cold_solves(self, seed):
        # the caps cut the optimum, then the feasible set, then come off
        steps = _dual_replay(seed)
        assert [cold.status for _, cold in steps] == [0, 0, 2, 0]
        for warm, cold in steps:
            if cold.status == 2:
                assert isinstance(warm, LpInfeasibleError)
            else:
                assert abs(warm.value - cold.value) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_dual_replay_is_byte_identical(self, seed):
        for (a, _), (b, _) in zip(_dual_replay(seed), _dual_replay(seed)):
            if isinstance(a, LpInfeasibleError):
                assert isinstance(b, LpInfeasibleError)
            else:
                assert a.x.tobytes() == b.x.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_unbounded_verdicts_then_capped(self, seed):
        # five random rows in six free columns leave a ray; each verdict
        # clears the solver, and a later solve starts from scratch
        _, c, a, b = _random_program(seed)
        a, b = a[:5], b[:5]
        model = LpModel(c, a, b, bounds=CAPPED)
        model.solve()
        model.set_bounds(FREE)
        for _ in range(2):
            with pytest.raises(LpUnboundedError):
                model.solve()
            assert not model._highs.getBasis().valid
        assert _reference(c, a, b, FREE).status == 3
        model.set_bounds(CAPPED)
        assert abs(model.solve().value - _reference(c, a, b, CAPPED).value) <= 1e-9

    def test_integer_columns(self):
        # max x_1 + x_2 s.t. 2 x_1 + 2 x_2 <= 3 on [0, 1]^2: 1.5 relaxed,
        # 1 when both columns are integer
        c, a, b = [1.0, 1.0], [[2.0, 2.0]], [3.0]
        assert abs(LpModel(c, a, b, bounds=(0.0, 1.0)).solve().value - 1.5) <= 1e-12
        sol = LpModel(c, a, b, bounds=(0.0, 1.0), integer=[0, 1]).solve()
        assert abs(sol.value - 1.0) <= 1e-12
        np.testing.assert_allclose(np.sort(sol.x), [0.0, 1.0], rtol=0, atol=1e-12)

    def test_unbounded_after_dropping_bounds(self):
        # max x_1 subject to x_1 - x_2 <= 0: bounded only by the caps; an
        # unbounded verdict clears the solver, so no stale basis is kept
        c, a, b = [1.0, 0.0], [[1.0, -1.0]], [0.0]
        model = LpModel(c, a, b, bounds=CAPPED)
        assert abs(model.solve().value - 1.0) <= 1e-9
        model.set_bounds(FREE)
        with pytest.raises(LpUnboundedError):
            model.solve()
        assert _reference(c, a, b, FREE).status == 3
        assert not model._highs.getBasis().valid
        model.set_bounds(CAPPED)
        assert abs(model.solve().value - 1.0) <= 1e-9

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

    def test_dual_form_with_paired_rows(self):
        # both rows of an equality pair are tight; the basis keeps one slack
        cost, rows, rhs = _dual_program(2)
        model = LpModel(cost, rows, rhs)
        model.solve()
        polished = model.polish()
        assert abs(polished.value - _reference(cost, rows, rhs, (0, None)).value) <= 1e-9
        assert polished.x.min() >= 0.0
        assert np.max(rows @ polished.x - rhs) <= 1e-12

    def test_no_basis_raises(self):
        model = LpModel([1.0, 1.0], [[1.0, 1.0]], [1.0], bounds=(1.0, None))
        with pytest.raises(LpInfeasibleError):
            model.solve()
        with pytest.raises(LpSolverError):
            model.polish()

    @pytest.mark.parametrize("seed", range(8))
    def test_polish_after_set_bounds_solves_the_new_program(self, seed):
        # the basis left by the old bounds is no longer primal feasible;
        # polish re-runs HiGHS from it rather than recomputing it as it is
        _, c, a, b = _random_program(seed)
        model = LpModel(c, a, b, bounds=FREE)
        model.solve()
        model.set_bounds((-0.5, 0.5))
        polished = model.polish()
        assert abs(polished.value - _reference(c, a, b, (-0.5, 0.5)).value) <= 1e-9
