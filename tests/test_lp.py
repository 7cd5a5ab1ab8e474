import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from screenforge.errors import LpInfeasibleError, LpUnboundedError
from screenforge.lp import LpModel, lp_solve


def _reference(c, a, b, bounds):
    """Cold solve of max c.x s.t. a x <= b by scipy's linprog, an engine
    independent of ``LpModel`` (status 0 optimal, 2 infeasible, 3
    unbounded; ``value`` is the maximum)."""
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
    for _ in range(3):
        extra = rng.normal(size=(2, n))
        extra_b = rng.random(2) + 0.1
        model.add_rows(sp.csr_matrix(extra), extra_b)
        a, b = np.vstack([a, extra]), np.concatenate([b, extra_b])
        check(CAPPED)
    b = b.copy()
    b[: len(b) // 2] *= rng.random(len(b) // 2) + 0.5
    model.set_rhs(b)
    check(CAPPED)
    model.set_bounds(FREE)
    check(FREE)
    model.set_bounds(CAPPED)
    check(CAPPED)
    return steps


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

    def test_infeasible_rhs_then_recovery(self):
        _, c, a, b = _random_program(11)
        model = LpModel(c, a, b, bounds=CAPPED)
        before = model.solve().value
        bad = b.copy()
        bad[-1] = -5.0  # -x_n <= -5 against x_n <= 1
        model.set_rhs(bad)
        with pytest.raises(LpInfeasibleError):
            model.solve()
        assert _reference(c, a, bad, CAPPED).status == 2
        model.set_rhs(b)
        assert abs(model.solve().value - before) <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_two_infeasible_rhs_then_feasible(self, seed):
        # a warm start from the basis an infeasible verdict leaves behind
        # can end in status "Unknown"; the model clears its solver instead
        _, c, a, b = _random_program(seed)
        model = LpModel(c, a, b, bounds=CAPPED)
        model.solve()
        for cut in (-5.0, -3.0):
            bad = b.copy()
            bad[-1] = cut  # -x_n <= cut against x_n <= 1
            model.set_rhs(bad)
            with pytest.raises(LpInfeasibleError):
                model.solve()
            assert _reference(c, a, bad, CAPPED).status == 2
            assert not model._highs.getBasis().valid  # no stale basis kept
        model.set_rhs(b)
        cold = _reference(c, a, b, CAPPED)
        assert abs(model.solve().value - cold.value) <= 1e-9

    def test_unbounded_after_dropping_bounds(self):
        # max x_1 subject to x_1 - x_2 <= 0: bounded only by the caps
        c, a, b = [1.0, 0.0], [[1.0, -1.0]], [0.0]
        model = LpModel(c, a, b, bounds=CAPPED)
        assert abs(model.solve().value - 1.0) <= 1e-9
        model.set_bounds(FREE)
        with pytest.raises(LpUnboundedError):
            model.solve()
        assert _reference(c, a, b, FREE).status == 3

    def test_infeasible_appended_row(self):
        c, a, b = [1.0, 1.0], [[1.0, 1.0]], [1.0]
        model = LpModel(c, a, b, bounds=(0.0, None))
        model.solve()
        model.add_rows([[-1.0, -1.0]], [-2.0])  # x_1 + x_2 >= 2
        with pytest.raises(LpInfeasibleError):
            model.solve()
