from dataclasses import replace
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scalar_reference as scalar
from scalar_reference import kelley_sequential

from screenforge import mech as X
from screenforge import model as M
from screenforge import oracle as O
from screenforge.errors import (
    ConvergenceError,
    DegenerateCellError,
    LpInfeasibleError,
    LpSolverError,
)
from screenforge.lp import LpSolution


def cl_model(goods=2, copula=None):
    cfg = {"name": "cl_uniform", "goods": goods}
    if copula:
        cfg["copula"] = copula
    return M.build_model(cfg)


HAND = O.DiscreteInstance(
    gamma_values=[0.0, 1.0],
    gamma_probs=[0.5, 0.5],
    theta_grids=[np.array([1.0, 2.0])],
    pmf=np.array([[0.75, 0.25], [0.25, 0.75]]),
)

SINGLE = O.DiscreteInstance(
    gamma_values=[0.5],
    gamma_probs=[1.0],
    theta_grids=[np.array([1.0, 2.0])],
    pmf=np.array([[0.5, 0.5]]),
)

# round-number 2 x 2 x 2 instance with optimum 535/112
ROUND = O.DiscreteInstance(
    gamma_values=[0.0, 1.0],
    gamma_probs=[0.5, 0.5],
    theta_grids=[np.array([1.0, 4.0])] * 2,
    pmf=np.array([[1.0, 2.0, 1.0, 4.0], [4.0, 4.0, 4.0, 2.0]]) / [[8.0], [14.0]],
)

IDENTICAL = O.DiscreteInstance(
    gamma_values=[0.2, 0.8],
    gamma_probs=[0.5, 0.5],
    theta_grids=[np.array([1.0, 2.0])],
    pmf=np.array([[0.5, 0.5], [0.5, 0.5]]),
)


class TestDiscretize:
    def test_uniform_prior_two_cells(self):
        inst = O.discretize(M.build_model({"name": "uniform_iid", "goods": 1}), 2, 2)
        np.testing.assert_allclose(inst.gamma_values, [0.25, 0.75])
        np.testing.assert_allclose(inst.gamma_probs, [0.5, 0.5])

    def test_independent_uniforms_quarter_cells(self):
        inst = O.discretize(M.build_model({"name": "uniform_iid", "goods": 2}), 2, 2)
        np.testing.assert_allclose(inst.pmf, 0.25, atol=1e-12)

    def test_cl_masses_match_direct_cdf_differences(self):
        mdl = cl_model(2)
        inst = O.discretize(mdl, 3, [3, 4])
        marg = mdl.marginals[0]
        for mi, g in enumerate(inst.gamma_values):
            # independence: joint cell mass is the product of per-axis
            # cdf differences, computed directly here
            e1 = np.linspace(0, 2, 4)
            e2 = np.linspace(0, 2, 5)
            d1 = np.diff([float(marg.cdf(x, g)) for x in e1])
            d2 = np.diff([float(marg.cdf(x, g)) for x in e2])
            ref = np.outer(d1, d2).ravel()
            np.testing.assert_allclose(inst.pmf[mi], ref / ref.sum(), atol=1e-12)

    def test_clayton_masses_by_inclusion_exclusion(self):
        mdl = cl_model(2, {"name": "clayton", "alpha": 2.0})
        inst = O.discretize(mdl, 2, [2, 2])
        marg = mdl.marginals[0]
        cop = mdl.copula
        for mi, g in enumerate(inst.gamma_values):
            edges = np.linspace(0, 2, 3)
            big_f = lambda a, b: float(
                cop.cdf(np.array([float(marg.cdf(a, g)), float(marg.cdf(b, g))]), g)
            )
            ref = []
            for i in range(2):
                for j in range(2):
                    ref.append(
                        big_f(edges[i + 1], edges[j + 1])
                        - big_f(edges[i], edges[j + 1])
                        - big_f(edges[i + 1], edges[j])
                        + big_f(edges[i], edges[j])
                    )
            ref = np.asarray(ref)
            np.testing.assert_allclose(inst.pmf[mi], ref / ref.sum(), atol=1e-10)

    def test_tiny_masses_are_kept(self):
        # the drifting logistic + Gaussian 6x6x6 instance keeps its least
        # cell, of 3.8e-11, and every type's pmf sums to one
        inst = O.discretize(M.build_model(DRIFTING_LOGI), 6, 6)
        assert np.count_nonzero(inst.pmf == 0) == 0
        assert 3.7e-11 < inst.pmf.min() < 3.8e-11
        np.testing.assert_allclose(inst.pmf.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_marginal_instance_sums_out(self):
        inst = O.discretize(cl_model(2), 3, [3, 4])
        m0 = O.marginal_instance(inst, 0)
        np.testing.assert_allclose(
            m0.pmf, inst.pmf.reshape(3, 3, 4).sum(axis=2), atol=1e-14
        )

    def test_validation(self):
        with pytest.raises(DegenerateCellError):
            O.DiscreteInstance([0.5], [1.0], [np.array([1.0])], np.array([[0.7]]))


class TestRelaxedTables:
    def test_pushforward_reproduces_pmf(self):
        inst = O.discretize(cl_model(2), 3, [3, 3])
        tabs = O.build_relaxed_tables(inst)
        assert abs(tabs.masses.sum() - 1.0) < 1e-12
        for m in range(inst.n_types):
            agg = np.zeros(inst.n_cells)
            np.add.at(agg, tabs.cell_of[:, m], tabs.masses)
            np.testing.assert_allclose(agg, inst.pmf[m], atol=1e-12)

    def test_values_are_cell_representatives(self):
        inst = O.discretize(cl_model(2), 2, [2, 2])
        tabs = O.build_relaxed_tables(inst)
        reps = inst.cell_values
        for z in range(len(tabs.masses)):
            for m in range(inst.n_types):
                np.testing.assert_array_equal(tabs.values[z, m], reps[tabs.cell_of[z, m]])


    @staticmethod
    def reference_instances():
        yield O.discretize(cl_model(2), 3, [3, 3])
        yield O.discretize(M.build_model({"name": "logistic_shift", "goods": 2, "copula": {
            "name": "gaussian", "rho": 0.5}}), 3, [4, 4])
        yield O.discretize(cl_model(3, {"name": "clayton", "alpha": 1.0}), 2, [2, 3, 2])
        rng = np.random.default_rng(3)
        for dims in [(3,), (2, 3), (3, 2, 2), (4, 4)]:
            # zeroed cells leave some prefixes without mass
            pmf = rng.random((3, int(np.prod(dims)))) * (rng.random((3, int(np.prod(dims)))) > 0.4)
            pmf[:, -1] += 0.1
            yield O.DiscreteInstance(np.linspace(0.0, 1.0, 3), np.full(3, 1.0 / 3),
                                     [np.linspace(0.0, 1.0, d) for d in dims],
                                     pmf / pmf.sum(axis=1, keepdims=True))

    def test_matches_the_recursive_reference(self):
        for inst in self.reference_instances():
            tabs = O.build_relaxed_tables(inst)
            masses, cell_of = scalar.relaxed_tables(inst)
            np.testing.assert_array_equal(tabs.masses, masses)
            np.testing.assert_array_equal(tabs.cell_of, cell_of)

    def test_cell_report_matches_the_loop_reference(self):
        for inst in self.reference_instances():
            mech = O.solve_relaxed(inst).mechanism
            np.testing.assert_array_equal(mech.q, scalar.relaxed_cell_allocation(
                inst, mech.aux["masses"], mech.aux["cell_of"], mech.aux["qhat"]))

    def test_shock_space_audit_matches_the_loop_reference(self):
        # the audit sums over shock cells in another order than the loop,
        # so the two agree to round-off; shifted fees give real violations
        for inst in self.reference_instances():
            mech = O.solve_relaxed(inst).mechanism
            mech = replace(mech, t1=mech.t1 + np.array([0.1, -0.05, 0.2])[:inst.n_types])
            value = scalar.relaxed_values(inst, mech.aux["masses"], mech.aux["cell_of"],
                                          mech.aux["qhat"], mech.t1)
            truthful = np.diag(value)
            ev = O.evaluate_mechanism(inst, mech)
            assert abs(ev.ic1_violation - np.max(value - truthful[:, None])) <= 1e-12
            assert abs(ev.ir_violation - np.max(np.maximum(-truthful, 0.0))) <= 1e-12


class TestSimultaneous:
    def test_single_type_full_extraction(self):
        rep = O.solve_simultaneous(SINGLE)
        assert abs(rep.value - 1.5) < 1e-9

    def test_identical_pmfs_full_surplus(self):
        rep = O.solve_simultaneous(IDENTICAL)
        assert abs(rep.value - 1.5) < 1e-9

    def test_hand_instance_bounds_and_oracle_match(self):
        rep = O.solve_simultaneous(HAND)
        assert 1.0 - 1e-9 <= rep.value <= 1.5 + 1e-9
        assert abs(rep.value - O.brute_force_value(HAND)) < 1e-8
        # hand derivation: any strike/fee split of the low type's menu
        # earns at most 0.625 + strike/4 <= 1.125 when the high type is
        # held to zero rent, while pooling at the low mean earns 1.25
        assert abs(rep.value - 1.25) < 1e-9

    def test_report_self_consistency(self):
        rep = O.solve_simultaneous(HAND)
        ev = O.evaluate_mechanism(HAND, rep.mechanism)
        assert abs(ev.revenue - rep.value) < 1e-9
        assert ev.ic2_violation <= 1e-9
        assert ev.ir_violation <= 1e-9
        assert ev.ic1_violation <= 1e-9

    @pytest.mark.parametrize("solver", [O.solve_simultaneous, O.solve_sequential, O.solve_relaxed],
                             ids=["simultaneous", "sequential", "relaxed"])
    def test_capped_and_cap_free_values_agree(self, monkeypatch, solver):
        vertices, lp_solve = [], O.LpModel.solve

        def recorded(model):
            vertices.append(lp_solve(model))
            return vertices[-1]

        monkeypatch.setattr(O.LpModel, "solve", recorded)
        rep = solver(O.discretize(cl_model(2), 3, [4, 4]))
        capped, cap_free, polished = (sol.value for sol in vertices)
        assert abs(capped - cap_free) <= 1e-9 and abs(polished - cap_free) <= 1e-9
        assert rep.value == polished and rep.iterations == 1

    def test_value_capped_by_full_surplus(self):
        for inst in (HAND, SINGLE, IDENTICAL, O.discretize(cl_model(2), 3, [3, 3])):
            rep = O.solve_simultaneous(inst)
            assert rep.value <= O.full_surplus(inst) + 1e-9

    def test_tiny_cell_masses_are_kept(self):
        # cell masses down to 3.8e-11 in the logistic tails; HiGHS used to
        # drop matrix entries below 1e-9 and then reject the cap-free run
        inst = O.discretize(M.build_model(DRIFTING_LOGI), 6, [6, 6])
        assert abs(O.solve_simultaneous(inst).value - 1.4503106396842755) <= 1e-9

    def test_one_ulp_mass_changes_pass_the_recheck(self):
        # each cell mass moved by at most an ulp: before the final vertex was
        # polished from its basis, 2 of these 12 logi 3x6x6 optima failed
        # their re-check (1.9e-9 and 2.7e-10)
        base = O.discretize(M.build_model(LOGI_FAMILY), 3, [6, 6])
        for trial in range(12):
            s = np.random.default_rng(trial).integers(-1, 2, size=base.pmf.shape)
            pmf = base.pmf * (1.0 + s * 2.2e-16)
            inst = O.DiscreteInstance(base.gamma_values, base.gamma_probs, base.theta_grids,
                                      pmf / pmf.sum(axis=1, keepdims=True))
            ev = O.evaluate_mechanism(inst, O.solve_simultaneous(inst).mechanism)
            assert max(ev.ic1_violation, ev.ic2_violation, ev.ir_violation) < 1e-11, trial

    def test_deterministic_reruns(self):
        inst = O.discretize(cl_model(2), 3, [3, 3])
        a = O.solve_simultaneous(inst)
        b = O.solve_simultaneous(inst)
        assert a.value == b.value
        assert a.mechanism.q.tobytes() == b.mechanism.q.tobytes()


class TestSequential:
    def test_one_good_matches_simultaneous(self):
        sim = O.solve_simultaneous(HAND)
        seq = O.solve_sequential(HAND)
        assert abs(sim.value - seq.value) < 1e-9

    def test_single_type_independent_goods_full_surplus(self):
        inst = O.discretize(M.build_model({"name": "uniform_iid", "goods": 2}), 1, [2, 2])
        rep = O.solve_sequential(inst)
        assert abs(rep.value - O.full_surplus(inst)) < 1e-9

    def test_weakly_beats_simultaneous_on_independent_instances(self):
        inst = O.discretize(cl_model(2), 2, [2, 2])
        sim = O.solve_simultaneous(inst)
        seq = O.solve_sequential(inst)
        assert seq.value >= sim.value - 1e-9

    def test_allocation_is_history_measurable(self):
        inst = O.discretize(cl_model(2), 2, [3, 2])
        rep = O.solve_sequential(inst)
        q = rep.mechanism.q.reshape(2, 3, 2, 2)
        # good 1 may depend only on its own cell: constant across good 2
        np.testing.assert_allclose(q[:, :, 0, 0], q[:, :, 1, 0], atol=1e-12)

    @pytest.mark.parametrize("cells", [3, 4])
    def test_optimal_mechanism_has_no_adapted_ic2_gain(self, cells):
        # full-cell misreports are not adapted deviations: the optimum
        # admits them (readme family, 3 type cells) but no adapted one
        inst = O.discretize(cl_model(2, {"name": "clayton", "alpha": 2.0}), 3, cells)
        ev = O.evaluate_mechanism(inst, O.solve_sequential(inst).mechanism)
        assert ev.ic2_violation <= 1e-9
        assert ev.ic1_violation <= 1e-9

    def test_self_consistency(self):
        inst = O.discretize(cl_model(2), 2, [2, 2])
        rep = O.solve_sequential(inst)
        ev = O.evaluate_mechanism(inst, rep.mechanism)
        assert abs(ev.revenue - rep.value) < 1e-9
        assert ev.ic1_violation <= 1e-9


def _scalar_best_response(instance, mech, m, m_rep):
    """Reference adapted best response: scalar backward induction over
    (true history, reported history) states, one state at a time."""
    dims = instance.dims
    n = instance.n_goods
    cell_multi = np.stack(np.unravel_index(np.arange(instance.n_cells), dims), axis=-1)
    pmf = instance.pmf[m].reshape(dims)
    q_pref = []
    for i in range(n):
        tab = np.empty(int(np.prod(dims[: i + 1])))
        for cell in range(instance.n_cells):
            prefix = np.ravel_multi_index(tuple(cell_multi[cell, : i + 1]), dims[: i + 1])
            tab[prefix] = mech.q[m_rep, cell, i]
        q_pref.append(tab.reshape(dims[: i + 1]))
    t2 = mech.t2[m_rep].reshape(dims)
    prefix_prob = []
    for i in range(n + 1):
        axes = tuple(range(i, n))
        prefix_prob.append(pmf.sum(axis=axes) if axes else pmf)
    theta = instance.theta_grids
    policies = [None] * n
    v = np.broadcast_to(-t2, dims + dims).copy()
    for level in range(n, 0, -1):
        i = level - 1
        pol = np.empty(dims[:level] + dims[: level - 1], dtype=int)
        v_new = np.zeros(dims[: level - 1] + dims[: level - 1])
        for t_pre in np.ndindex(*dims[: level - 1]):
            p_pre = prefix_prob[level - 1][t_pre] if level - 1 > 0 else 1.0
            for r_pre in np.ndindex(*dims[: level - 1]):
                total = 0.0
                for t_i in range(dims[i]):
                    p_joint = prefix_prob[level][t_pre + (t_i,)]
                    if p_pre <= 0.0 or p_joint <= 0.0:
                        pol[t_pre + (t_i,) + r_pre] = 0
                        continue
                    best, best_r = -np.inf, 0
                    for r_i in range(dims[i]):
                        cand = theta[i][t_i] * q_pref[i][r_pre + (r_i,)] + v[t_pre + (t_i,) + r_pre + (r_i,)]
                        if cand > best + 1e-15:
                            best, best_r = cand, r_i
                    pol[t_pre + (t_i,) + r_pre] = best_r
                    total += p_joint / p_pre * best
                v_new[t_pre + r_pre] = total
        policies[i] = pol
        v = v_new
    return float(v[()])


def _random_adapted_mechanism(rng, instance):
    """Random menus whose good-i allocation depends on the first i+1
    reported coordinates only."""
    dims, n = instance.dims, instance.n_goods
    multi = np.unravel_index(np.arange(instance.n_cells), dims)
    q = np.empty((instance.n_types, instance.n_cells, n))
    for i in range(n):
        prefix = np.ravel_multi_index(multi[: i + 1], dims[: i + 1])
        q[:, :, i] = rng.random((instance.n_types, int(np.prod(dims[: i + 1]))))[:, prefix]
    t2 = rng.normal(size=(instance.n_types, instance.n_cells))
    return O.DiscreteMechanism(q=q, t1=np.zeros(instance.n_types), t2=t2, regime="sequential")


def _random_instance(rng, n_types, dims):
    pmf = rng.random((n_types, int(np.prod(dims))))
    pmf[pmf < 0.2] = 0.0  # zero-probability histories take the skip branch
    pmf /= pmf.sum(axis=1, keepdims=True)
    return O.DiscreteInstance(
        gamma_values=np.linspace(0.0, 1.0, n_types),
        gamma_probs=np.full(n_types, 1.0 / n_types),
        theta_grids=[np.sort(rng.random(d) * 2.0) for d in dims],
        pmf=pmf,
    )


def _adapted_audit_is_clean(inst, mech):
    ev = O.evaluate_mechanism(inst, mech)
    return max(ev.ic1_violation, ev.ic2_violation, ev.ir_violation) <= 1e-9


README_FAMILY = {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}}
LOGI_FAMILY = {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}}
DRIFTING_LOGI = {"name": "logistic_shift", "goods": 2,
                 "copula": {"name": "gaussian", "rho": -0.8, "rho_slope": 1.6}}


def _recorded(monkeypatch, solve, inst):
    """``solve(inst)``, HiGHS's vertices in order (capped, cap-free,
    polished), and each re-check's outcome (True on a pass) in order."""
    vertices, outcomes = [], []
    lp_solve, recheck = O.LpModel.solve, O._recheck

    def recorded(model):
        vertices.append(lp_solve(model))
        return vertices[-1]

    def checked(inst, mech):
        try:
            recheck(inst, mech)
        except ConvergenceError:
            outcomes.append(False)
            raise
        outcomes.append(True)

    monkeypatch.setattr(O.LpModel, "solve", recorded)
    monkeypatch.setattr(O, "_recheck", checked)
    return solve(inst), vertices, outcomes


class TestExactSequential:
    @pytest.mark.parametrize("family,gamma_cells,theta_cells", [
        *((README_FAMILY, 3, k) for k in (2, 3, 4, 5)),
        *((LOGI_FAMILY, 3, k) for k in (2, 3, 4, 5)),
        ({"name": "cl_uniform", "goods": 3, "copula": {"name": "gaussian", "rho": 0.5}},
         2, [3, 3, 3]),
    ], ids=[*(f"readme-3x{k}x{k}" for k in (2, 3, 4, 5)),
            *(f"logi-3x{k}x{k}" for k in (2, 3, 4, 5)), "cl-gaussian-2x3x3x3"])
    def test_matches_kelley_cutting_planes(self, family, gamma_cells, theta_cells):
        inst = O.discretize(M.build_model(family), gamma_cells, theta_cells)
        rep = O.solve_sequential(inst)
        assert abs(rep.value - kelley_sequential(inst)) <= 1e-9
        assert _adapted_audit_is_clean(inst, rep.mechanism)

    @pytest.mark.parametrize("seed,n_types,dims", [(1, 3, (3, 4)), (3, 3, (2, 3, 2))])
    def test_zero_mass_histories_match_kelley(self, seed, n_types, dims):
        inst = _random_instance(np.random.default_rng(seed), n_types, dims)
        assert np.any(inst.pmf == 0.0)
        rep = O.solve_sequential(inst)
        assert abs(rep.value - kelley_sequential(inst)) <= 1e-9
        assert _adapted_audit_is_clean(inst, rep.mechanism)

    @pytest.mark.parametrize("family,gamma_cells,theta_cells", [
        ({"name": "cl_uniform", "goods": 2}, 3, [8, 8]),
        ({"name": "cl_uniform", "goods": 2}, 8, [8, 8]),
        (DRIFTING_LOGI, 4, [5, 5]),
        ({"name": "logistic_shift", "goods": 3, "copula": {"name": "clayton", "alpha": 2.0}},
         3, [3, 3, 3]),
    ], ids=["cl-3x8x8", "cl-8x8x8", "drifting-logi-4x5x5", "logi-clayton-3x3x3x3"])
    def test_rungs_past_the_old_round_cap(self, family, gamma_cells, theta_cells):
        # cutting planes needed 318, 304 and 463 rounds on the first three
        inst = O.discretize(M.build_model(family), gamma_cells, theta_cells)
        rep = O.solve_sequential(inst)
        assert _adapted_audit_is_clean(inst, rep.mechanism)
        assert rep.value >= O.solve_simultaneous(inst).value - 1e-9

    def test_lp_size_is_reported(self):
        # 3 types, 5x5 cells: 90 allocation, 75 transfer and 120 value
        # columns; 375 + 225 epigraph, 9 deviation and 3 participation rows
        inst = O.discretize(M.build_model(LOGI_FAMILY), 3, 5)
        rep = O.solve_sequential(inst)
        assert (rep.rows, rep.cols) == (612, 285)
        assert 0 < rep.nnz < rep.rows * rep.cols

    def test_dropped_stage_rows_fail_the_recheck(self, monkeypatch):
        # without stage 0's epigraph rows the top rows bound nothing, and
        # only the independent best responses can notice
        build = O._seq_stage_rows

        def drop_first_stage(layout, j):
            rows, rhs = build(layout, j)
            return (tuple(a[:0] for a in rows), rhs[:0]) if j == 0 else (rows, rhs)

        monkeypatch.setattr(O, "_seq_stage_rows", drop_first_stage)
        inst = O.discretize(cl_model(2, {"name": "clayton", "alpha": 2.0}), 3, 3)
        with pytest.raises(ConvergenceError, match="re-check"):
            O.solve_sequential(inst)

    @pytest.mark.parametrize("gamma_cells,cells", [(5, 4), (4, 5)])
    def test_refactored_basis_passes_the_recheck(self, monkeypatch, gamma_cells, cells):
        # logistic_shift under a Gaussian rho -0.4, slope 1.2: recomputed
        # from its basis by a second LU, each sequential vertex failed its
        # re-check (5.0e-10 at 5x4x4, 3.5e-10 at 4x5x5); re-run by HiGHS
        # on a fresh factor, it passes and is written
        family = {"name": "logistic_shift", "goods": 2,
                  "copula": {"name": "gaussian", "rho": -0.4, "rho_slope": 1.2}}
        inst = O.discretize(M.build_model(family), gamma_cells, [cells, cells])
        rep, vertices, outcomes = _recorded(monkeypatch, O.solve_sequential, inst)
        assert outcomes == [True] and len(vertices) == 3
        assert rep.value == vertices[-1].value
        if gamma_cells == 5:
            assert abs(rep.value - 1.721112906700538) <= 1e-9

    def test_failed_polish_keeps_the_pre_polish_vertex(self, monkeypatch):
        # logistic_shift, 4 goods, Gaussian rho -0.3, 3x3^4 simultaneous,
        # with good 1's top cell value one ulp higher, so that no
        # permutation of goods maps the instance to itself and the full
        # program is solved: the refreshed vertex breaks a cell row by
        # 9.9e-10; the pre-polish cap-free vertex passes (9.8e-12) and is
        # written.  The orbit program of the rung itself passes on its
        # polished vertex.
        family = {"name": "logistic_shift", "goods": 4,
                  "copula": {"name": "gaussian", "rho": -0.3}}
        inst = O.discretize(M.build_model(family), 3, 3)
        grid = inst.theta_grids[0].copy()
        grid[-1] = np.nextafter(grid[-1], np.inf)
        inst = replace(inst, theta_grids=(grid,) + inst.theta_grids[1:])
        assert len(inst.symmetries[0]) == 1
        rep, vertices, outcomes = _recorded(monkeypatch, O.solve_simultaneous, inst)
        assert outcomes == [False, True]
        assert rep.value == vertices[1].value

    def test_gaussian_negative_rho_rung_value(self, monkeypatch):
        # cl_uniform, 3 goods, Gaussian rho -0.49, 3x5^3: cell masses down
        # to 3.4e-17 stay in the instance, and the polished sequential
        # vertex passes its re-check
        model = M.build_model({"name": "cl_uniform", "goods": 3,
                               "copula": {"name": "gaussian", "rho": -0.49}})
        rep, _, outcomes = _recorded(monkeypatch, O.solve_sequential, O.discretize(model, 3, 5))
        assert outcomes == [True]
        assert abs(rep.value - 2.1283996266752996) <= 1e-12

    @pytest.mark.parametrize("solve,layout", [
        (O.solve_simultaneous, lambda inst: O._sim_layout(inst, inst.symmetries)),
        (O.solve_sequential, O._seq_layout),
    ], ids=["simultaneous", "sequential"])
    def test_a_broken_polish_falls_back_to_the_solver_vertex(self, monkeypatch, solve, layout):
        vertices, outcomes = [], []
        lp_solve, polish, recheck = O.LpModel.solve, O.LpModel.polish, O._recheck

        def recorded(model):
            vertices.append(lp_solve(model))
            return vertices[-1]

        def nudged(model):
            sol = polish(model)
            x = sol.x.copy()
            x[0] += 1e-6
            return LpSolution(x=x, value=sol.value)

        def checked(inst, mech):
            try:
                recheck(inst, mech)
            except ConvergenceError:
                outcomes.append(False)
                raise
            outcomes.append(True)

        monkeypatch.setattr(O.LpModel, "solve", recorded)
        monkeypatch.setattr(O.LpModel, "polish", nudged)
        monkeypatch.setattr(O, "_recheck", checked)
        inst = O.discretize(M.build_model(README_FAMILY), 3, 3)
        rep = solve(inst)
        assert outcomes == [False, True] and len(vertices) == 3
        assert rep.value == vertices[1].value
        want = layout(inst).unpack(vertices[1].x)
        assert rep.mechanism.q.tobytes() == want.q.tobytes()
        assert rep.mechanism.t1.tobytes() == want.t1.tobytes()


GAUSS3_FAMILY = {"name": "cl_uniform", "goods": 3, "copula": {"name": "gaussian", "rho": 0.5}}
GAUSS3NEG_FAMILY = {"name": "cl_uniform", "goods": 3,
                    "copula": {"name": "gaussian", "rho": -0.49}}
LOGI4NEG_FAMILY = {"name": "logistic_shift", "goods": 4,
                   "copula": {"name": "gaussian", "rho": -0.3}}


class TestAssembly:
    """Every program ``_stack`` builds has the bytes of the one-CSR-per-block
    build (``scalar_reference.csr_rows`` and ``csr_stack``).  The sequential
    rows repeat shared allocation columns, so the order in which the
    repeats are summed shows in the data."""

    @staticmethod
    def programs(monkeypatch, run):
        """(stacked CSR, reference CSR) of every program that ``run`` stacks."""
        block_rows, stack = O._block_rows, O._stack
        built, pairs = {}, []

        def spy_rows(blocks, count):
            triplets = block_rows(blocks, count)
            built[id(triplets)] = (blocks, count)
            return triplets

        def spy_stack(parts, nvar):
            rows, rhs = stack(parts, nvar)
            ref, ref_rhs = scalar.csr_stack(
                [(scalar.csr_rows(*built[id(t)], nvar), b) for t, b in parts])
            assert rhs.tobytes() == ref_rhs.tobytes()
            pairs.append((rows, ref))
            return rows, rhs

        monkeypatch.setattr(O, "_block_rows", spy_rows)
        monkeypatch.setattr(O, "_stack", spy_stack)
        run()
        return pairs

    @pytest.mark.parametrize("family,theta_cells,run,count", [
        (README_FAMILY, 4, O.regime_row, 4),  # both goods share one marginal
        (LOGI_FAMILY, [3, 4], O.regime_row, 5),
        (GAUSS3_FAMILY, 4, O.solve_sequential, 1),
        (README_FAMILY, 2, O.brute_force_value, 1),
    ], ids=["readme-regimes", "logi-regimes", "gauss3-sequential", "readme-brute-force"])
    def test_matches_one_csr_per_block(self, monkeypatch, family, theta_cells, run, count):
        inst = O.discretize(M.build_model(family), 3, theta_cells)
        pairs = self.programs(monkeypatch, lambda: run(inst))
        assert len(pairs) == count
        for rows, ref in pairs:
            assert rows.format == "csr" and rows.shape == ref.shape
            np.testing.assert_array_equal(rows.indptr, ref.indptr)
            np.testing.assert_array_equal(rows.indices, ref.indices)
            assert rows.data.tobytes() == ref.data.tobytes()


class TestOrbits:
    """The simultaneous program over orbits of goods against the full one."""

    @pytest.mark.parametrize("family,theta_cells", [
        (README_FAMILY, 5),
        (LOGI_FAMILY, 5),
        ({"name": "cl_uniform", "goods": 2,
          "copula": {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0}}, 3),
        (GAUSS3_FAMILY, 4),
    ], ids=["readme-3x5x5", "logi-3x5x5", "drift-3x3x3", "gauss3-3x4x4x4"])
    def test_matches_the_full_program(self, monkeypatch, family, theta_cells):
        inst = O.discretize(M.build_model(family), 3, theta_cells)
        cells, goods = inst.symmetries
        assert len(cells) == math.factorial(inst.n_goods)
        orbit = O.solve_simultaneous(inst)
        ev = O.evaluate_mechanism(inst, orbit.mechanism)
        assert max(ev.ic1_violation, ev.ic2_violation, ev.ir_violation) <= O.DEFAULT_TOL
        assert abs(ev.revenue - orbit.value) <= 1e-12
        # the expanded mechanism is symmetric: q[m, g(c), g(j)] = q[m, c, j]
        q = orbit.mechanism.q
        for image, good in zip(cells, goods):
            assert np.array_equal(q[:, image][:, :, good], q)
            assert np.array_equal(orbit.mechanism.t2[:, image], orbit.mechanism.t2)
        monkeypatch.setattr(O.DiscreteInstance, "symmetries", property(O._identity_group))
        full = O.solve_simultaneous(inst)
        assert orbit.rows < full.rows and orbit.cols < full.cols
        assert abs(orbit.value - full.value) <= 1e-12

    def test_logi_orbit_program_size(self):
        # 25 q and 15 t2 orbits per type, 3 fees; 310 cell-pair orbits per
        # type, 3 participation and 6 type rows
        rep = O.solve_simultaneous(O.discretize(M.build_model(LOGI_FAMILY), 3, 5))
        assert (rep.rows, rep.cols) == (939, 123)

    def test_unequal_counts_keep_the_full_program(self):
        inst = O.discretize(M.build_model(LOGI_FAMILY), 3, [4, 5])
        assert len(inst.symmetries[0]) == 1
        rep = O.solve_simultaneous(inst)
        assert (rep.rows, rep.cols) == (3 * 20 * 19 + 9, 3 * 20 * 3 + 3)

    def test_asymmetric_instances_keep_the_full_program(self):
        # ROUND's cells (1, 4) and (4, 1) carry 2/8 and 1/8 for type 0
        assert len(ROUND.symmetries[0]) == 1
        rep = O.solve_simultaneous(ROUND)
        assert (rep.rows, rep.cols) == (2 * 4 * 3 + 4, 2 * 4 * 3 + 2)
        base = O.discretize(M.build_model(README_FAMILY), 3, 3)
        assert len(base.symmetries[0]) == 2
        grid = base.theta_grids[1].copy()
        grid[0] = np.nextafter(grid[0], np.inf)
        nudged = replace(base, theta_grids=(base.theta_grids[0], grid))
        assert len(nudged.symmetries[0]) == 1
        assert O.solve_simultaneous(nudged).rows == 3 * 9 * 8 + 9

    def test_a_failed_orbit_program_falls_back_to_the_full_program(self, monkeypatch):
        # the first two re-checks (the orbit program's polished and
        # pre-polish vertices) fail; the full program is then solved
        calls, recheck = [], O._recheck

        def failing_twice(inst, mech):
            calls.append(mech)
            if len(calls) <= 2:
                raise ConvergenceError("re-check")
            recheck(inst, mech)

        monkeypatch.setattr(O, "_recheck", failing_twice)
        rep = O.solve_simultaneous(O.discretize(M.build_model(README_FAMILY), 3, 3))
        assert len(calls) == 3 and (rep.rows, rep.cols) == (3 * 9 * 8 + 9, 3 * 9 * 3 + 3)

    def test_masses_within_the_bound_keep_the_group(self):
        base = O.discretize(M.build_model(README_FAMILY), 3, 3)
        for shift, size in ((1e-13, 2), (1e-11, 1)):
            pmf = base.pmf.copy()
            pmf[0, 1] += shift  # cell (0, 1); its image (1, 0) keeps its mass
            pmf[0, 4] -= shift
            assert len(replace(base, pmf=pmf).symmetries[0]) == size


class TestAdaptedBestResponse:
    @pytest.mark.parametrize("seed,n_types,dims", [
        (0, 2, (2, 2)), (1, 3, (3, 4)), (2, 2, (5, 3)), (3, 3, (2, 3, 2)), (4, 2, (3, 2, 3)),
    ])
    def test_matches_scalar_backward_induction(self, seed, n_types, dims):
        rng = np.random.default_rng(seed)
        inst = _random_instance(rng, n_types, dims)
        theta = inst.cell_values
        for _ in range(3):
            mech = _random_adapted_mechanism(rng, inst)
            values, reports = O._seq_best_response(inst, mech)
            for m in range(n_types):
                for m_rep in range(n_types):
                    value, reported = values[m, m_rep], reports[m, m_rep]
                    assert abs(value - _scalar_best_response(inst, mech, m, m_rep)) <= 1e-12
                    # the induced report earns that value
                    earned = inst.pmf[m] @ (
                        np.sum(theta * mech.q[m_rep, reported], axis=1) - mech.t2[m_rep, reported]
                    )
                    assert abs(earned - value) <= 1e-12


class TestRelaxed:
    def test_single_type_efficient(self):
        rep = O.solve_relaxed(SINGLE)
        assert abs(rep.value - O.full_surplus(SINGLE)) < 1e-9

    def test_identical_types_full_surplus(self):
        rep = O.solve_relaxed(IDENTICAL)
        assert abs(rep.value - 1.5) < 1e-9

    def test_dominates_simultaneous(self):
        for inst in (HAND, O.discretize(cl_model(2), 3, [3, 3])):
            sim = O.solve_simultaneous(inst)
            rel = O.solve_relaxed(inst)
            assert rel.value >= sim.value - 1e-9

    def test_revenue_matches_report(self):
        rep = O.solve_relaxed(HAND)
        assert abs(O.mechanism_revenue(HAND, rep.mechanism) - rep.value) < 1e-9

    def test_small_coefficients_pass_the_recheck(self):
        # the smallest coefficient is 8.08e-10, by which the optimum broke
        # its type row while HiGHS dropped entries below 1e-9
        inst = O.discretize(M.build_model(
            {"name": "logistic_shift", "goods": 3, "copula": {"name": "clayton", "alpha": 2.0}}),
            3, [3, 3, 3])
        ev = O.evaluate_mechanism(inst, O.solve_relaxed(inst).mechanism)
        assert max(ev.ic1_violation, ev.ir_violation) <= 1e-10

    def test_perturbed_fees_fail_the_recheck(self, monkeypatch):
        # raising every fee, on the polished and on HiGHS's own vertex,
        # breaks the lowest type's participation, which only the
        # independent re-audit can notice
        unpack = O._RelaxedLayout.unpack

        def raise_fees(layout, x):
            x = x.copy()
            x[layout.t1col] += 1e-3
            return unpack(layout, x)

        monkeypatch.setattr(O._RelaxedLayout, "unpack", raise_fees)
        with pytest.raises(ConvergenceError, match="relaxed LP optimum fails"):
            O.solve_relaxed(HAND)

    def test_a_binding_fee_cap_is_lifted(self):
        # one good, a type that values it at -1 and one (mass 0.05) at 100:
        # the high fee of 100 is past the cap of 50 (10 x full surplus 5),
        # and a capped optimum earned 2.5 below the simultaneous 5.0
        inst = O.DiscreteInstance([0.0, 1.0], [0.95, 0.05], ([-1.0, 100.0],), np.eye(2))
        row = O.regime_row(inst)
        assert row.v_relaxed == row.v_simultaneous == 5.0
        assert row.reports["relaxed"].mechanism.t1[1] == 100.0

    def test_self_consistency_in_shock_space(self):
        inst = O.discretize(cl_model(2), 3, [3, 3])
        rep = O.solve_relaxed(inst)
        ev = O.evaluate_mechanism(inst, rep.mechanism)
        assert abs(ev.revenue - rep.value) < 1e-9
        assert ev.ic1_violation <= 1e-9
        assert ev.ir_violation <= 1e-9


class TestSeparateSelling:
    def test_one_good_equals_simultaneous(self):
        assert abs(O.separate_selling_value(HAND) - O.solve_simultaneous(HAND).value) < 1e-9

    def test_single_type_independent_goods(self):
        inst = O.discretize(M.build_model({"name": "uniform_iid", "goods": 2}), 1, [2, 2])
        assert abs(O.separate_selling_value(inst) - O.full_surplus(inst)) < 1e-9

    @pytest.mark.parametrize("family,theta_cells,solves,tol", [
        *((README_FAMILY, k, 1, 0.0) for k in (2, 3, 4, 5)),
        (LOGI_FAMILY, 3, 1, 1e-12),
        (GAUSS3NEG_FAMILY, 3, 1, 1e-12),
        (LOGI4NEG_FAMILY, 3, 1, 1e-12),
        (LOGI_FAMILY, [4, 5], 2, 0.0),
    ], ids=[*(f"readme-3x{k}x{k}" for k in (2, 3, 4, 5)), "logi-3x3x3", "gauss3neg-3x3x3x3",
            "logi4neg-3x3x3x3x3", "logi-3x4x5"])
    def test_each_orbit_of_goods_is_solved_once(self, monkeypatch, family, theta_cells, solves,
                                                tol):
        # the readme marginals have the same bytes, so an orbit's multiple
        # is their sum exactly; the Gaussian ones agree to about 1e-16, and
        # unequal counts leave every good its own orbit
        inst = O.discretize(M.build_model(family), 3, theta_cells)
        total = 0.0
        for j in range(inst.n_goods):
            total += O.solve_simultaneous(O.marginal_instance(inst, j)).value
        solve, calls = O.solve_simultaneous, []
        monkeypatch.setattr(O, "solve_simultaneous", lambda i: calls.append(i) or solve(i))
        value = O.separate_selling_value(inst)
        assert abs(value - total) <= tol
        assert [i.lineage["marginal_of"] for i in calls] == list(range(solves))

    def test_lower_bound_for_joint_problem(self):
        inst = O.discretize(cl_model(2), 3, [4, 4])
        sep = O.separate_selling_value(inst)
        sim = O.solve_simultaneous(inst)
        assert sim.value >= sep - 1e-9


class TestEvaluateAndProject:
    def test_zero_mechanism(self):
        zero = O.DiscreteMechanism(
            q=np.zeros((2, 2, 1)),
            t1=np.zeros(2),
            t2=np.zeros((2, 2)),
            regime="simultaneous",
        )
        ev = O.evaluate_mechanism(HAND, zero)
        assert ev.revenue == 0.0
        assert ev.ic2_violation <= 1e-12
        assert ev.ir_violation <= 1e-12
        assert ev.ic1_violation <= 1e-12

    def test_projected_continuum_menu(self):
        mdl = cl_model(2)
        tmech = X.upfront_t1(mdl, X.solve_thresholds(mdl, np.linspace(0, 1, 101)))
        inst = O.discretize(mdl, 3, [4, 4])
        # the menu restricted to the grid: each type's entry, exercised at
        # the cell representatives
        entry = tmech.menu_index(inst.gamma_values)
        q = np.stack([tmech.allocation(g, inst.cell_values) for g in inst.gamma_values])
        proj = O.DiscreteMechanism(q=q, t1=tmech.upfront[entry],
                                   t2=np.sum(tmech.strikes[entry][:, None, :] * q, axis=-1),
                                   regime="simultaneous")
        ev = O.evaluate_mechanism(inst, proj)
        # option menus are exactly truthful in valuations on any grid
        assert ev.ic2_violation <= 1e-9
        # type-report and participation errors vanish with the cells
        cell = 2.0 / 4
        assert ev.ic1_violation <= cell
        assert ev.ir_violation <= cell
        sim = O.solve_simultaneous(inst).value
        assert ev.revenue <= sim + 1e-9
        assert abs(ev.revenue - sim) <= 0.5

    def test_shape_mismatch(self):
        zero = O.DiscreteMechanism(
            q=np.zeros((1, 2, 1)), t1=np.zeros(1), t2=np.zeros((1, 2)), regime="simultaneous"
        )
        with pytest.raises(Exception):
            O.evaluate_mechanism(HAND, zero)


class TestBruteForceAgreement:
    def test_one_good_four_cells(self):
        inst = O.discretize(cl_model(1), 2, 4)
        assert abs(O.solve_simultaneous(inst).value - O.brute_force_value(inst)) < 1e-8

    def test_two_goods_two_by_two(self):
        inst = O.discretize(cl_model(2), 2, [2, 2])
        assert abs(O.solve_simultaneous(inst).value - O.brute_force_value(inst)) < 1e-8

    def test_drifting_clayton_two_by_two(self):
        # a warm re-solve after infeasible profiles used to stop in "Unknown"
        inst = O.discretize(cl_model(2, {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0}),
                            2, [2, 2])
        assert abs(O.solve_simultaneous(inst).value - O.brute_force_value(inst)) < 1e-8

    def test_one_mip_solve(self, monkeypatch):
        # the 2,809 implementable allocation profiles are one
        # mixed-integer program, solved once
        inst = O.discretize(cl_model(2, {"name": "clayton", "alpha": 2.0}), 2, [2, 2])
        calls = []
        solve = O.LpModel.solve

        def counted(model):
            calls.append(None)
            return solve(model)

        monkeypatch.setattr(O.LpModel, "solve", counted)
        assert abs(O.brute_force_value(inst) - 1.625) < 1e-9
        assert len(calls) == 1

    def test_three_types_two_by_two(self):
        # 53**3 = 148,877 implementable profiles, in one MIP of 36 binaries
        inst = O.discretize(M.build_model(README_FAMILY), 3, 2)
        assert abs(O.brute_force_value(inst) - 1.5555555555555556) <= 1e-12

    def test_random_instances_match_map_enumeration(self):
        rng = np.random.default_rng(2026)
        for trial in range(30):
            m, dims = [(2, [4]), (3, [4]), (2, [2, 2]), (3, [3])][trial % 4]
            inst = O.DiscreteInstance(
                gamma_values=np.sort(rng.random(m)),
                gamma_probs=rng.dirichlet(np.ones(m)),
                theta_grids=[np.cumsum(rng.uniform(0.1, 1.0, d)) for d in dims],
                pmf=rng.dirichlet(np.ones(int(np.prod(dims))), m),
            )
            got, want = O.brute_force_value(inst), scalar.map_enumeration_value(inst)
            assert abs(got - want) <= 1e-12, trial

    def test_round_number_instance(self):
        # a warm dual-simplex re-solve of the transfer LP stopped in
        # "Unknown" on a profile that a cold solve reports infeasible
        assert abs(O.solve_simultaneous(ROUND).value - 535 / 112) < 1e-8
        assert abs(O.brute_force_value(ROUND) - 535 / 112) < 1e-8

    @pytest.mark.parametrize("make", [
        lambda: O.discretize(cl_model(2, {"name": "clayton", "alpha": 2.0}), 2, [2, 2]),
        lambda: O.discretize(cl_model(2, {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0}),
                             2, [2, 2]),
        lambda: HAND,
        lambda: ROUND,
    ], ids=["readme", "drifting-clayton", "hand", "round-number"])
    def test_epigraph_rows_match_map_enumeration(self, make):
        # per-cell epigraph rows against one row per joint misreport map
        inst = make()
        assert abs(O.brute_force_value(inst) - scalar.map_enumeration_value(inst)) <= 1e-12

    @pytest.mark.parametrize("grids", [
        [np.array([1.0, 2.0])],
        [np.array([1.0, 4.0])] * 2,
        [np.array([0.25, 0.75])] * 2,
        [np.array([0.0, 0.3, 1.1, 2.0])],
    ], ids=["1x2", "2x2-wide", "2x2-narrow", "1x4-zero"])
    def test_tables_reach_the_loop_reference_optimum(self, grids):
        # the one MIP reaches the optimum of the loop reference, which
        # solves a transfer LP per profile of scalar.implementable_tables
        cells = int(np.prod([len(g) for g in grids]))
        pmf = np.arange(1.0, 2 * cells + 1).reshape(2, cells)
        pmf[1] = pmf[1][::-1]
        inst = O.DiscreteInstance([0.0, 1.0], [0.4, 0.6], grids,
                                  pmf / pmf.sum(axis=1, keepdims=True))
        assert abs(O.brute_force_value(inst) - scalar.map_enumeration_value(inst)) <= 1e-12

    def test_seven_cells_one_good(self):
        # 7**7 joint misreport maps per type pair, too many to write one
        # row each; the simultaneous optimum here is deterministic, so the
        # 0/1 optimum must reach it
        inst = O.discretize(cl_model(1), 2, 7)
        rep = O.solve_simultaneous(inst)
        assert np.all(np.minimum(rep.mechanism.q, 1.0 - rep.mechanism.q) < 1e-7)
        assert abs(O.brute_force_value(inst) - rep.value) < 1e-8

    @pytest.mark.parametrize("error", [LpInfeasibleError, LpSolverError])
    def test_failure_other_than_unbounded_propagates(self, monkeypatch, error):
        # the zero mechanism is feasible, so every verdict other than an
        # optimum is an oracle error
        def fail(model):
            raise error("forced")

        monkeypatch.setattr(O.LpModel, "solve", fail)
        with pytest.raises(error):
            O.brute_force_value(HAND)

    def test_fractional_allocation_raises(self, monkeypatch):
        solve = O.LpModel.solve

        def fractional(model):
            sol = solve(model)
            x = sol.x.copy()
            x[0] = 0.5  # q[0, 0, 0]
            return LpSolution(x=x, value=sol.value)

        monkeypatch.setattr(O.LpModel, "solve", fractional)
        with pytest.raises(LpSolverError, match="away from 0 or 1"):
            O.brute_force_value(HAND)

    @pytest.mark.parametrize("gamma_cells,theta_cells,value", [
        (2, [4, 4], 1.5625), (5, [2, 2], 1.52),
    ])
    def test_larger_instances_match_the_lp(self, gamma_cells, theta_cells, value):
        # 2**32 allocation tables per type, and 53**5 allocation profiles:
        # too many to enumerate, but one MIP each
        inst = O.discretize(cl_model(2), gamma_cells, theta_cells)
        got = O.brute_force_value(inst)
        assert abs(got - O.solve_simultaneous(inst).value) < 1e-8
        assert abs(got - value) < 1e-8


class TestInstanceRoundtrip:
    def test_json_roundtrip(self):
        inst = O.discretize(cl_model(2), 3, [3, 2])
        back = O.DiscreteInstance(**inst.to_jsonable())
        np.testing.assert_array_equal(back.pmf, inst.pmf)
        np.testing.assert_array_equal(back.gamma_values, inst.gamma_values)
        assert back.lineage == inst.lineage
        assert O.solve_simultaneous(back).value == O.solve_simultaneous(inst).value


@st.composite
def random_instances(draw, dims):
    """Random 2- or 3-type instance on the given per-good cell counts."""
    n_types = draw(st.sampled_from([2, 3]))
    cells = int(np.prod(dims))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n_types * cells,
                            max_size=n_types * cells))
    probs = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n_types, max_size=n_types)))
    grids = [np.cumsum(draw(st.lists(st.floats(0.1, 1.0), min_size=d, max_size=d)))
             for d in dims]
    pmf = np.reshape(weights, (n_types, cells))
    return O.DiscreteInstance(
        gamma_values=np.arange(n_types) / n_types,
        gamma_probs=probs / probs.sum(),
        theta_grids=grids,
        pmf=pmf / pmf.sum(axis=1, keepdims=True),
    )


class TestRandomInstanceProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
           st.floats(0.2, 0.8))
    def test_orderings_on_random_one_good_instances(self, weights, split):
        w = np.asarray(weights).reshape(2, 3)
        pmf = w / w.sum(axis=1, keepdims=True)
        inst = O.DiscreteInstance(
            gamma_values=[0.0, 1.0],
            gamma_probs=[split, 1.0 - split],
            theta_grids=[np.array([0.5, 1.0, 2.0])],
            pmf=pmf,
        )
        sim = O.solve_simultaneous(inst).value
        rel = O.solve_relaxed(inst).value
        sep = O.separate_selling_value(inst)
        cap = O.full_surplus(inst)
        assert rel >= sim - 1e-9
        assert sim >= sep - 1e-9
        assert max(sim, rel, sep) <= cap + 1e-9

    @staticmethod
    def check_brute_force_against_lp(inst):
        # the LP also admits random allocations, which can beat every 0/1
        # profile (a few percent of one-good instances); when its optimum
        # is deterministic, that profile is one the exhaustive search covers
        brute = O.brute_force_value(inst)
        rep = O.solve_simultaneous(inst)
        assert brute <= rep.value + 1e-8
        q = rep.mechanism.q
        if np.all(np.minimum(q, 1.0 - q) < 1e-7):
            assert abs(brute - rep.value) < 1e-8

    @settings(max_examples=10, deadline=None)
    @given(random_instances([3]))
    def test_brute_force_matches_lp_one_good(self, inst):
        self.check_brute_force_against_lp(inst)

    @settings(max_examples=10, deadline=None)
    @given(random_instances([2, 1]))
    def test_brute_force_matches_lp_two_goods(self, inst):
        self.check_brute_force_against_lp(inst)


class TestSeparationSoundness:
    def test_fresh_pass_is_clean_after_termination(self):
        inst = O.discretize(cl_model(2), 3, [3, 3])
        for solver in (O.solve_simultaneous, O.solve_sequential):
            rep = solver(inst)
            ev = O.evaluate_mechanism(inst, rep.mechanism)
            assert ev.ic1_violation <= 1e-9
            assert ev.ir_violation <= 1e-9


class TestRegimeComparison:
    def test_type_independent_model_all_equal(self):
        mdl = M.build_model({"name": "uniform_iid", "goods": 2})
        rows = [O.regime_row(O.discretize(mdl, 2, k)) for k in (2, 3)]
        for row in rows:
            for v in (row.v_simultaneous, row.v_sequential, row.v_relaxed, row.v_separate):
                assert abs(v - row.surplus) < 1e-9

    def test_orderings_on_cl_ladder(self):
        mdl = cl_model(2)
        rows = [O.regime_row(O.discretize(mdl, 3, k)) for k in (2, 3)]
        for row in rows:
            assert row.v_relaxed >= row.v_simultaneous - 1e-9
            assert row.v_simultaneous >= row.v_separate - 1e-9
            assert row.v_sequential >= row.v_simultaneous - 1e-9

    def test_ladder_values_are_stable(self):
        # frozen rational optima of the 3-type ladder; any solver or
        # discretization drift shows up here first
        mdl = cl_model(2)
        expected = {
            2: (14 / 9, 14 / 9, 5 / 3, 14 / 9),
            3: (14 / 9, 14 / 9, 43 / 27, 14 / 9),
            4: (3 / 2, 3 / 2, 14 / 9, 3 / 2),
        }
        rows = [O.regime_row(O.discretize(mdl, 3, k)) for k in expected]
        for row, (k, vals) in zip(rows, expected.items()):
            got = (row.v_simultaneous, row.v_sequential, row.v_relaxed, row.v_separate)
            np.testing.assert_allclose(got, vals, atol=1e-9, err_msg=f"cells={k}")

    def test_dependent_instance_gap_recorded_not_asserted(self):
        # drifting coupling: orderings that rest on product structure are
        # only reported here
        mdl = cl_model(2, {"name": "gaussian", "rho": 0.2, "rho_slope": 0.4})
        inst = O.discretize(mdl, 2, [2, 2])
        sim = O.solve_simultaneous(inst)
        sep = O.separate_selling_value(inst)
        rel = O.solve_relaxed(inst)
        assert np.isfinite(sim.value - sep)
        assert rel.value >= sim.value - 1e-9
