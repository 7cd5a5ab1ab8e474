from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as scalar
from screenforge import mech as X
from screenforge import model as M
from screenforge.errors import RegularityError
from screenforge.numerics import RngStream, composite_rule, gauss_rule, geometric_breaks

GRID = np.linspace(0.0, 1.0, 101)


def cl_model(goods=1, copula=None):
    cfg = {"name": "cl_uniform", "goods": goods}
    if copula:
        cfg["copula"] = copula
    return M.build_model(cfg)


@pytest.fixture(scope="module")
def cl1():
    mdl = cl_model(1)
    mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, GRID))
    return mdl, mech


@pytest.fixture(scope="module")
def cl2():
    mdl = cl_model(2)
    mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, GRID))
    return mdl, mech


@pytest.fixture(scope="module")
def iid2():
    mdl = M.build_model({"name": "uniform_iid", "goods": 2})
    mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, GRID))
    return mdl, mech


@pytest.fixture(scope="module")
def logi2():
    mdl = M.build_model({"name": "logistic_shift", "goods": 2})
    mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, GRID))
    return mdl, mech


class TestVirtualValue:
    def test_cl_closed_form(self):
        mdl = cl_model(1)
        # theta + impulse * hazard = 0.9 - 1 * 0.7
        assert abs(X.virtual_value(mdl, 0, 0.3, 0.9) - 0.2) < 1e-12

    def test_no_distortion_at_top_type(self):
        mdl = cl_model(1)
        for theta in (1.1, 1.5, 1.9):
            assert abs(X.virtual_value(mdl, 0, 1.0, theta) - theta) < 1e-12

    def test_type_independent_marginal(self):
        mdl = M.build_model({"name": "uniform_iid", "goods": 1})
        for g in (0.1, 0.6):
            assert abs(X.virtual_value(mdl, 0, g, 0.4) - 0.4) < 1e-12

    def test_bisecting_the_virtual_value_on_the_support(self):
        from screenforge.numerics import bisect_root

        mdl = cl_model(1)
        root = bisect_root(lambda t: float(X.virtual_value(mdl, 0, 0.3, t)), 0.3, 1.3, 1e-10)
        assert abs(root - 0.7) < 1e-8


class TestSolveThresholds:
    def test_cl_strike_path(self, cl1):
        # The zero of theta - (1 - gamma) lies inside the box for every
        # type, so the posted strike is 1 - gamma throughout.  Truncating
        # the strike to the moving support (max(gamma, 1-gamma)) would
        # post the same on-path allocation but fails cross-menu cyclic
        # monotonicity (see test_support_truncated_path_not_implementable),
        # so the monotone path is the implementable one.
        _, mech = cl1
        np.testing.assert_allclose(mech.strikes[:, 0], 1.0 - GRID, atol=1e-8)
        low = GRID <= 0.5
        np.testing.assert_allclose(
            mech.strikes[low, 0], np.maximum(GRID, 1 - GRID)[low], atol=1e-8
        )

    def test_support_truncated_path_not_implementable(self):
        # two-cycle rent comparison between types 0.6 and 0.9 under the
        # truncated strike path: positive sum means no fees can make the
        # menu truthful
        lo, hi = 0.6, 0.9
        p_lo, p_hi = max(lo, 1 - lo), max(hi, 1 - hi)

        def e_u(strike, g):
            rule = gauss_rule(64, g, g + 1.0)
            return float(np.dot(rule.weights, np.maximum(rule.nodes - strike, 0.0)))

        cycle = (e_u(p_hi, lo) - e_u(p_lo, lo)) + (e_u(p_lo, hi) - e_u(p_hi, hi))
        assert cycle > 0.04

    def test_sell_always_family(self, iid2):
        _, mech = iid2
        np.testing.assert_allclose(mech.strikes, 0.0, atol=1e-12)

    def test_identical_goods_identical_curves(self, cl2):
        _, mech = cl2
        np.testing.assert_allclose(mech.strikes[:, 0], mech.strikes[:, 1])

    def test_strikes_nonincreasing(self, cl1, logi2):
        for _, mech in (cl1, logi2):
            assert np.all(np.diff(mech.strikes, axis=0) <= 1e-9)

    def test_no_distortion_at_top(self, cl1, iid2, logi2):
        for mdl, mech in (cl1, iid2, logi2):
            for j in range(mdl.n):
                # the surplus-efficient strike (sell iff value >= 0), posted on the box
                lo, hi = mdl.marginals[j].support
                assert abs(mech.strikes[-1, j] - min(max(0.0, lo), hi)) < 1e-8

    def test_menu_is_piecewise_constant(self, cl1):
        _, mech = cl1
        assert mech.menu_index(0.0149) == 1
        assert mech.menu_index(0.01) == 1
        assert mech.menu_index(0.00999) == 0
        assert mech.menu_index(-0.2) == 0
        assert mech.menu_index(5.0) == 100


def exercise_payment(mech, gamma, theta):
    """p . q: the strike of each good the type exercises."""
    return np.sum(mech.strikes_at(gamma) * mech.allocation(gamma, theta), axis=-1)


class TestUtilityAndTransfer:
    @staticmethod
    def ex_post_utility(mech, gamma, theta):
        return float(np.dot(theta, mech.allocation(gamma, theta))
                     - exercise_payment(mech, gamma, theta))

    def test_kink_point_zero(self, cl2):
        _, mech = cl2
        p = mech.strikes_at(0.4)
        assert self.ex_post_utility(mech, 0.4, p) == 0.0

    def test_single_exercised_good(self, cl2):
        _, mech = cl2
        p = mech.strikes_at(0.4)
        theta = p + np.array([0.2, -0.3])
        assert abs(self.ex_post_utility(mech, 0.4, theta) - 0.2) < 1e-12

    def test_half_at_midpoint_menu(self, cl2):
        _, mech = cl2
        # strikes at the middle type are (0.5, 0.5)
        np.testing.assert_allclose(mech.strikes_at(0.5), [0.5, 0.5], atol=1e-8)
        assert abs(self.ex_post_utility(mech, 0.5, np.array([0.9, 0.6])) - 0.5) < 1e-7

    def test_transfer_below_and_above(self, cl2):
        _, mech = cl2
        p = mech.strikes_at(0.3)
        assert exercise_payment(mech, 0.3, p - 0.1) == 0.0
        assert abs(exercise_payment(mech, 0.3, p + 0.1) - p.sum()) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
    )
    def test_accounting_identity(self, gamma, theta):
        mdl = cl_model(2)
        mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, np.linspace(0, 1, 21)))
        theta = np.asarray(theta)
        q = mech.allocation(gamma, theta)
        u = np.sum(np.maximum(theta - mech.strikes_at(gamma), 0.0))
        lhs = float(np.dot(theta, q)) - u
        assert abs(lhs - exercise_payment(mech, gamma, theta)) < 1e-12

    def test_never_sell_strict_at_top(self):
        mech = X.ThresholdMechanism(
            gamma_grid=np.array([0.0, 1.0]),
            strikes=np.array([[2.0], [2.0]]),
            box_top=np.array([2.0]),
        )
        assert mech.allocation(0.5, np.array([2.0]))[0] == 0.0
        assert exercise_payment(mech, 0.5, np.array([2.0])) == 0.0


class TestUpfrontFees:
    def test_full_extraction_when_type_independent(self, iid2):
        mdl, mech = iid2
        np.testing.assert_allclose(mech.upfront, 1.0, atol=1e-10)  # E[theta1+theta2]
        np.testing.assert_allclose(X._rent_curve(mdl, mech), 0.0, atol=1e-10)

    def test_bottom_type_fee_equals_expected_option_value(self, cl1, logi2):
        for mdl, mech in (cl1, logi2):
            e_u = scalar.menu_expected_u(mdl, mech.gamma_grid[0], mech.strikes[0], 48)
            assert abs(mech.upfront[0] - e_u) < 1e-12

    def test_rent_recomputation_matches_envelope_integral(self, cl1):
        mdl, mech = cl1
        curve = X._rent_curve(mdl, mech)
        for i in (0, 10, 50, 77, 100):
            g = mech.gamma_grid[i]
            direct = scalar.menu_expected_u(mdl, g, mech.strikes[i], 48) - mech.upfront[i]
            assert abs(direct - curve[i]) < 1e-6

    def test_interim_utility_zero_at_bottom(self, cl1, cl2, logi2):
        for mdl, mech in (cl1, cl2, logi2):
            assert abs(X._rent_curve(mdl, mech)[0]) < 1e-8

    def test_rents_nondecreasing(self, cl1, logi2):
        for mdl, mech in (cl1, logi2):
            curve = X._rent_curve(mdl, mech)
            assert np.all(np.diff(curve) >= -1e-10)

    def test_fees_nondecreasing_on_regular_families(self, cl1, logi2):
        for _, mech in (cl1, logi2):
            assert np.all(np.diff(mech.upfront) >= -1e-9)


class TestRevenues:
    def test_cl_one_good_value(self, cl1):
        mdl, mech = cl1
        assert abs(X.revenue_direct(mdl, mech) - 7.0 / 12.0) < 1e-4

    def test_cl_two_goods_additive(self, cl2):
        mdl, mech = cl2
        assert abs(X.revenue_direct(mdl, mech) - 7.0 / 6.0) < 2e-4

    def test_type_independent_full_surplus(self, iid2):
        mdl, mech = iid2
        assert abs(X.revenue_direct(mdl, mech) - 1.0) < 1e-10

    def test_triple_identity_all_invariant_families(self):
        families = [
            {"name": "cl_uniform", "goods": 1},
            {"name": "cl_uniform", "goods": 2},
            {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}},
            {"name": "cl_uniform", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}},
            {"name": "uniform_iid", "goods": 2},
            {"name": "logistic_shift", "goods": 2},
            {"name": "logistic_shift", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}},
            {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}},
        ]
        for cfg in families:
            mdl = M.build_model(cfg)
            mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, GRID))
            direct = X.revenue_direct(mdl, mech)
            functional = X.revenue_functional(mdl, mech)
            impulse = X.revenue_impulse_form(mdl, mech)
            scale = abs(direct)
            assert abs(functional - direct) / scale < 1e-5, cfg
            assert abs(impulse - direct) / scale < 1e-5, cfg

    def test_zero_mechanism_earns_nothing(self):
        mdl = cl_model(1)
        never = X.ThresholdMechanism(
            gamma_grid=GRID,
            strikes=np.full((len(GRID), 1), 2.0),
            upfront=np.zeros(len(GRID)),
            box_top=np.array([2.0]),
        )
        assert abs(X.revenue_direct(mdl, never)) < 1e-12
        assert abs(X.revenue_functional(mdl, never)) < 1e-12


class TestDependencyIrrelevance:
    # the drifting copulas check that all three accountings, the impulse
    # form included, hold for a copula that is not invariant
    COPULAS = (
        None,
        {"name": "clayton", "alpha": 2.0},
        {"name": "gaussian", "rho": 0.5},
        {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0},
        {"name": "gaussian", "rho": 0.2, "rho_slope": 0.6},
    )

    def test_strikes_and_revenues_copula_free(self):
        packs = []
        for cop in self.COPULAS:
            mdl = cl_model(2, cop)
            mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, GRID))
            packs.append((
                mech.strikes,
                X.revenue_direct(mdl, mech),
                X.revenue_functional(mdl, mech),
                X.revenue_impulse_form(mdl, mech),
            ))
        base = packs[0]
        for strikes, rd, rf, ri in packs[1:]:
            np.testing.assert_allclose(strikes, base[0], atol=1e-8)
            for got, ref in zip((rd, rf, ri), base[1:]):
                assert abs(got - ref) / abs(ref) < 2e-4


class TestRegularity:
    def test_cl_passes(self):
        assert X.regularity_report(cl_model(2)).ok

    def test_type_independent_passes(self):
        assert X.regularity_report(M.build_model({"name": "uniform_iid", "goods": 2})).ok

    def test_logistic_passes(self):
        assert X.regularity_report(M.build_model({"name": "logistic_shift", "goods": 2})).ok

    def test_reversed_shift_flagged_with_location(self):
        bad = M.build_model({"name": "logistic_shift", "goods": 1, "shift": -1.0})
        rep = X.regularity_report(bad)
        assert not rep.ok
        assert rep.worst_f_gamma > 1e-3
        assert "f_gamma" in rep.locations

    @staticmethod
    def nan_mask(model, i, k, theta, gamma):
        """True where (theta, gamma) is regularity grid point (theta_k, gamma_i)."""
        g0 = np.linspace(model.prior.lo, model.prior.hi, 21)[i]
        t0 = np.linspace(*model.marginals[0].support, X._REGULARITY_POINTS)[k]
        return (np.asarray(theta) == t0) & (np.asarray(gamma) == g0)

    def test_non_finite_cdf_response_fails_with_location(self):
        mdl = cl_model(1)
        marg = mdl.marginals[0]

        def dcdf(theta, gamma):
            out = np.array(marg.dcdf_dgamma(theta, gamma), dtype=float)
            out[np.broadcast_to(self.nan_mask(mdl, 3, 5, theta, gamma), out.shape)] = np.nan
            return out

        rep = X.regularity_report(replace(mdl, marginals=(replace(marg, dcdf_dgamma=dcdf),)))
        assert not rep.ok
        assert rep.locations["non_finite_f_gamma"] == {
            "good": 0, "gamma": np.linspace(0.0, 1.0, 21)[3],
            "theta": np.linspace(*marg.support, X._REGULARITY_POINTS)[5]}
        assert np.isfinite(rep.worst_f_gamma) and np.isfinite(rep.worst_gamma_monotonicity)

    def test_non_finite_virtual_value_fails_with_location(self, monkeypatch):
        mdl = cl_model(1)
        clean = X.virtual_value

        def virtual_value(model, j, gamma, theta):
            out = np.array(clean(model, j, gamma, theta), dtype=float)
            out[np.broadcast_to(self.nan_mask(mdl, 7, 2, theta, gamma), out.shape)] = np.nan
            return out

        monkeypatch.setattr(X, "virtual_value", virtual_value)
        rep = X.regularity_report(mdl)
        assert not rep.ok
        assert rep.locations["non_finite_virtual_value"]["gamma"] == np.linspace(0.0, 1.0, 21)[7]
        assert np.isfinite(rep.worst_gamma_monotonicity)

    def test_solver_raises_on_recrossing(self):
        bad = M.build_model({"name": "logistic_shift", "goods": 1, "shift": -1.0})
        grid = np.linspace(0, 1, 11)
        try:
            mech = X.solve_thresholds(bad, grid)
        except RegularityError:
            return
        # reversed shift keeps single crossing per type even though the
        # virtual value falls in gamma; the report above flags it instead
        assert mech.strikes.shape == (11, 1)


class TestCyclicMonotonicity:
    def test_two_cycles_reduce_to_monotonicity(self, cl2):
        _, mech = cl2
        rng = RngStream(seed=13)
        from screenforge.numerics import uniform_draws

        pts = 2.0 * uniform_draws(rng, 40, 2)
        for i in range(0, 40, 2):
            cyc = pts[i : i + 2]
            assert X.cyclic_monotonicity_check(mech, 0.4, [cyc]) <= 1e-12

    def test_thousand_random_five_cycles(self, cl2):
        _, mech = cl2
        cycles = X.random_cycles([(0, 2), (0, 2)], 1000, 5, RngStream(seed=99, stream_id=2))
        assert X.cyclic_monotonicity_check(mech, 0.35, cycles) <= 1e-10

    def test_adversarial_nonmonotone_allocation_detected(self):
        # hand-built q that sells only in a band: not a subgradient field
        def q_band(theta):
            return ((theta >= 0.5) & (theta <= 1.0)).astype(float)

        cycle = [np.array([0.7]), np.array([1.5])]
        assert X.max_cycle_gain(q_band, [cycle]) > 0.1

    def test_cycle_sums_match_pointwise_loop(self, cl2):
        _, mech = cl2
        cycles = X.random_cycles([(0, 2), (0, 2)], 50, 4, RngStream(seed=5, stream_id=2))
        sums = [sum(float(np.dot(mech.allocation(0.3, c[i]), c[(i + 1) % 4] - c[i]))
                    for i in range(4)) for c in cycles]
        assert abs(X.cyclic_monotonicity_check(mech, 0.3, cycles) - max(sums)) < 1e-12


class TestIcAudit:
    def test_cl_menu_is_truthful(self, cl1):
        mdl, mech = cl1
        audit = X.ic_audit(mdl, mech, np.linspace(0, 1, 51))
        assert audit.max_gain <= 1e-6  # scale: full surplus is 1.0
        assert audit.ir_slack >= -1e-8
        assert abs(audit.curve.values[0]) < 1e-8
        assert np.all(np.diff(audit.curve.values) >= -1e-8)

    def test_type_independent_all_zero(self, iid2):
        mdl, mech = iid2
        audit = X.ic_audit(mdl, mech)
        assert np.max(np.abs(audit.gain_matrix)) < 1e-9
        assert np.max(np.abs(audit.curve.values)) < 1e-9

    def test_perturbed_menu_shows_gain(self, cl1):
        mdl, mech = cl1
        strikes = mech.strikes.copy()
        strikes[70, 0] -= 0.1  # cheaper option without a higher fee
        broken = X.ThresholdMechanism(
            gamma_grid=mech.gamma_grid,
            strikes=strikes,
            upfront=mech.upfront,
            box_top=mech.box_top,
        )
        audit = X.ic_audit(mdl, broken, np.linspace(0, 1, 51))
        assert audit.max_gain > 1e-3

    def test_gain_matrix_does_not_depend_on_the_batch(self, logi2):
        # the audit of a sub-grid is the matching block of the full audit
        mdl, mech = logi2
        grid = np.linspace(0, 1, 21)
        full = X.ic_audit(mdl, mech, grid).gain_matrix
        sub = X.ic_audit(mdl, mech, grid[::4]).gain_matrix
        np.testing.assert_allclose(sub, full[::4, ::4], rtol=0, atol=1e-15)


class TestEnvelopeConsistency:
    def test_fd_rent_slope_matches_score_integral(self, logi2):
        # within a menu cell the rent curve is differentiable; its slope
        # must equal the expected option value weighted by the density's
        # type-derivative (computed here through dpdf_dgamma, a route the
        # fee construction never uses)
        mdl, mech = logi2
        h = 1e-4
        for i in (10, 40, 80):
            g = 0.5 * (mech.gamma_grid[i] + mech.gamma_grid[i + 1])
            strikes = mech.strikes[i]
            up = scalar.menu_expected_u(mdl, g + h, strikes, 64)
            dn = scalar.menu_expected_u(mdl, g - h, strikes, 64)
            fd_slope = (up - dn) / (2 * h)
            ref = 0.0
            for j, marg in enumerate(mdl.marginals):
                lo, hi = marg.support
                rule = gauss_rule(96, max(float(strikes[j]), lo), hi)
                ref += float(np.dot(
                    rule.weights,
                    (rule.nodes - strikes[j]) * np.asarray(marg.dpdf_dgamma(rule.nodes, g)),
                ))
            assert abs(fd_slope - ref) < 1e-4


REFERENCE_FAMILIES = {
    "cl_uniform": {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}},
    "uniform_iid": {"name": "uniform_iid", "goods": 2},
    "logistic_shift": {"name": "logistic_shift", "goods": 2,
                       "copula": {"name": "gaussian", "rho": 0.5}},
    "logistic_shift-independent": {"name": "logistic_shift", "goods": 2},
    # the Clayton copula's axis terms and link on the joint grid
    "logistic_shift-clayton": {"name": "logistic_shift", "goods": 2,
                               "copula": {"name": "clayton", "alpha": 2.0}},
}


class TestAgainstScalarReference:
    """The batched accountings against the scalar per-type code they replace."""

    GRID = np.linspace(0.0, 1.0, 21)

    @pytest.fixture(scope="class", params=sorted(REFERENCE_FAMILIES))
    def solved(self, request):
        mdl = M.build_model(REFERENCE_FAMILIES[request.param])
        return mdl, X.upfront_t1(mdl, X.solve_thresholds(mdl, self.GRID))

    def test_strikes(self, solved):
        mdl, mech = solved
        np.testing.assert_allclose(mech.strikes, scalar.strikes(mdl, self.GRID), rtol=0, atol=1e-12)

    def test_fees_and_rent_curve(self, solved):
        mdl, mech = solved
        np.testing.assert_allclose(X._rent_curve(mdl, mech),
                                   scalar.rent_curve(mdl, self.GRID, mech.strikes), rtol=0, atol=1e-12)
        np.testing.assert_allclose(mech.upfront, scalar.fees(mdl, self.GRID, mech.strikes),
                                   rtol=0, atol=1e-12)

    def test_revenues(self, solved):
        mdl, mech = solved
        assert abs(X.revenue_direct(mdl, mech) - scalar.revenue_direct(mdl, mech)) < 1e-12
        assert abs(X.revenue_impulse_form(mdl, mech) - scalar.revenue_impulse_form(mdl, mech)) < 1e-12
        functional, expected = X.revenue_functional(mdl, mech), scalar.revenue_functional(mdl, mech)
        if all(m.smooth_in_gamma for m in mdl.marginals):
            assert abs(functional - expected) < 1e-12
        else:  # finite-difference rent path
            assert abs(functional - expected) < 1e-9 * abs(expected)

    @pytest.mark.parametrize("copula,shifts", [
        ({"name": "gaussian", "rho": 0.3}, None),
        ({"name": "gaussian", "rho": -0.45}, None),
        ({"name": "clayton", "alpha": 2.0}, None),
        ({"name": "gaussian", "rho": 0.3}, (1.0, 0.6, 1.4)),
    ], ids=["gaussian", "gaussian-negative", "clayton", "gaussian-unequal-goods"])
    def test_three_good_joint_score_integral(self, copula, shifts, monkeypatch):
        # three axes check the broadcast order of the per-axis terms on the
        # tensor grid; goods with unequal marginals make every axis differ
        mdl = M.build_model({"name": "logistic_shift", "goods": 3, "copula": copula})
        if shifts:
            mdl = replace(mdl, marginals=[M.truncated_logistic_marginal(shift=s) for s in shifts])
        monkeypatch.setattr(X, "JOINT_ORDER", 4)
        monkeypatch.setattr(X, "CORNER_DEPTH", 2)
        mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, np.linspace(0.0, 1.0, 3)))
        functional = X.revenue_functional(mdl, mech)
        expected = scalar.revenue_functional(mdl, mech, joint_order=4, corner_depth=2)
        assert abs(functional - expected) < 1e-12

    @pytest.mark.parametrize("copula", [
        {"name": "gaussian", "rho": 0.99},
        {"name": "gaussian", "rho": -0.9},
        {"name": "clayton", "alpha": 8.0},
    ], ids=["gaussian-0.99", "gaussian--0.9", "clayton-8"])
    def test_strong_dependence_joint_score_integral(self, copula):
        # the log density's terms grow large and cancel near the corners;
        # one exponent per grid point must neither overflow nor lose the
        # difference
        mdl = M.build_model({"name": "logistic_shift", "goods": 2, "copula": copula})
        mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, np.linspace(0.0, 1.0, 5)))
        assert abs(X.revenue_functional(mdl, mech) - scalar.revenue_functional(mdl, mech)) < 1e-12

    def test_joint_axes_are_the_per_type_composite_rules(self):
        # strike percentiles at the ends, on and next to every break, and
        # within 1e-15 of one (composite_rule drops that sliver panel)
        graded = list(geometric_breaks(depth=X.CORNER_DEPTH))
        edges = np.array(graded)
        s = np.concatenate([[0.0, 1.0, 0.5, 5e-16, 1.0 - 5e-16], edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, 1.0), edges - 5e-16, edges + 5e-16,
                            np.random.default_rng(5).uniform(size=64)])
        axes = X._joint_axes(s)
        assert len(axes) == len(s)
        for si, rule in zip(s, axes):
            expect = composite_rule(0.0, 1.0, X.JOINT_ORDER, graded + [si] if 0.0 < si < 1.0 else graded)
            np.testing.assert_array_equal(rule.nodes, expect.nodes)
            np.testing.assert_array_equal(rule.weights, expect.weights)

    @pytest.mark.parametrize("copula", [
        {"name": "gaussian", "rho": -0.4, "rho_slope": 1.2},
        {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0},
    ], ids=["gaussian-drift", "clayton-drift"])
    def test_drifting_per_good_score_matches_joint_integral(self, copula):
        # a drifting copula's rents come from the per-good score; the
        # reference integrates the joint likelihood score (a difference in
        # gamma of the joint density) over the percentile cube instead
        mdl = M.build_model({"name": "logistic_shift", "goods": 2, "copula": copula})
        assert not X.uses_joint_score(mdl)
        mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, np.linspace(0.0, 1.0, 3)))
        expected = scalar.revenue_functional(mdl, mech, joint_order=10, corner_depth=4,
                                             joint=True, rent_order=X.GAMMA_CELL_ORDER)
        assert abs(X.revenue_functional(mdl, mech) - expected) < 2e-8

    def test_ic_audit_gain_matrix(self, solved):
        mdl, mech = solved
        grid = np.linspace(0.0, 1.0, 13)
        np.testing.assert_allclose(X.ic_audit(mdl, mech, grid).gain_matrix,
                                   scalar.gain_matrix(mdl, mech, grid), rtol=0, atol=1e-12)

    def test_regularity_report_matches_per_type_scan(self, solved):
        mdl, _ = solved
        rep = X.regularity_report(mdl, self.GRID)
        thetas = np.linspace(*mdl.marginals[0].support, 129)
        fg = max(float(np.max(mdl.marginals[0].dcdf_dgamma(thetas, g))) for g in self.GRID)
        assert rep.ok and rep.worst_f_gamma == pytest.approx(fg, abs=1e-15)


class TestBlockBudget:
    """The marginal and audit block budget sets memory, never values."""

    @staticmethod
    def accountings(family):
        mdl = M.build_model(REFERENCE_FAMILIES[family])
        mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, GRID))
        audit = X.ic_audit(mdl, mech, np.linspace(0.0, 1.0, 51))
        return {"upfront": mech.upfront, "gain_matrix": audit.gain_matrix,
                "revenues": [X.revenue_direct(mdl, mech), X.revenue_functional(mdl, mech),
                             X.revenue_impulse_form(mdl, mech)]}

    @pytest.mark.parametrize("family", ["logistic_shift", "cl_uniform"], ids=["logi", "readme"])
    def test_small_blocks_give_the_same_bits(self, family, monkeypatch):
        default = self.accountings(family)
        monkeypatch.setattr(X, "_CHUNK_POINTS", 1 << 12)
        small = self.accountings(family)
        for key, values in default.items():
            np.testing.assert_array_equal(small[key], values, err_msg=key)

    def test_audit_peak_memory_is_bounded(self):
        # the audit verb's default grid of 51 types: as one piece its cross
        # tensor took 18.6 MB; in blocks the traced peak is about 1 MB
        import tracemalloc

        mdl = M.build_model(REFERENCE_FAMILIES["logistic_shift"])
        mech = X.upfront_t1(mdl, X.solve_thresholds(mdl, np.linspace(0.0, 1.0, 51)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            X.ic_audit(mdl, mech)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak
