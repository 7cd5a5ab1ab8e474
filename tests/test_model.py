import decimal

import numpy as np
import pytest
from scipy.special import log_expit

import scalar_reference as scalar
from screenforge import model as M
from screenforge.copulas import ClaytonCopula, IndependenceCopula
from screenforge.errors import ConfigError, DensityZeroError, InvalidIntervalError
from screenforge.numerics import RngStream, uniform_draws


def cl_model(goods=1, copula=None):
    cfg = {"name": "cl_uniform", "goods": goods}
    if copula:
        cfg["copula"] = copula
    return M.build_model(cfg)


def logistic_model(goods=2, copula=None, shift=1.0):
    cfg = {"name": "logistic_shift", "goods": goods, "shift": shift}
    if copula:
        cfg["copula"] = copula
    return M.build_model(cfg)


ALL_INVARIANT = [
    ("cl1", lambda: cl_model(1)),
    ("cl2", lambda: cl_model(2)),
    ("cl2-clayton", lambda: cl_model(2, {"name": "clayton", "alpha": 2.0})),
    ("cl2-gauss", lambda: cl_model(2, {"name": "gaussian", "rho": 0.5})),
    ("logi2", lambda: logistic_model()),
    ("logi2-clayton", lambda: logistic_model(copula={"name": "clayton", "alpha": 2.0})),
    ("iid2", lambda: M.build_model({"name": "uniform_iid", "goods": 2})),
]


class TestHazard:
    def test_uniform_prior(self):
        prior = M.uniform_prior(0, 1)
        assert abs(M.hazard(prior, 0.25) - 0.75) < 1e-12

    def test_top_type_zero(self):
        prior = M.uniform_prior(0, 1)
        assert abs(M.hazard(prior, prior.hi)) < 1e-12

    def test_zero_density_raises(self):
        prior = M.uniform_prior(0, 1)
        with pytest.raises(DensityZeroError):
            M.hazard(prior, -0.5)


    def test_array_gamma(self):
        prior = M.uniform_prior(0, 1)
        gammas = np.array([[0.0, 0.25], [0.75, 1.0]])
        expected = [[M.hazard(prior, g) for g in row] for row in gammas]
        np.testing.assert_array_equal(M.hazard(prior, gammas), expected)
        with pytest.raises(DensityZeroError):
            M.hazard(prior, np.array([0.5, -0.5]))


class TestMarginalBroadcast:
    FIELDS = ("cdf", "pdf", "dcdf_dgamma", "dpdf_dgamma", "impulse")

    @pytest.mark.parametrize("name", M.FAMILIES)
    def test_gamma_array_matches_scalar_rows(self, name):
        marg = M.build_model({"name": name, "goods": 1}).marginals[0]
        lo, hi = marg.support
        thetas = np.linspace(lo, hi, 9)[1:-1]
        p = np.linspace(0.05, 0.95, 7)
        gammas = np.array([0.0, 0.3, 0.7, 1.0])
        for field in self.FIELDS:
            fn = getattr(marg, field)
            batch = np.asarray(fn(thetas, gammas[:, None]))
            assert batch.shape == (4, 7), field
            for k, g in enumerate(gammas):
                np.testing.assert_allclose(batch[k], fn(thetas, g), rtol=0, atol=1e-15)
        batch = marg.quantile(p, gammas[:, None])
        for k, g in enumerate(gammas):
            np.testing.assert_allclose(batch[k], marg.quantile(p, g), rtol=0, atol=1e-15)


class TestSigmoid:
    def test_bit_identical_to_two_exp_form(self):
        edges = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-300, -1e-300,
                 36.7, -36.7, 709.8, -745.2, np.nan]
        x = np.concatenate([np.linspace(-800.0, 800.0, 200001), edges])
        got, want = M._sigmoid(x)[0], scalar.sigmoid(x)
        np.testing.assert_array_equal(got, want)  # NaN where the reference has NaN
        num = ~np.isnan(want)  # a NaN's sign bit is not a value
        np.testing.assert_array_equal(np.signbit(got[num]), np.signbit(want[num]))

    def test_complement_and_slope_keep_relative_accuracy(self):
        # log_expit keeps every digit of log s and log(1 - s); the product
        # s * (1 - s) would reach relative error 1 in the upper tail
        x = np.linspace(-700.0, 700.0, 140001)
        s, c = M._sigmoid(x)
        np.testing.assert_allclose(s * c, np.exp(log_expit(x) + log_expit(-x)), rtol=1e-14, atol=0)
        np.testing.assert_allclose(c, np.exp(log_expit(-x)), rtol=1e-14, atol=0)


class TestLogisticTails:
    """The logistic family against 120-digit decimal arithmetic in its
    tails, where a difference of two sigmoids near 1 cancels unless it is
    taken from their complements."""

    CONFIGS = [  # (box, loc, shift, scale)
        ((-4.0, 5.0), -2.0, 6.0, 0.2),
        ((0.0, 2.0), 0.0, 1.0, 0.05),
        ((-4.0, 5.0), -2.0, 1.0, 0.05),
    ]

    @staticmethod
    def reference(box, loc, shift, scale, t, g):
        """pdf and dcdf_dgamma by central differences of the cdf at step 1e-30."""
        with decimal.localcontext(prec=120):
            a, b, loc, shift, scale, t, g = (decimal.Decimal(v)
                                             for v in (*box, loc, shift, scale, t, g))
            h = decimal.Decimal("1e-30")

            def cdf(t, g):
                def sig(x):
                    return 1 / (1 + ((loc + shift * g - x) / scale).exp())
                return (sig(t) - sig(a)) / (sig(b) - sig(a))

            return (float((cdf(t + h, g) - cdf(t - h, g)) / (2 * h)),
                    float((cdf(t, g + h) - cdf(t, g - h)) / (2 * h)))

    @pytest.mark.parametrize("box,loc,shift,scale", CONFIGS)
    def test_density_and_type_derivative_to_1e_12(self, box, loc, shift, scale):
        marg = M.truncated_logistic_marginal(box=box, loc=loc, shift=shift, scale=scale)
        for g in (0.0, 0.5, 1.0):
            for t in np.linspace(*box, 12)[1:-1]:
                pdf, dcdf = self.reference(box, loc, shift, scale, t, g)
                np.testing.assert_allclose(marg.pdf(t, g), pdf, rtol=1e-12, atol=0)
                np.testing.assert_allclose(marg.dcdf_dgamma(t, g), dcdf, rtol=1e-12, atol=0)


class TestJointDensity:
    def test_independence_is_product(self):
        mdl = cl_model(2)
        theta = np.array([0.5, 0.9])
        f = float(M.joint_density(mdl, 0.2, theta))
        prod = float(mdl.marginals[0].pdf(0.5, 0.2)) * float(mdl.marginals[1].pdf(0.9, 0.2))
        assert abs(f - prod) < 1e-14
        assert abs(f - 1.0) < 1e-14

    def test_out_of_support_is_zero(self):
        mdl = cl_model(2)
        assert float(M.joint_density(mdl, 0.5, np.array([0.1, 0.9]))) == 0.0

    def test_clayton_closed_form(self):
        a = 2.0
        mdl = M.build_model(
            {"name": "uniform_iid", "goods": 2, "copula": {"name": "clayton", "alpha": a}}
        )
        u = v = 0.5
        ref = (1 + a) * (u * v) ** (-(a + 1)) * (u**-a + v**-a - 1) ** (-(2 + 1 / a))
        assert abs(float(M.joint_density(mdl, 0.3, np.array([u, v]))) - ref) < 1e-12

    def test_normalization_ten_gammas(self):
        for name, make in ALL_INVARIANT:
            mdl = make()
            for g in np.linspace(mdl.prior.lo + 0.03, mdl.prior.hi - 0.03, 10):
                # panels graded toward the effective corners, where copula
                # densities can blow up
                breaks = []
                for m in mdl.marginals:
                    pts = list(m.effective_support(g))
                    for eps in (1e-6, 1e-4, 1e-2, 0.1):
                        pts += [float(m.quantile(eps, g)), float(m.quantile(1.0 - eps, g))]
                    breaks.append(pts)
                points, weights = scalar.tensor_rule(mdl.box, [24] * mdl.n, breaks)
                mass = float(np.dot(weights, M.joint_density(mdl, g, points)))
                assert abs(mass - 1.0) < 1e-6, (name, g)


class TestScore:
    """The reference likelihood score, analytic and by a difference in gamma."""

    def test_type_independent_model_is_zero(self):
        mdl = M.build_model({"name": "uniform_iid", "goods": 2})
        assert abs(float(scalar.score(mdl, 0.4, np.array([0.3, 0.8])))) < 1e-12

    def test_cl_interior_zero_and_fd_agrees(self):
        mdl = cl_model(2)
        theta = np.array([0.55, 0.9])
        assert abs(float(scalar.score(mdl, 0.4, theta))) < 1e-12
        assert abs(float(scalar.score(mdl, 0.4, theta, force_fd=True))) < 1e-8

    def test_smooth_family_analytic_vs_fd(self):
        mdl = logistic_model(copula={"name": "clayton", "alpha": 2.0})
        for theta in (np.array([0.3, 1.2]), np.array([-1.0, 2.5])):
            analytic = float(scalar.score(mdl, 0.5, theta))
            fd = float(scalar.score(mdl, 0.5, theta, force_fd=True))
            assert abs(analytic - fd) < 1e-5

    def test_zero_density_raises(self):
        mdl = cl_model(1)
        with pytest.raises(DensityZeroError):
            scalar.score(mdl, 0.5, np.array([0.1]))


class TestImpulseResponse:
    @staticmethod
    def impulses(mdl, gamma, theta):
        return np.array([m.impulse(theta[j], gamma) for j, m in enumerate(mdl.marginals)])

    def test_type_independent_is_zero(self):
        mdl = M.build_model({"name": "uniform_iid", "goods": 2})
        np.testing.assert_allclose(self.impulses(mdl, 0.3, np.array([0.4, 0.6])), 0.0)

    def test_cl_is_minus_one(self):
        mdl = cl_model(2)
        np.testing.assert_allclose(self.impulses(mdl, 0.4, np.array([0.7, 1.1])), [-1.0, -1.0])

    def test_dependency_structure_is_irrelevant(self):
        # same marginals, heavier coupling: the per-good response is unchanged
        mdl = cl_model(2, {"name": "clayton", "alpha": 2.0})
        np.testing.assert_allclose(self.impulses(mdl, 0.4, np.array([0.7, 1.1])), [-1.0, -1.0])

    def test_vanishing_density_raises(self):
        # x = (5 - 0.5) / 0.005 = 900: exp(-900) underflows, so the density is 0
        with pytest.raises(DensityZeroError):
            M.truncated_logistic_marginal(scale=0.005).impulse(5.0, 0.5)

    def test_upper_tail_density_is_positive(self):
        # x = 450: the density is about 3.7e-194, which a double holds
        marg = M.truncated_logistic_marginal(scale=0.01)
        assert 1e-195 < float(marg.pdf(5.0, 0.5)) < 1e-193
        assert np.isfinite(marg.impulse(5.0, 0.5))

    def test_nonpositive_on_regular_families(self):
        for name, make in ALL_INVARIANT:
            mdl = make()
            z = uniform_draws(RngStream(seed=3), 50, mdl.n) * 0.8 + 0.1
            for row in z:
                theta = M.sample_theta(mdl, 0.45, row)
                v = self.impulses(mdl, 0.45, theta)
                assert np.all(v <= 1e-12), name


class TestSampler:
    def test_median_at_half(self):
        mdl = cl_model(2)
        th = M.sample_theta(mdl, 0.3, np.array([0.5, 0.5]))
        np.testing.assert_allclose(th, [0.8, 0.8])

    def test_corners_fixed_across_types(self):
        for cop in (None, {"name": "clayton", "alpha": 2.0}, {"name": "gaussian", "rho": 0.5}):
            mdl = cl_model(2, cop)
            for g in (0.1, 0.5, 0.9):
                corners = M.sample_theta(
                    mdl, g, np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
                )
                np.testing.assert_allclose(
                    corners, [[0, 0], [2, 2], [0, 2], [2, 0]], atol=1e-12
                )

    def test_marginal_ks_at_1e5(self):
        for name, make in (("cl2-clayton", ALL_INVARIANT[2][1]), ("logi2", ALL_INVARIANT[4][1])):
            mdl = make()
            z = uniform_draws(RngStream(seed=21), 100_000, mdl.n)
            th = M.sample_theta(mdl, 0.4, z)
            for j, marg in enumerate(mdl.marginals):
                x = np.sort(th[:, j])
                cdf = np.asarray(marg.cdf(x, 0.4))
                n = len(x)
                ks = max(
                    np.max(np.arange(1, n + 1) / n - cdf),
                    np.max(cdf - np.arange(0, n) / n),
                )
                assert ks < 0.01, (name, j, ks)

    def test_empirical_copula_ks_2d(self):
        mdl = cl_model(2, {"name": "gaussian", "rho": 0.5})
        z = uniform_draws(RngStream(seed=31), 100_000, 2)
        th = M.sample_theta(mdl, 0.4, z)
        u = mdl.percentiles(0.4, th)
        grid = np.linspace(0.1, 0.9, 9)
        worst = 0.0
        for a in grid:
            for b in grid:
                emp = np.mean((u[:, 0] <= a) & (u[:, 1] <= b))
                ref = float(mdl.copula.cdf(np.array([a, b]), 0.4))
                worst = max(worst, abs(emp - ref))
        assert worst < 0.02

    def test_quantile_cdf_roundtrip(self):
        for name, make in ALL_INVARIANT:
            mdl = make()
            marg = mdl.marginals[0]
            for p in np.arange(0.01, 1.0, 0.07):
                q = float(marg.quantile(p, 0.37))
                assert abs(float(marg.cdf(q, 0.37)) - p) < 1e-8, name


class TestInvarianceResidual:
    def test_independence_zero(self):
        mdl = cl_model(2)
        assert M.invariance_residual(mdl, 9, (0.1, 0.9)) == 0.0

    def test_constant_clayton_tiny(self):
        mdl = cl_model(2, {"name": "clayton", "alpha": 2.0})
        assert M.invariance_residual(mdl, 9, (0.1, 0.9)) <= 1e-12

    def test_drifting_gaussian_detected(self):
        mdl = cl_model(2, {"name": "gaussian", "rho": 0.2, "rho_slope": 0.6})
        res = M.invariance_residual(mdl, 9, (0.0, 1.0))
        assert res > 0.05

    def test_flagged_families_have_tiny_residuals(self):
        for name, make in ALL_INVARIANT:
            mdl = make()
            if mdl.n < 2:
                continue
            assert mdl.invariant_flag
            assert M.invariance_residual(mdl, 7, (0.05, 0.95)) <= 1e-8, name


class TestDivergenceResidual:
    def test_type_independent(self):
        mdl = M.build_model({"name": "uniform_iid", "goods": 2})
        assert M.divergence_residual(mdl, 0.4, np.array([0.4, 0.7])) < 1e-10

    def test_cl_interior(self):
        mdl = cl_model(2)
        assert M.divergence_residual(mdl, 0.45, np.array([0.8, 1.0])) < 1e-6

    def test_smooth_dependent_family_at_random_points(self):
        mdl = logistic_model(copula={"name": "clayton", "alpha": 2.0})
        draws = uniform_draws(RngStream(seed=17), 100, 3)
        for row in draws:
            g = 0.1 + 0.8 * row[0]
            theta = M.sample_theta(mdl, g, 0.1 + 0.8 * row[1:])
            assert M.divergence_residual(mdl, g, theta) < 1e-4

    def test_materially_positive_when_invariance_fails(self):
        mdl = logistic_model(copula={"name": "gaussian", "rho": 0.2, "rho_slope": 0.6})
        draws = uniform_draws(RngStream(seed=19), 40, 3)
        worst = 0.0
        for row in draws:
            g = 0.2 + 0.6 * row[0]
            theta = M.sample_theta(mdl, g, 0.2 + 0.6 * row[1:])
            worst = max(worst, M.divergence_residual(mdl, g, theta))
        assert worst > 1e-2


class TestBatchedIdentity:
    """The identity verb's one call per family against its old per-point loop."""

    FAMILIES = [
        {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}},
        {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}},
        {"name": "cl_uniform", "goods": 2,
         "copula": {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0}},
        {"name": "logistic_shift", "goods": 2,
         "copula": {"name": "gaussian", "rho": 0.1, "rho_slope": 0.4}},
        {"name": "logistic_shift", "goods": 3},
        {"name": "cl_uniform", "goods": 3, "copula": {"name": "clayton", "alpha": 1.5}},
    ]

    @staticmethod
    def batched(mdl, seed, points):
        lo, hi = mdl.prior.lo, mdl.prior.hi
        draws = uniform_draws(RngStream(seed=seed, stream_id=7), points, mdl.n + 1)
        g = lo + (0.1 + 0.8 * draws[:, 0]) * (hi - lo)
        return M.divergence_residual(mdl, g, M.sample_theta(mdl, g, 0.1 + 0.8 * draws[:, 1:]))

    @pytest.mark.parametrize("family", FAMILIES, ids=[
        "readme-clayton", "logi-gauss", "drift-clayton", "drift-gauss", "logi3", "cl3-clayton"])
    def test_matches_per_point_reference(self, family):
        mdl = M.build_model(family)
        resids = self.batched(mdl, seed=4242, points=300)
        expect = scalar.identity_residuals(mdl, seed=4242, points=300)
        assert resids.shape == (300,)
        np.testing.assert_allclose(resids, expect, rtol=0.0, atol=1e-9)

    def test_sampler_matches_per_draw_calls(self):
        mdl = M.build_model(self.FAMILIES[3])
        z = uniform_draws(RngStream(seed=5), 50, 2)
        gammas = np.linspace(0.05, 0.95, 50)
        expect = np.stack([M.sample_theta(mdl, float(g), row) for g, row in zip(gammas, z)])
        np.testing.assert_allclose(M.sample_theta(mdl, gammas, z), expect, rtol=1e-14, atol=0.0)

    def test_scalar_call_returns_float(self):
        mdl = M.build_model(self.FAMILIES[0])
        assert type(M.divergence_residual(mdl, 0.45, np.array([0.8, 1.0]))) is float

    def test_stencil_outside_support_raises_for_any_point(self):
        mdl = cl_model(2)
        gammas = np.array([0.4, 0.5, 0.6])
        theta = np.array([[0.8, 1.0], [0.9, 1.1], [0.6, 1.2]])  # last: 0.6 = gamma, the edge
        with pytest.raises(InvalidIntervalError):
            M.divergence_residual(mdl, gammas, theta)
        assert M.divergence_residual(mdl, gammas[:2], theta[:2]).shape == (2,)


class TestBoundaryResidual:
    def test_fixed_support(self):
        mdl = M.build_model({"name": "uniform_iid", "goods": 2})
        assert M.boundary_residual(mdl, 0.5) <= 1e-12

    def test_moving_support_in_enclosing_box(self):
        mdl = cl_model(2)
        for g in (0.1, 0.5, 0.9):
            assert M.boundary_residual(mdl, g) <= 1e-8

    def test_logistic_by_finite_difference(self):
        # the central difference of the cdf in gamma vanishes at the box faces
        mdl = logistic_model()
        h = 1e-6
        for m in mdl.marginals:
            for edge in m.support:
                for g in (0.2, 0.5, 0.8):
                    fd = (float(m.cdf(edge, g + h)) - float(m.cdf(edge, g - h))) / (2 * h)
                    assert abs(fd) <= 1e-6


class TestRegistry:
    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            M.build_model({"name": "weibull_mix"})

    def test_needs_name(self):
        with pytest.raises(ConfigError):
            M.build_model({"goods": 2})

    def test_invariant_flag_follows_copula(self):
        assert cl_model(2, {"name": "clayton", "alpha": 2.0}).invariant_flag
        assert not cl_model(2, {"name": "clayton", "alpha": 2.0, "alpha_slope": 0.5}).invariant_flag

    @pytest.mark.parametrize("copula", [
        {"name": "gaussian", "rho": -0.5},
        {"name": "gaussian", "rho": 0.9, "rho_slope": 0.1},
        {"name": "clayton", "alpha": 0.0},
        {"name": "clayton", "alpha": 1.0, "alpha_slope": -1.0},
    ])
    def test_copula_path_invalid_at_a_prior_end_is_config_error(self, copula):
        # the bounds are open: a path that reaches one at an end fails
        with pytest.raises(ConfigError):
            M.build_model({"name": "logistic_shift", "goods": 3, "copula": copula})

    @pytest.mark.parametrize("name", M.FAMILIES)
    def test_one_good_gets_the_1d_independence_copula(self, name):
        # one good has nothing to couple: any valid block leaves it invariant
        for copula in ({"name": "independence"}, {"name": "clayton", "alpha": 2.0},
                       {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0},
                       {"name": "gaussian", "rho": 0.5, "rho_slope": 0.3}):
            mdl = M.build_model({"name": name, "goods": 1, "copula": copula})
            assert isinstance(mdl.copula, IndependenceCopula) and mdl.copula.dim == 1
            assert mdl.invariant_flag
            assert mdl.label == f"{name}/1g/{copula['name']}"

    @pytest.mark.parametrize("copula", [
        {"name": "gaussian", "rho": -1.0},
        {"name": "clayton", "alpha": 1.0, "alpha_slope": -1.0},
    ])
    def test_one_good_copula_block_is_checked_as_for_two_goods(self, copula):
        with pytest.raises(ConfigError):
            M.build_model({"name": "cl_uniform", "goods": 1, "copula": copula})

    @pytest.mark.parametrize("goods,copula", [
        (1, ClaytonCopula(2, 2.0)), (2, IndependenceCopula(1)), (2, IndependenceCopula(3)),
    ], ids=["one-good-2d", "two-goods-1d", "two-goods-3d"])
    def test_copula_dimension_must_match_the_goods(self, goods, copula):
        mdl = cl_model(goods)
        with pytest.raises(ConfigError):
            M.JointModel(mdl.prior, mdl.marginals, copula)
