import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal

import scalar_reference as scalar
from screenforge.copulas import (
    ClaytonCopula,
    GaussianCopula,
    IndependenceCopula,
    ParamPath,
)
from screenforge.errors import ConfigError, InvalidIntervalError
from screenforge.model import build_model
from screenforge.numerics import gauss_rule, geometric_breaks, tensor_points


def copula_mass(cop, gamma=0.0, order=16):
    pts, wts = scalar.tensor_rule(
        [(0.0, 1.0)] * cop.dim, [order] * cop.dim, [geometric_breaks(8)] * cop.dim
    )
    return float(np.dot(wts, cop.density(pts, gamma)))


@pytest.mark.parametrize(
    "cop",
    [
        IndependenceCopula(2),
        ClaytonCopula(2, alpha=2.0),
        ClaytonCopula(3, alpha=1.5),
        GaussianCopula(2, rho=0.5),
        GaussianCopula(2, rho=-0.4),
    ],
    ids=["indep", "clayton2", "clayton3d", "gauss.5", "gauss-.4"],
)
class TestCopulaContracts:
    def test_uniform_margins(self, cop):
        for u in (0.1, 0.37, 0.92):
            vec = np.ones(cop.dim)
            vec[0] = u
            assert abs(float(cop.cdf(vec, 0.3)) - u) < 1e-8

    def test_density_normalizes(self, cop):
        assert abs(copula_mass(cop) - 1.0) < 1e-6

    def test_chain_pushforward_matches_cdf(self, cop):
        # empirical joint cdf of chained draws vs the analytic copula cdf
        rng = np.random.default_rng(123)
        z = rng.random((40_000, cop.dim))
        u = cop.conditional_chain(z, 0.0)
        for pt in ([0.3] * cop.dim, [0.6] * cop.dim, [0.2, 0.8] + [0.5] * (cop.dim - 2)):
            pt = np.asarray(pt)
            emp = np.mean(np.all(u <= pt, axis=1))
            assert abs(emp - float(cop.cdf(pt, 0.0))) < 0.01

    def test_corners_map_to_corners(self, cop):
        z = np.zeros(cop.dim)
        np.testing.assert_allclose(cop.conditional_chain(z, 0.0), 0.0)
        z = np.ones(cop.dim)
        np.testing.assert_allclose(cop.conditional_chain(z, 0.0), 1.0)

    def test_partial_log_density_by_fd(self, cop):
        u0 = np.full(cop.dim, 0.4)
        grad = np.asarray(cop.partial_log_density(u0, 0.0), dtype=float)
        h = 1e-6
        for j in range(cop.dim):
            up, dn = u0.copy(), u0.copy()
            up[j] += h
            dn[j] -= h
            fd = (np.log(float(cop.density(up, 0.0))) - np.log(float(cop.density(dn, 0.0)))) / (2 * h)
            assert abs(fd - grad[j]) < 1e-5 * max(1.0, abs(grad[j]))


class TestClaytonClosedForm:
    def test_density_value(self):
        a = 2.0
        cop = ClaytonCopula(2, alpha=a)
        u = v = 0.5
        ref = (1 + a) * (u * v) ** (-(a + 1)) * (u**-a + v**-a - 1) ** (-(2 + 1 / a))
        assert abs(float(cop.density(np.array([u, v]), 0.0)) - ref) < 1e-12

    def test_conditional_roundtrip(self):
        a = 2.0
        cop = ClaytonCopula(2, alpha=a)
        z = np.array([[0.3, 0.8], [0.9, 0.1], [0.5, 0.5]])
        u = cop.conditional_chain(z, 0.0)
        cond = (1 + (u[:, 1] ** -a - 1) / (u[:, 0] ** -a)) ** (-(1 / a + 1))
        np.testing.assert_allclose(cond, z[:, 1], atol=1e-12)


class TestGaussianAgainstReferences:
    def test_bvn_zero_zero_closed_form(self):
        for rho in (-0.8, -0.3, 0.0, 0.2, 0.5, 0.93, 0.99):
            exact = 0.25 + math.asin(rho) / (2 * math.pi)
            assert abs(scalar.bvn_upper(0.0, 0.0, rho) - exact) < 1e-14

    def test_bvn_against_scipy(self):
        from scipy.special import ndtr

        rng = np.random.default_rng(5)
        for _ in range(40):
            h, k = rng.normal(size=2) * 1.5
            rho = rng.uniform(-0.98, 0.98)
            mvn = multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]])
            ref = 1 - ndtr(h) - ndtr(k) + mvn.cdf([h, k])
            assert abs(scalar.bvn_upper(h, k, rho) - ref) < 5e-8

    def test_bvn_against_the_angle_integral(self):
        # P(X > h, Y > k) = Phi(-h) Phi(-k) + (1/2pi) int_0^asin(r)
        # exp(-(h^2 - 2hk sin t + k^2) / (2 cos^2 t)) dt; the grid reaches
        # the strong correlations |r| = 0.93 to 0.99
        from scipy.special import ndtr

        scores = np.array([-5.0, -3.0, -1.5, -0.5, 0.0, 0.3, 1.0, 2.5, 4.0])
        h, k = (a[..., None] for a in np.meshgrid(scores, scores, indexing="ij"))
        for r in (0.0, 0.2, -0.2, 0.6, -0.6, 0.93, -0.93, 0.95, -0.95, 0.99, -0.99):
            angle = 0.0
            if r:
                rule = gauss_rule(400, *sorted((0.0, math.asin(r))))
                t = rule.nodes
                expo = -(h * h - 2.0 * h * k * np.sin(t) + k * k) / (2.0 * np.cos(t) ** 2)
                angle = math.copysign(1.0, r) * (np.exp(expo) @ rule.weights)
            ref = ndtr(-h[..., 0]) * ndtr(-k[..., 0]) + angle / (2.0 * math.pi)
            got = [[scalar.bvn_upper(a, b, r) for b in scores] for a in scores]
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14, err_msg=f"r={r}")
            # the copula's lower orthant at u = Phi(-h), Phi(-k) is this upper one
            u = tensor_points([ndtr(-scores)] * 2)
            got = GaussianCopula(2, rho=r).cdf(u, 0.0).reshape(len(scores), len(scores))
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14, err_msg=f"cdf r={r}")

    def test_cdf_dim3_against_scipy(self):
        cop = GaussianCopula(3, rho=0.5)
        u = np.array([0.3, 0.6, 0.8])
        cov = np.full((3, 3), 0.5)
        np.fill_diagonal(cov, 1.0)
        ref = multivariate_normal(mean=np.zeros(3), cov=cov).cdf(ndtri(u))
        assert abs(float(cop.cdf(u, 0.0)) - ref) < 5e-6

    @staticmethod
    def one_factor_cdf(u, rho):
        """P(X <= ndtri(u)) for X_j = sqrt(rho) T + sqrt(1 - rho) E_j with T
        and E standard normal: one integral over T, rho >= 0 only."""
        x = ndtri(np.asarray(u, dtype=float))
        a, b = math.sqrt(rho), math.sqrt(1.0 - rho)

        def integrand(t):
            dens = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
            return dens * float(np.prod(ndtr((x - a * t) / b)))

        return quad(integrand, -12.0, 12.0, epsabs=1e-14, epsrel=1e-13, limit=500,
                    points=[float(v) for v in x / a])[0]

    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.9, 0.99])
    def test_cdf_dim3_against_the_one_factor_integral(self, rho):
        # conditioning in percentile space was up to 1.6e-5 off (rho 0.5)
        cop = GaussianCopula(3, rho=rho)
        pts = tensor_points([[0.01, 0.3, 0.7, 0.99]] * 3)
        got = cop.cdf(pts, 0.0)
        for u, value in zip(pts, got):
            assert abs(value - self.one_factor_cdf(u, rho)) < 1e-12, u

    @pytest.mark.parametrize("rho", [0.5, 0.99])
    def test_cdf_dim4_against_the_one_factor_integral(self, rho):
        cop = GaussianCopula(4, rho=rho)
        for u in ([0.3, 0.6, 0.8, 0.9], [0.5, 0.5, 0.5, 0.5]):
            assert abs(float(cop.cdf(np.array(u), 0.0)) - self.one_factor_cdf(u, rho)) < 1e-12, u

    @pytest.mark.parametrize("dim,rho", [(3, 0.9999), (5, 0.5), (5, 0.95), (6, 0.5), (6, 0.95)])
    def test_cdf_against_the_one_factor_integral_up_to_six_goods(self, dim, rho):
        # 6-wide panels: 8-wide ones were 1.1e-13 off at the 6-good median, rho 0.5
        rng = np.random.default_rng(dim)
        pts = np.vstack([np.full(dim, 0.5), np.full(dim, 0.97), np.full(dim, 0.03),
                         rng.uniform(0.01, 0.99, size=(5, dim))])
        for u, value in zip(pts, GaussianCopula(dim, rho=rho).cdf(pts, 0.0)):
            assert abs(value - self.one_factor_cdf(u, rho)) < 1e-13, u

    @pytest.mark.parametrize("dim,rho", [
        *((2, r) for r in (-0.999, -0.5, 0.0, 0.5, 0.999)),
        *((3, r) for r in (-0.3, -0.4, -0.48, -0.499, -0.4999)),
    ])
    def test_cdf_median_orthant(self, dim, rho):
        # P(X <= 0) = 1/4 + asin(rho) / (2 pi) at two goods and 1/8 + 3
        # asin(rho) / (4 pi) at three, for equicorrelation rho
        want = (0.25 + math.asin(rho) / (2.0 * math.pi) if dim == 2
                else 0.125 + 3.0 * math.asin(rho) / (4.0 * math.pi))
        assert abs(float(GaussianCopula(dim, rho=rho).cdf(np.full(dim, 0.5), 0.0)) - want) < 1e-14

    @pytest.mark.parametrize("dim,rho,pts", [
        (3, -0.3, [[0.3, 0.6, 0.8], [0.05, 0.95, 0.5], [0.2, 1.0, 0.4]]),
        (3, -0.45, [[0.3, 0.6, 0.8], [0.9, 0.9, 0.99]]),
        (4, -0.3, [[0.3, 0.6, 0.8, 0.9], [0.1, 0.5, 1.0, 0.7]]),
    ])
    def test_cdf_negative_rho_against_the_conditioning_recursion(self, dim, rho, pts):
        got = GaussianCopula(dim, rho=rho).cdf(np.array(pts), 0.0)
        for u, value in zip(pts, got):
            assert abs(value - scalar.gaussian_cdf(u, rho)) < 1e-13, u

    @pytest.mark.parametrize("dim,rho", [(2, 0.5), (2, -0.9), (3, 0.5), (3, -0.4999), (4, 0.99),
                                         (6, -0.15), (6, 0.5)])
    def test_cdf_edge_rows_are_exact(self, dim, rho):
        # all ones, a zero coordinate, and one coordinate below 1: the
        # one-factor integral would leave round-off (and NaN at infinite scores)
        rows = np.ones((4, dim))
        rows[1, 0] = rows[1, 1] = 0.4
        rows[1, -1] = 0.0
        rows[2, 1] = 0.37
        rows[3, -1] = 1e-300
        assert GaussianCopula(dim, rho=rho).cdf(rows, 0.0).tolist() == [1.0, 0.0, 0.37, 1e-300]


class TestParameterPaths:
    def test_invariance_flags(self):
        assert GaussianCopula(2, rho=0.5).is_gamma_invariant
        assert not GaussianCopula(2, rho=0.2, rho_slope=0.6).is_gamma_invariant
        assert ClaytonCopula(2, alpha=2.0).is_gamma_invariant
        assert not ClaytonCopula(2, alpha=2.0, alpha_slope=1.0).is_gamma_invariant

    def test_gamma_path_changes_density(self):
        cop = GaussianCopula(2, rho=0.2, rho_slope=0.6)
        u = np.array([0.3, 0.3])
        d0 = float(cop.density(u, 0.0))
        d1 = float(cop.density(u, 1.0))
        assert abs(d0 - d1) > 0.05

    @pytest.mark.parametrize("block,cls", [
        ({"name": "independence"}, IndependenceCopula),
        ({"name": "clayton", "alpha": 1.0}, ClaytonCopula),
        ({"name": "gaussian", "rho": 0.1}, GaussianCopula),
    ], ids=["independence", "clayton", "gaussian"])
    def test_registry(self, block, cls):
        # build_model picks the class by its name from model.COPULAS
        cop = build_model({"name": "uniform_iid", "goods": 2, "copula": block}).copula
        assert isinstance(cop, cls) and cop.name == block["name"] and cop.dim == 2

    def test_unknown_copula_is_config_error(self):
        with pytest.raises(ConfigError, match="family.copula.name must be one of "
                                              "independence, clayton, gaussian, got 'tawn'"):
            build_model({"name": "uniform_iid", "goods": 2, "copula": {"name": "tawn"}})

    def test_defaults_live_in_the_classes(self):
        assert ClaytonCopula(2).alpha == ParamPath(1.0, 0.0)
        assert GaussianCopula(2).rho == ParamPath(0.0, 0.0)


class TestTypeArrays:
    """One type per point: a gamma array of shape u.shape[:-1]."""

    DRIFTING = [
        ClaytonCopula(2, alpha=2.0, alpha_slope=1.0),
        ClaytonCopula(3, alpha=1.5, alpha_slope=-0.8),
        GaussianCopula(2, rho=0.2, rho_slope=0.6),
        GaussianCopula(3, rho=-0.1, rho_slope=0.5),
    ]
    IDS = ["clayton2", "clayton3", "gauss2", "gauss3"]
    METHODS = ("density", "partial_log_density", "conditional_chain")

    @staticmethod
    def points(dim, count=64, seed=8):
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.02, 0.98, size=(count, dim))
        u[:3] = [[0.0] * dim, [1.0] * dim, [0.5] + [1.0] * (dim - 1)]  # corner draws
        return u, rng.uniform(0.0, 1.0, size=count)

    @pytest.mark.parametrize("cop", DRIFTING, ids=IDS)
    @pytest.mark.parametrize("method", METHODS)
    def test_drifting_array_equals_stacked_scalar_calls(self, cop, method):
        u, gammas = self.points(cop.dim)
        if method != "conditional_chain":
            u = u[3:]
            gammas = gammas[3:]
        fn = getattr(cop, method)
        batched = fn(u, gammas)
        stacked = np.stack([fn(row, float(g)) for row, g in zip(u, gammas)])
        assert batched.shape == stacked.shape
        np.testing.assert_allclose(batched, stacked, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("cop", DRIFTING, ids=IDS)
    def test_drifting_parameter_checked_at_every_point(self, cop):
        path, bad = (cop.alpha, -5.0) if cop.name == "clayton" else (cop.rho, 5.0)
        u, gammas = self.points(cop.dim, count=8)
        gammas[5] = (bad - path.base) / path.slope
        with pytest.raises(InvalidIntervalError):
            cop.density(u[3:], gammas[3:])

    @pytest.mark.parametrize("cop,prefix,param", [
        (ClaytonCopula(2, alpha=2.0), "clayton", 2.0),
        (ClaytonCopula(3, alpha=2.0), "clayton", 2.0),
        (GaussianCopula(2, rho=0.5), "gaussian", 0.5),
        (GaussianCopula(3, rho=-0.3), "gaussian", -0.3),
    ], ids=["clayton2", "clayton3", "gauss2", "gauss3"])
    def test_invariant_bit_identical_to_scalar_reference(self, cop, prefix, param):
        # the scalar-parameter copula code, kept in the tests, gives the
        # same bits whether gamma is a scalar or one type per point
        u, gammas = self.points(cop.dim, count=200)
        for method, ref_name in (("density", "density"),
                                 ("partial_log_density", "partial_log_density"),
                                 ("conditional_chain", "chain")):
            pts = u if method == "conditional_chain" else u[3:]
            expect = getattr(scalar, f"{prefix}_{ref_name}")(pts, param, cop.dim)
            for gamma in (0.3, gammas[:len(pts)]):
                np.testing.assert_array_equal(getattr(cop, method)(pts, gamma), expect)

    def test_independence_accepts_type_arrays(self):
        cop = IndependenceCopula(3)
        u, gammas = self.points(3, count=10)
        np.testing.assert_array_equal(cop.density(u, gammas), np.ones(10))
        np.testing.assert_array_equal(cop.conditional_chain(u, gammas), u)


class TestLogDensityForm:
    """The form ln c = sum_j lambda(u_j) + g(sum_j tau(u_j)) of
    ``axis_terms`` and ``link`` against the point form on the tensor
    points: exp(sum_j lambda_j + g(t)) against the density to rtol 1e-12,
    and lambda'_j + tau'_j g'(t) against d ln c / d u_j to 1e-12 of the
    sum of its two terms' magnitudes at each point (the forms sum in
    another order).  The independence copula has no such form."""

    COPULAS = [
        ClaytonCopula(2, alpha=2.0),
        ClaytonCopula(3, alpha=1.5),
        ClaytonCopula(2, alpha=2.0, alpha_slope=1.0),
        ClaytonCopula(3, alpha=1.5, alpha_slope=-0.8),
        GaussianCopula(2, rho=0.5),
        GaussianCopula(3, rho=-0.3),
        GaussianCopula(2, rho=0.2, rho_slope=0.6),
        GaussianCopula(3, rho=-0.1, rho_slope=0.5),
    ]
    IDS = ["clayton2", "clayton3", "clayton2-drift", "clayton3-drift",
           "gauss2", "gauss3", "gauss2-drift", "gauss3-drift"]

    @pytest.mark.parametrize("cop", COPULAS, ids=IDS)
    @pytest.mark.parametrize("part", ["density", "partial"])
    def test_matches_point_form_on_tensor_points(self, cop, part):
        rng = np.random.default_rng(31)
        # unequal lengths; 0, 1e-16, 1 - 1e-16 and 1 clip at the score clamp
        edges = [0.0, 1e-16, 1.0 - 1e-16, 1.0]
        axes = [rng.permutation(np.concatenate([edges, rng.uniform(size=3 + 2 * j)]))
                for j in range(cop.dim)]
        u = tensor_points(axes)
        with np.errstate(all="ignore"):
            lam, dlam, tau, dtau = cop.axis_terms(u, 0.7)
            g, dg = cop.link(tau.sum(axis=-1), 0.7)
            if part == "density":
                np.testing.assert_allclose(np.exp(lam.sum(axis=-1) + g), cop.density(u, 0.7),
                                           rtol=1e-12, atol=0.0)
                return
            along = dtau * dg[:, None]
            slope = dlam + along
            expect = cop.partial_log_density(u, 0.7)
        finite = np.isfinite(expect)
        np.testing.assert_array_equal(slope[~finite], expect[~finite])  # Clayton at u = 0
        bound = 1e-12 * (np.abs(dlam) + np.abs(along))
        assert np.all(np.abs(slope - expect)[finite] <= bound[finite])
