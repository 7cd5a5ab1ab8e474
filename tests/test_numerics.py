import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screenforge.errors import BracketError, InvalidIntervalError
from screenforge.numerics import RngStream, bisect_root, composite_rule, gauss_rule, uniform_draws


class TestGaussRule:
    def test_order_one_is_midpoint(self):
        rule = gauss_rule(1, 0.0, 1.0)
        np.testing.assert_allclose(rule.nodes, [0.5])
        np.testing.assert_allclose(rule.weights, [1.0])

    def test_order_two_exact_for_squares(self):
        rule = gauss_rule(2, 0.0, 1.0)
        assert abs(rule.weights @ rule.nodes**2 - 1.0 / 3.0) < 1e-14

    def test_exp_against_series(self):
        # independent series evaluation of int_0^1 e^x dx = e - 1
        series = sum(1.0 / math.factorial(k) for k in range(1, 25))
        rule = gauss_rule(16, 0.0, 1.0)
        assert abs(rule.weights @ np.exp(rule.nodes) - series) < 1e-12

    def test_weights_sum_to_length_and_nodes_sorted(self):
        for order in (1, 3, 7, 32):
            rule = gauss_rule(order, -2.0, 5.0)
            assert abs(rule.weights.sum() - 7.0) < 1e-12
            assert np.all(np.diff(rule.nodes) > 0)
            assert rule.nodes[0] > -2.0 and rule.nodes[-1] < 5.0

    def test_invalid_interval(self):
        with pytest.raises(InvalidIntervalError):
            gauss_rule(4, 1.0, 1.0)
        with pytest.raises(InvalidIntervalError):
            gauss_rule(0, 0.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(st.floats(-3, 3), min_size=1, max_size=8),
    )
    def test_polynomial_exactness(self, order, coeffs):
        # exact up to degree 2*order - 1
        coeffs = coeffs[: 2 * order]
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(1.0) - poly.integ()(0.0)
        rule = gauss_rule(order, 0.0, 1.0)
        assert abs(rule.weights @ poly(rule.nodes) - exact) <= 1e-12 * max(1.0, abs(exact))


    def test_array_bounds_give_one_rule_per_interval(self):
        lo, hi = np.array([0.0, 0.25, -1.0]), np.array([1.0, 0.5, 3.0])
        rule = gauss_rule(7, lo, hi)
        assert rule.nodes.shape == rule.weights.shape == (3, 7)
        for k in range(3):
            one = gauss_rule(7, lo[k], hi[k])
            np.testing.assert_array_equal(rule.nodes[k], one.nodes)
            np.testing.assert_array_equal(rule.weights[k], one.weights)
        with pytest.raises(InvalidIntervalError):
            gauss_rule(3, lo, np.array([1.0, 0.25, 3.0]))


class TestCompositeRule:
    def test_composite_rule_splits(self):
        rule = composite_rule(0.0, 1.0, 6, breaks=[0.3])
        assert abs(rule.weights @ np.abs(rule.nodes - 0.3) - (0.3**2 + 0.7**2) / 2) < 1e-13


class TestBisect:
    def test_linear(self):
        assert abs(bisect_root(lambda x: x - 0.5, 0, 1, 1e-10) - 0.5) < 1e-10

    def test_sqrt_two(self):
        assert abs(bisect_root(lambda x: x * x - 2.0, 0, 2, 1e-10) - math.sqrt(2)) < 1e-8

    def test_endpoint_roots(self):
        assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
        assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_bracket(self):
        with pytest.raises(BracketError):
            bisect_root(lambda x: x + 1.0, 0.0, 1.0)

    def test_nested_when_tightening(self):
        f = lambda x: math.expm1(x) - 0.7
        loose = bisect_root(f, 0.0, 1.0, tol=1e-6)
        tight = bisect_root(f, 0.0, 1.0, tol=1e-12)
        assert abs(loose - tight) <= 1e-6


    def test_array_brackets_follow_scalar_steps(self):
        # each bracket takes the steps it would take alone, including an
        # exact endpoint root and an exact midpoint root
        c = np.array([0.3, 2.0, 0.0, 0.125, 5.0])
        lo, hi = np.zeros(5), np.array([1.0, 2.0, 1.0, 1.0, 3.0])
        roots = bisect_root(lambda x: x ** 3 - c, lo, hi, tol=1e-12)
        alone = [bisect_root(lambda x, ck=ck: x ** 3 - ck, a, b, tol=1e-12)
                 for ck, a, b in zip(c, lo, hi)]
        np.testing.assert_array_equal(roots, alone)
        assert roots[2] == 0.0 and roots[3] == 0.5

    def test_array_brackets_without_sign_change(self):
        with pytest.raises(BracketError):
            bisect_root(lambda x: x - np.array([0.5, 2.0]), np.zeros(2), np.ones(2))


class TestFiniteDifference:
    def test_conditional_cdf_type_slope(self):
        # the moving-support uniform family has cdf slope -1 in the type
        # on the interior of its support
        from screenforge.model import shifted_uniform_marginal

        marg = shifted_uniform_marginal()
        h = 1e-5
        val = (float(marg.cdf(0.8, 0.4 + h)) - float(marg.cdf(0.8, 0.4 - h))) / (2.0 * h)
        assert abs(val - (-1.0)) < 1e-6


class TestRngStream:
    def test_reproducible(self):
        a = uniform_draws(RngStream(seed=42, stream_id=3), 100, 2)
        b = uniform_draws(RngStream(seed=42, stream_id=3), 100, 2)
        assert a.tobytes() == b.tobytes()

    def test_streams_differ(self):
        a = uniform_draws(RngStream(seed=42, stream_id=0), 64, 1)
        b = uniform_draws(RngStream(seed=42, stream_id=1), 64, 1)
        assert not np.allclose(a, b)

    def test_mean_within_clt_band(self):
        draws = uniform_draws(RngStream(seed=7), 100_000, 1)
        # 3 sigma for the mean of U(0,1): 3/sqrt(12 n) < 0.01
        assert abs(draws.mean() - 0.5) < 0.01

    def test_columns_uncorrelated(self):
        draws = uniform_draws(RngStream(seed=11), 100_000, 2)
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 0.02
