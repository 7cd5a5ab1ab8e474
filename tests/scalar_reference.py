"""Scalar reference implementations of the continuum accountings.

These evaluate one type, one good and one Gauss rule at a time, the way
the solver did before its quadrature was batched over types.  The tests
check the batched code against them.
"""

import numpy as np

from screenforge import mech as X
from screenforge.copulas import IndependenceCopula
from screenforge.model import hazard, score
from screenforge.numerics import bisect_root, gauss_rule, geometric_breaks, tensor_rule

SCAN_POINTS = 257


def solve_strike(model, j, gamma, tol=1e-12):
    """Zero of good j's virtual value at one type: scan, then bisect."""
    lo, hi = model.marginals[j].support
    grid = np.linspace(lo, hi, SCAN_POINTS)
    phi = np.asarray(X.virtual_value(model, j, gamma, grid), dtype=float)
    nonneg = phi >= 0.0
    if not nonneg.any():
        return hi
    first = int(np.argmax(nonneg))
    if first == 0:
        return lo
    return bisect_root(lambda t: float(X.virtual_value(model, j, gamma, t)),
                       float(grid[first - 1]), float(grid[first]), tol=tol)


def strikes(model, grid):
    return np.array([[solve_strike(model, j, g) for j in range(model.n)] for g in grid])


def marginal_integrals(model, gamma, strike_vec, order=48):
    """Per-good percentile integrals of one menu entry at one type:
    E[u], E[theta . q], E[t2], the rent slope and E[sum_j q_j phi_j]."""
    out = dict.fromkeys(("e_u", "e_thq", "e_t2", "slope", "virtual"), 0.0)
    hz = hazard(model.prior, gamma)
    for j, m in enumerate(model.marginals):
        p = float(strike_vec[j])
        s = float(np.clip(m.cdf(p, gamma), 0.0, 1.0))
        out["e_t2"] += p * (1.0 - s)
        if s >= 1.0 - 1e-14:
            continue
        rule = gauss_rule(order, s, 1.0)
        q = np.asarray(m.quantile(rule.nodes, gamma), dtype=float)
        v = np.asarray(m.impulse(q, gamma), dtype=float)
        out["e_u"] += float(np.dot(rule.weights, q - p))
        out["e_thq"] += float(np.dot(rule.weights, q))
        out["slope"] -= float(np.dot(rule.weights, v))
        out["virtual"] += float(np.dot(rule.weights, q + v * hz))
    return out


def menu_expected_u(model, gamma, strike_vec, order=48):
    return marginal_integrals(model, gamma, strike_vec, order)["e_u"]


def _panel_sum(model, grid, strike_rows, order, fn):
    """sum over menu cells and their Gauss nodes of w * fn(node, strikes)."""
    total = 0.0
    for i in range(len(grid) - 1):
        rule = gauss_rule(order, float(grid[i]), float(grid[i + 1]))
        for g, w in zip(rule.nodes, rule.weights):
            total += w * fn(g, strike_rows[i])
    return total


def rent_curve(model, grid, strike_rows, quad=X.QuadSpec()):
    values = np.zeros(len(grid))
    for i in range(len(grid) - 1):
        values[i + 1] = values[i] + _panel_sum(
            model, grid[i:i + 2], strike_rows[i:i + 1], quad.gamma_cell_order,
            lambda g, p: marginal_integrals(model, g, p)["slope"])
    return values


def fees(model, grid, strike_rows, quad=X.QuadSpec()):
    rents = rent_curve(model, grid, strike_rows, quad)
    return np.array([menu_expected_u(model, g, p) for g, p in zip(grid, strike_rows)]) - rents


def revenue_direct(model, mech, quad=X.QuadSpec()):
    grid = mech.gamma_grid
    gmass = np.diff(np.asarray(model.prior.cdf(grid), dtype=float))
    return float(np.dot(mech.upfront[:-1], gmass)) + _panel_sum(
        model, grid, mech.strikes, quad.gamma_cell_order,
        lambda g, p: float(model.prior.pdf(g)) * marginal_integrals(model, g, p)["e_t2"])


def revenue_impulse_form(model, mech, quad=X.QuadSpec()):
    return _panel_sum(
        model, mech.gamma_grid, mech.strikes, quad.gamma_cell_order,
        lambda g, p: float(model.prior.pdf(g)) * marginal_integrals(model, g, p)["virtual"])


def expected_u_score(model, gamma, strike_vec, quad=X.QuadSpec()):
    """E[u * score | gamma]: a gamma difference of E[u] for moving
    supports, matched-good terms for independent goods, otherwise a
    joint percentile-space tensor integral."""
    if not all(m.smooth_in_gamma for m in model.marginals):
        h = 1e-6 * (model.prior.hi - model.prior.lo)
        up = menu_expected_u(model, gamma + h, strike_vec, quad.marginal_order)
        dn = menu_expected_u(model, gamma - h, strike_vec, quad.marginal_order)
        return (up - dn) / (2.0 * h)
    if model.n == 1 or isinstance(model.copula, IndependenceCopula):
        total = 0.0
        for j, m in enumerate(model.marginals):
            p = float(strike_vec[j])
            s = float(np.clip(m.cdf(p, gamma), 0.0, 1.0))
            if s >= 1.0 - 1e-14:
                continue
            rule = gauss_rule(quad.marginal_order, s, 1.0)
            q = np.asarray(m.quantile(rule.nodes, gamma), dtype=float)
            sj = np.asarray(m.dpdf_dgamma(q, gamma)) / np.asarray(m.pdf(q, gamma))
            total += float(np.dot(rule.weights, (q - p) * sj))
        return total
    breaks = []
    for j, m in enumerate(model.marginals):
        s = float(np.clip(m.cdf(float(strike_vec[j]), gamma), 0.0, 1.0))
        pts = list(geometric_breaks(depth=quad.corner_depth))
        if 0.0 < s < 1.0:
            pts.append(s)
        breaks.append(pts)
    pts, wts = tensor_rule([(0.0, 1.0)] * model.n, [quad.joint_order] * model.n, breaks)
    theta = np.stack([np.asarray(model.marginals[j].quantile(pts[:, j], gamma), dtype=float)
                      for j in range(model.n)], axis=-1)
    u_util = np.sum(np.maximum(theta - np.asarray(strike_vec, dtype=float), 0.0), axis=-1)
    svals = np.asarray(score(model, gamma, theta), dtype=float)
    cvals = np.asarray(model.copula.density(pts, gamma), dtype=float)
    return float(np.dot(wts, u_util * svals * cvals))


def revenue_functional(model, mech, quad=X.QuadSpec()):
    grid = mech.gamma_grid
    surplus = _panel_sum(
        model, grid, mech.strikes, quad.gamma_cell_order,
        lambda g, p: float(model.prior.pdf(g)) * marginal_integrals(model, g, p)["e_thq"])
    joint = (all(m.smooth_in_gamma for m in model.marginals) and model.n > 1
             and not isinstance(model.copula, IndependenceCopula))
    rents = _panel_sum(
        model, grid, mech.strikes, 2 if joint else quad.gamma_cell_order,
        lambda g, p: (1.0 - float(model.prior.cdf(g))) * expected_u_score(model, g, p, quad))
    return surplus - rents


def gain_matrix(model, mech, grid):
    """Misreport gains of every grid type against every grid type's menu."""
    menus = [mech.menu_index(g) for g in grid]
    cross = np.array([[menu_expected_u(model, gi, mech.strikes[mj]) - mech.upfront[mj]
                       for mj in menus] for gi in grid])
    return cross - np.diag(cross)[:, None]
