"""Scalar reference implementations of the continuum accountings.

These evaluate one type, one good and one Gauss rule at a time, the way
the solver did before its quadrature was batched over types.  The same
goes for the identity check (one point at a time), the copulas (one
scalar parameter) and the CSV writer (one value at a time), and for the
sequential LP, solved by cutting planes the way the oracle did before
its adapted constraints were written out.  The relaxed regime's shock
rectangulation is built by recursion over the goods and its per-cell
report by one loop per type and good, as before both were batched.  The
Gaussian cdf recurses by conditioning, one point and one node at a
time, down to Owen's T-function form at two goods, as before it took the
one-factor integral.  The exhaustive oracle enumerates the allocation
profiles, tests one allocation table at a time and writes one
transfer-LP row per joint misreport map, as before it was one
mixed-integer program with per-cell epigraph rows.  The logistic
sigmoid takes two clipped exps per point, as before it took one exp of
-|x|.  The joint likelihood
score, analytic for an invariant copula and a central difference in
gamma otherwise, integrates the rents of every dependent smooth family
on a joint grid, drifting ones included, as the solver did before a
drifting copula took the per-good score.  The sample verb holds every
draw of every type in one table, and identity's invariance residual
takes its whole tensor grid at once, as both did before they ran in
blocks.  The tests check the batched code against them.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.special import ndtr, ndtri, owens_t

from screenforge import mech as X
from screenforge import oracle as O
from screenforge.copulas import IndependenceCopula
from screenforge.errors import ConvergenceError, DensityZeroError, LpInfeasibleError
from screenforge.lp import LpModel
from screenforge.model import divergence_residual, hazard, joint_density, sample_theta
from screenforge.numerics import (
    RngStream,
    bisect_root,
    composite_rule,
    gauss_rule,
    geometric_breaks,
    tensor_points,
    uniform_draws,
)

SCAN_POINTS = 257


def sigmoid(x):
    """1 / (1 + exp(-x)) from exp(-max(x, 0)) and exp(min(x, 0))."""
    x = np.asarray(x, dtype=float)
    pos = 1.0 / (1.0 + np.exp(-np.clip(x, 0.0, None)))
    ex = np.exp(np.clip(x, None, 0.0))
    neg = ex / (1.0 + ex)
    return np.where(x >= 0, pos, neg)


def tensor_rule(box, orders, breaks):
    """Tensor product of per-axis composite rules on ``box``: points of
    shape (N, d) and their weights."""
    axes = [composite_rule(lo, hi, order, cuts)
            for (lo, hi), order, cuts in zip(box, orders, breaks)]
    weights = np.prod(tensor_points([r.weights for r in axes]), axis=-1)
    return tensor_points([r.nodes for r in axes]), weights


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


def rent_curve(model, grid, strike_rows):
    values = np.zeros(len(grid))
    for i in range(len(grid) - 1):
        values[i + 1] = values[i] + _panel_sum(
            model, grid[i:i + 2], strike_rows[i:i + 1], X.GAMMA_CELL_ORDER,
            lambda g, p: marginal_integrals(model, g, p)["slope"])
    return values


def fees(model, grid, strike_rows):
    rents = rent_curve(model, grid, strike_rows)
    return np.array([menu_expected_u(model, g, p) for g, p in zip(grid, strike_rows)]) - rents


def revenue_direct(model, mech):
    grid = mech.gamma_grid
    gmass = np.diff(np.asarray(model.prior.cdf(grid), dtype=float))
    return float(np.dot(mech.upfront[:-1], gmass)) + _panel_sum(
        model, grid, mech.strikes, X.GAMMA_CELL_ORDER,
        lambda g, p: float(model.prior.pdf(g)) * marginal_integrals(model, g, p)["e_t2"])


def revenue_impulse_form(model, mech):
    return _panel_sum(
        model, mech.gamma_grid, mech.strikes, X.GAMMA_CELL_ORDER,
        lambda g, p: float(model.prior.pdf(g)) * marginal_integrals(model, g, p)["virtual"])


def score(model, gamma, theta, force_fd=False):
    """Likelihood sensitivity d ln f(theta|gamma) / d gamma: the analytic
    composition through the marginals for an invariant copula, a central
    difference in gamma when it drifts or ``force_fd`` is set."""
    theta = np.asarray(theta, dtype=float)
    if model.invariant_flag and not force_fd:
        total = np.zeros(theta.shape[:-1], dtype=float)
        u = model.percentiles(gamma, theta)
        dlogc = np.asarray(model.copula.partial_log_density(u, gamma), dtype=float)
        for j, m in enumerate(model.marginals):
            tj = theta[..., j]
            fj = np.asarray(m.pdf(tj, gamma), dtype=float)
            if np.any(fj <= 0.0):
                raise DensityZeroError("score requested where the density vanishes")
            total = total + np.asarray(m.dpdf_dgamma(tj, gamma), dtype=float) / fj
            total = total + np.asarray(m.dcdf_dgamma(tj, gamma), dtype=float) * dlogc[..., j]
        return total
    h = max(1e-6, 1e-7 * (model.prior.hi - model.prior.lo))
    g0 = max(gamma - h, model.prior.lo)
    g1 = min(gamma + h, model.prior.hi)
    f0 = joint_density(model, g0, theta)
    f1 = joint_density(model, g1, theta)
    if np.any(f0 <= 0.0) or np.any(f1 <= 0.0):
        raise DensityZeroError("score stencil left the support")
    return (np.log(f1) - np.log(f0)) / (g1 - g0)


def expected_u_score(model, gamma, strike_vec, joint_order, corner_depth, joint):
    """E[u * score | gamma]: a gamma difference of E[u] for moving
    supports, matched-good terms unless ``joint``, otherwise a joint
    percentile-space tensor integral of ``joint_order`` nodes per
    segment, graded ``corner_depth`` deep toward the corners."""
    if not all(m.smooth_in_gamma for m in model.marginals):
        h = 1e-6 * (model.prior.hi - model.prior.lo)
        up = menu_expected_u(model, gamma + h, strike_vec, X.MARGINAL_ORDER)
        dn = menu_expected_u(model, gamma - h, strike_vec, X.MARGINAL_ORDER)
        return (up - dn) / (2.0 * h)
    if not joint:
        total = 0.0
        for j, m in enumerate(model.marginals):
            p = float(strike_vec[j])
            s = float(np.clip(m.cdf(p, gamma), 0.0, 1.0))
            if s >= 1.0 - 1e-14:
                continue
            rule = gauss_rule(X.MARGINAL_ORDER, s, 1.0)
            q = np.asarray(m.quantile(rule.nodes, gamma), dtype=float)
            sj = np.asarray(m.dpdf_dgamma(q, gamma)) / np.asarray(m.pdf(q, gamma))
            total += float(np.dot(rule.weights, (q - p) * sj))
        return total
    breaks = []
    for j, m in enumerate(model.marginals):
        s = float(np.clip(m.cdf(float(strike_vec[j]), gamma), 0.0, 1.0))
        pts = list(geometric_breaks(depth=corner_depth))
        if 0.0 < s < 1.0:
            pts.append(s)
        breaks.append(pts)
    pts, wts = tensor_rule([(0.0, 1.0)] * model.n, [joint_order] * model.n, breaks)
    theta = np.stack([np.asarray(model.marginals[j].quantile(pts[:, j], gamma), dtype=float)
                      for j in range(model.n)], axis=-1)
    u_util = np.sum(np.maximum(theta - np.asarray(strike_vec, dtype=float), 0.0), axis=-1)
    svals = np.asarray(score(model, gamma, theta), dtype=float)
    cvals = np.asarray(model.copula.density(pts, gamma), dtype=float)
    return float(np.dot(wts, u_util * svals * cvals))


def revenue_functional(model, mech, joint_order=X.JOINT_ORDER, corner_depth=X.CORNER_DEPTH,
                       joint=None, rent_order=None):
    """Surplus minus rents.  ``joint`` defaults to the solver's choice: the
    joint score for an invariant dependent smooth family, with 2 nodes per
    menu cell in gamma (``rent_order``), and the per-good score otherwise."""
    grid = mech.gamma_grid
    surplus = _panel_sum(
        model, grid, mech.strikes, X.GAMMA_CELL_ORDER,
        lambda g, p: float(model.prior.pdf(g)) * marginal_integrals(model, g, p)["e_thq"])
    if joint is None:
        joint = (all(m.smooth_in_gamma for m in model.marginals) and model.n > 1
                 and model.invariant_flag and not isinstance(model.copula, IndependenceCopula))
    if rent_order is None:
        rent_order = 2 if joint else X.GAMMA_CELL_ORDER
    rents = _panel_sum(
        model, grid, mech.strikes, rent_order,
        lambda g, p: (1.0 - float(model.prior.cdf(g)))
        * expected_u_score(model, g, p, joint_order, corner_depth, joint))
    return surplus - rents


def gain_matrix(model, mech, grid):
    """Misreport gains of every grid type against every grid type's menu."""
    menus = [mech.menu_index(g) for g in grid]
    cross = np.array([[menu_expected_u(model, gi, mech.strikes[mj]) - mech.upfront[mj]
                       for mj in menus] for gi in grid])
    return cross - np.diag(cross)[:, None]


def identity_residuals(model, seed, points):
    """The identity verb's divergence residuals, one sampled point at a time."""
    lo, hi = model.prior.lo, model.prior.hi
    draws = uniform_draws(RngStream(seed=seed, stream_id=7), points, model.n + 1)
    resids = []
    for row in draws:
        g = lo + (0.1 + 0.8 * row[0]) * (hi - lo)
        theta = sample_theta(model, g, 0.1 + 0.8 * row[1:])
        resids.append(divergence_residual(model, g, theta))
    return np.asarray(resids)


def invariance_residual(model, grid, gamma_pair):
    """The identity verb's invariance residual on the whole tensor grid at once."""
    pts = tensor_points([np.linspace(0.1, 0.9, grid)] * model.n)
    c1 = np.asarray(model.copula.density(pts, gamma_pair[0]), dtype=float)
    c2 = np.asarray(model.copula.density(pts, gamma_pair[1]), dtype=float)
    return float(np.max(np.abs(c1 - c2)))


# --- sample verb, every draw held at once ------------------------------------

def sample_table(model, gammas, count, corners, seed):
    """draws.csv's rows as one table and ks.json's statistics: one
    uniform_draws call per type, the KS distance on each whole column."""
    n, rows, stats = model.n, [], []
    for gi, g in enumerate(gammas):
        z = uniform_draws(RngStream(seed=seed, stream_id=100 + gi), count, n)
        if corners:
            z = np.vstack([tensor_points([[0.0, 1.0]] * n), z])
        theta = sample_theta(model, float(g), z)
        rows.append(np.column_stack([np.full(len(z), float(g)), z, theta]))
        for j in range(n):
            x = np.sort(theta[:, j])
            cdf = np.asarray(model.marginals[j].cdf(x, float(g)), dtype=float)
            ks = max(np.max(np.arange(1, len(x) + 1) / len(x) - cdf),
                     np.max(cdf - np.arange(0, len(x)) / len(x)))
            stats.append({"gamma": float(g), "good": j + 1, "ks": float(ks)})
    return np.vstack(rows), stats


# --- copulas with one scalar parameter -------------------------------------

Z_CLIP = 1e-15


def clayton_density(u, a, n):
    lead = math.prod(k * a + 1.0 for k in range(1, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.sum(u ** (-a), axis=-1) - n + 1.0
        return lead * np.prod(u, axis=-1) ** (-(a + 1.0)) * s ** (-(n + 1.0 / a))


def clayton_partial_log_density(u, a, n):
    s = np.sum(u ** (-a), axis=-1, keepdims=True) - n + 1.0
    return -(a + 1.0) / u + a * (n + 1.0 / a) * u ** (-(a + 1.0)) / s


def clayton_chain(z, a, n):
    zc = np.clip(z, Z_CLIP, 1.0 - Z_CLIP)
    u = np.empty_like(zc)
    u[..., 0] = zc[..., 0]
    t = u[..., 0] ** (-a)
    for k in range(1, n):
        u[..., k] = (t * (zc[..., k] ** (-a / (1.0 + a * k)) - 1.0) + 1.0) ** (-1.0 / a)
        t = t + u[..., k] ** (-a) - 1.0
    return np.where((z <= 0.0) | (z >= 1.0), np.clip(z, 0.0, 1.0), u)


def _gaussian_scores(u, r, n):
    x = ndtri(np.clip(u, Z_CLIP, 1.0 - Z_CLIP))
    srow = (x @ np.ones(n))[..., None]
    return x, (x - r / (1.0 + (n - 1) * r) * srow) / (1.0 - r)


def gaussian_density(u, r, n):
    x, rinv_x = _gaussian_scores(u, r, n)
    quad = (x * (rinv_x - x)) @ np.ones(n)
    return np.exp(-0.5 * quad) / math.sqrt((1.0 - r) ** (n - 1) * (1.0 + (n - 1) * r))


def gaussian_partial_log_density(u, r, n):
    x, rinv_x = _gaussian_scores(u, r, n)
    return -(rinv_x - x) / (np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))


def gaussian_chain(z, r, n):
    corr = np.full((n, n), r)
    np.fill_diagonal(corr, 1.0)
    x = ndtri(np.clip(z, Z_CLIP, 1.0 - Z_CLIP)) @ np.linalg.cholesky(corr).T
    return np.where((z <= 0.0) | (z >= 1.0), np.clip(z, 0.0, 1.0), ndtr(x))


def bvn_upper(dh: float, dk: float, r: float) -> float:
    """P(X > dh, Y > dk) for a standard bivariate normal with correlation r.

    Owen's (1956) T-function form of the lower orthant Phi2(h, k; r) at
    h = -dh, k = -dk: Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta,
    with a_h = (k - r h) / (h sqrt(1 - r^2)) and beta = 1/2 when hk < 0,
    or hk = 0 and h + k < 0.
    """
    h, k = -float(dh), -float(dk)
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(r) / (2.0 * math.pi)
    s = math.sqrt((1.0 - r) * (1.0 + r))

    def t(x, y):  # a zero x has slope +-inf, signed by y - r x
        return float(owens_t(x, (y - r * x) / (x * s) if x else math.copysign(math.inf, y)))

    beta = 0.5 if h * k < 0.0 or (h * k == 0.0 and h + k < 0.0) else 0.0
    bvn = 0.5 * float(ndtr(h) + ndtr(k)) - t(h, k) - t(k, h) - beta
    return max(0.0, min(1.0, bvn))


def gaussian_cdf(u, r):
    """Equicorrelated Gaussian copula cdf at one point u for r != 0, by
    conditioning on one normal score per good past two, down to the
    bivariate ``bvn_upper``.

    Conditioning on the first score s (density phi(s), s from -9 up)
    leaves the other goods equicorrelated with r / (1 + r); coordinate j's
    conditional cdf turns from 0 to 1 around s = x_j / r over a width
    sqrt(1 - r^2) / |r|, and 32-node panels split there and at 2 and 6
    widths on either side.
    """
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    if np.any(u <= 0.0):
        return 0.0
    vals = u[u < 1.0]
    if vals.size <= 1:
        return float(np.prod(vals))
    x = ndtri(vals)
    if vals.size == 2:
        return bvn_upper(-x[0], -x[1], r)
    if x[0] <= -9.0:
        return 0.0
    scale = math.sqrt(1.0 - r * r)
    breaks = (x[1:, None] + scale * np.array([-6.0, -2.0, 0.0, 2.0, 6.0])) / r
    rule = composite_rule(-9.0, float(x[0]), 32, breaks.ravel())
    cond = [gaussian_cdf(ndtr((x[1:] - r * s) / scale), r / (1.0 + r)) for s in rule.nodes]
    return float(rule.weights @ (np.exp(-0.5 * rule.nodes ** 2) / math.sqrt(2.0 * math.pi)
                                 * np.array(cond)))


# --- report writer, one value at a time ------------------------------------

def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                "%.17g" % v if isinstance(v, float) else str(v) for v in row
            ) + "\n")


def mech_table_rows(inst, mech):
    """Rows of an oracle mech_*.csv table, one (type, cell) pair at a time."""
    rows = []
    for m, g in enumerate(inst.gamma_values):
        for c in range(inst.n_cells):
            rows.append([float(g)] + [float(v) for v in inst.cell_values[c]]
                        + [float(q) for q in mech.q[m, c]]
                        + [float(mech.t2[m, c]), float(mech.t1[m])])
    return rows


# --- LP rows, one CSR matrix per row block ----------------------------------

def csr_rows(blocks, count, nvar):
    """CSR rows from (cols, data) blocks whose leading axis is the row;
    repeated columns in a row are summed."""
    if count == 0:
        return sp.csr_matrix((0, nvar))
    cols = np.concatenate([c.reshape(count, -1) for c, _ in blocks], axis=1)
    data = np.concatenate(
        [np.broadcast_to(d, c.shape).reshape(count, -1) for c, d in blocks], axis=1
    )
    rows = np.repeat(np.arange(count), cols.shape[1])
    mat = sp.csr_matrix((data.ravel(), (rows, cols.ravel())), shape=(count, nvar))
    mat.eliminate_zeros()
    return mat


def csr_stack(parts):
    """One ``rows x <= rhs`` program, as CSR, from its (CSR rows, rhs) blocks."""
    return sp.vstack([p[0] for p in parts]).tocsr(), np.concatenate([p[1] for p in parts])


# --- sequential LP by Kelley cutting planes --------------------------------

def _deviation_row(layout, m, m_rep, report):
    """U_m(menu m_rep, report map) - U_m(truth), one cell at a time."""
    inst = layout.inst
    row = np.zeros(layout.nvar)
    for c in range(inst.n_cells):
        f = inst.pmf[m, c]
        for j in range(inst.n_goods):
            row[layout.qcol[m_rep, report[c], j]] += f * inst.cell_values[c, j]
            row[layout.qcol[m, c, j]] -= f * inst.cell_values[c, j]
        row[layout.t2col[m_rep, report[c]]] -= f
        row[layout.t2col[m, c]] += f
    return row


def _adapted_cuts(inst, mech, tol):
    """(m, m_rep, report map) of every adapted best response that beats
    truth-telling by more than tol."""
    truthful = O._truthful_values(inst, mech)
    values, reports = O._seq_best_response(inst, mech)
    cuts = []
    for m in range(inst.n_types):
        for m_rep in range(inst.n_types):
            value, reported = values[m, m_rep], reports[m, m_rep]
            if value - truthful[m] > tol:
                cuts.append((m, m_rep, tuple(reported.tolist())))
    return cuts


def kelley_sequential(inst, tol=1e-10, max_rounds=400):
    """Optimal value of the sequential LP by Kelley's cutting planes.

    Only participation is imposed up front.  Each round builds a fresh
    model from participation and every violated adapted deviation found
    so far; a clean round is re-solved without the transfer caps and
    separated once more.
    """
    seq = O._seq_layout(inst)
    layout = O._Layout(inst, seq.qcol, seq.t2col, None, "sequential")
    types = np.arange(inst.n_types)
    rows = [csr_rows(layout.truth_blocks(types), len(types), layout.nvar).toarray()]
    seen = set()

    def add(cuts):
        new = [cut for cut in cuts if cut not in seen]
        if cuts and not new:
            raise ConvergenceError("a violated deviation is already in the program")
        seen.update(new)
        rows.extend(_deviation_row(layout, *cut)[None] for cut in new)
        return bool(new)

    for _ in range(max_rounds):
        a = np.vstack(rows)
        model = LpModel(layout.objective(), sp.csr_matrix(a), np.zeros(len(a)), layout.bounds())
        if add(_adapted_cuts(inst, layout.unpack(model.solve().x), tol)):
            continue
        model.set_bounds(layout.bounds(capped=False))
        sol = model.solve()
        if not add(_adapted_cuts(inst, layout.unpack(sol.x), tol)):
            return sol.value
    raise ConvergenceError(f"no clean adapted separation within {max_rounds} rounds")


def relaxed_tables(inst):
    """(masses, cell_of) of the relaxed regime's shock rectangulation, one
    shock cell at a time by depth-first recursion over the goods."""
    dims, m_count, n = inst.dims, inst.n_types, inst.n_goods
    pmfs = [inst.pmf[m].reshape(dims) for m in range(m_count)]
    cells = []

    def conditional(m, chosen):
        slab = pmfs[m][tuple(chosen)] if chosen else pmfs[m]
        axes = tuple(range(1, n - len(chosen)))
        cond = slab.sum(axis=axes) if axes else slab
        total = cond.sum()
        if total <= 0.0:
            return np.full(dims[len(chosen)], 1.0 / dims[len(chosen)])
        return cond / total

    def recurse(depth, mass, chosen):
        if depth == n:
            cells.append((mass, [np.ravel_multi_index(tuple(c), dims) for c in chosen]))
            return
        cums = []
        for m in range(m_count):
            cum = np.concatenate([[0.0], np.cumsum(conditional(m, chosen[m]))])
            cum[-1] = 1.0
            cums.append(cum)
        keep = [0.0]
        for b in np.unique(np.concatenate(cums))[1:]:
            if b - keep[-1] > O._BREAK_TOL:
                keep.append(float(b))
        keep[-1] = 1.0
        for a, b in zip(keep[:-1], keep[1:]):
            mid = 0.5 * (a + b)
            nxt = [chosen[m] + [int(np.searchsorted(cums[m], mid, side="right") - 1)]
                   for m in range(m_count)]
            recurse(depth + 1, mass * (b - a), nxt)

    recurse(0, 1.0, [[] for _ in range(m_count)])
    return np.array([c[0] for c in cells]), np.array([c[1] for c in cells], dtype=int)


def relaxed_cell_allocation(inst, masses, cell_of, qhat):
    """Mass-weighted average of the shock-cell allocation ``qhat``
    (M, Z, n) over each type's valuation cell."""
    q = np.zeros((inst.n_types, inst.n_cells, inst.n_goods))
    for m in range(inst.n_types):
        wsum = np.zeros(inst.n_cells)
        np.add.at(wsum, cell_of[:, m], masses)
        for j in range(inst.n_goods):
            acc = np.zeros(inst.n_cells)
            np.add.at(acc, cell_of[:, m], masses * qhat[m, :, j])
            q[m, :, j] = np.divide(acc, wsum, out=np.zeros_like(acc), where=wsum > 0)
    return q


def relaxed_values(inst, masses, cell_of, qhat, t1):
    """value[m, r]: type m's expected payoff from menu r in shock space,
    E_z[qhat(r, z) . v(m, z)] - t1(r), one type pair at a time."""
    value = np.empty((inst.n_types, inst.n_types))
    for m in range(inst.n_types):
        v_m = inst.cell_values[cell_of[:, m]]  # (Z, n)
        for r in range(inst.n_types):
            value[m, r] = float(np.dot(masses, np.sum(qhat[r] * v_m, axis=1))) - t1[r]
    return value


# --- exhaustive oracle with one row per joint misreport map ---------------

def cyclically_monotone(theta, alloc):
    """Feasibility of valuation truth-telling for a fixed 0/1 allocation:
    the misreport graph may not contain a negative cycle."""
    c_count = theta.shape[0]
    w = np.empty((c_count, c_count))
    for a in range(c_count):
        w[a] = (alloc[a] - alloc) @ theta[a]
    dist = w.copy()
    for k in range(c_count):
        dist = np.minimum(dist, dist[:, k][:, None] + dist[k][None, :])
    return not np.any(np.diag(dist) < -1e-12)


def implementable_tables(theta, n):
    """The 0/1 allocation tables that pass ``cyclically_monotone``, in
    bit-mask order, one table at a time."""
    c_count = theta.shape[0]
    allocs = []
    for mask in range(2 ** (c_count * n)):
        a = np.array([(mask >> k) & 1 for k in range(c_count * n)], dtype=float)
        a = a.reshape(c_count, n)
        if cyclically_monotone(theta, a):
            allocs.append(a)
    return allocs


def map_enumeration_value(instance):
    """The optimum of ``brute_force_value`` by enumeration: every
    implementable allocation profile, best-first by its participation
    bound, gets a transfer LP in free transfer columns on a fresh
    ``LpModel``, with one row for every joint misreporting map (C^C per
    ordered type pair) in place of the per-cell epigraph rows; a profile
    without feasible transfers is skipped."""
    m_count, c_count, n = instance.n_types, instance.n_cells, instance.n_goods
    theta = instance.cell_values
    allocs = implementable_tables(theta, n)

    maps = np.array(list(np.ndindex(*([c_count] * c_count))), dtype=int)  # (n_maps, C)
    t2 = np.arange(m_count * c_count).reshape(m_count, c_count)
    t1 = m_count * c_count + np.arange(m_count)
    nvar = m_count * (c_count + 1)
    obj = np.zeros(nvar)
    obj[t2] = instance.gamma_probs[:, None] * instance.pmf
    obj[t1] = instance.gamma_probs

    true_cell, reported_cell = np.nonzero(~np.eye(c_count, dtype=bool))
    cm = np.repeat(np.arange(m_count), len(true_cell))
    ca, cb = np.tile(true_cell, m_count), np.tile(reported_cell, m_count)
    pair_m, pair_rep = np.nonzero(~np.eye(m_count, dtype=bool))  # map-block order
    pm, pr = np.repeat(pair_m, len(maps)), np.repeat(pair_rep, len(maps))
    f = instance.pmf[pm]
    rows = sp.vstack([
        csr_rows([(t2[cm, ca], 1.0), (t2[cm, cb], -1.0)], len(cm), nvar),
        csr_rows([(t2, instance.pmf), (t1[:, None], 1.0)], m_count, nvar),
        csr_rows([(t2[pr[:, None], np.tile(maps, (len(pair_m), 1))], -f), (t2[pm], f),
                  (t1[pr, None], -1.0), (t1[pm, None], 1.0)], len(pm), nvar),
    ]).tocsr()
    free = np.full((nvar, 2), [-np.inf, np.inf])

    qtheta = np.einsum("kcn,an->kac", np.stack(allocs), theta)
    surplus = instance.pmf @ np.einsum("kaa->ka", qtheta).T
    cell_gain = qtheta[:, true_cell, true_cell] - qtheta[:, true_cell, reported_cell]
    map_gain = np.einsum("kpc,mc->mkp", qtheta[:, np.arange(c_count), maps], instance.pmf)

    shape = (len(allocs),) * m_count
    bound = sum(np.ix_(*(instance.gamma_probs[:, None] * surplus))).ravel()
    types = np.arange(m_count)
    best = -np.inf
    for p in np.argsort(-bound, kind="stable"):
        if bound[p] <= best:
            break
        k = np.array(np.unravel_index(p, shape))
        own = surplus[types, k]
        rhs = np.concatenate([
            cell_gain[k].ravel(), own,
            (own[pair_m, None] - map_gain[pair_m, k[pair_rep]]).ravel(),
        ])
        try:
            sol = LpModel(obj, rows, rhs, free).solve()
        except LpInfeasibleError:
            continue
        best = max(best, sol.value)
    return float(best)
