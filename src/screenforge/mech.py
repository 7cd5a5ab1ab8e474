"""Optimal option-contract menus and their audits.

The solved menu assigns every type on a grid a vector of per-good
strike prices (the zero of that good's virtual value) and an upfront
fee chosen so the lowest type keeps zero rent and local truth-telling
is exactly binding.  Between grid points the menu is piecewise
constant: a type uses the entry of the highest grid point below it.

Three ways of accounting revenue are provided; they agree (up to
quadrature) for any menu, which is the main internal consistency check:

* ``revenue_direct``        expected fee plus expected exercise payments,
* ``revenue_functional``    surplus minus score-weighted information rents,
* ``revenue_impulse_form``  per-good virtual-value integrals.

The option value sum_j max(0, theta_j - p_j) is a sum over goods, so its
expectation and that expectation's type-derivative depend on the
marginals alone, whatever the copula and whether or not it drifts with
the type.  The last two forms are therefore valid for every option menu;
invariance is what makes such a menu optimal, not what makes its revenue
accountable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .copulas import IndependenceCopula
from .errors import DensityZeroError, InvalidIntervalError, RegularityError
from .model import JointModel, hazard
from .numerics import (QuadratureRule, bisect_root, gauss_rule, geometric_breaks,
                       outer_sum)

_SCAN_POINTS = 257
_REGULARITY_POINTS = 129  # theta points per good in regularity_report
# points per block of batched marginal calls: bounds the (rows x nodes)
# arguments of one marginal call in _by_marginal and the (types x menus x
# goods x nodes) cross tensor of one ic_audit block, and so the
# temporaries each call makes
_CHUNK_POINTS = 1 << 14
# points per batch of _joint_score_rents' per-axis evaluations: bounds its
# padded (type * good) x node arrays, which hold a dozen live temporaries
_JOINT_CHUNK_POINTS = 1 << 12


# quadrature of the continuum solver, read at call time
MARGINAL_ORDER = 48    # per-good percentile integrals
GAMMA_CELL_ORDER = 8   # per menu cell in gamma
JOINT_ORDER = 10       # per axis segment of joint score integrals
CORNER_DEPTH = 4       # grading depth toward percentile corners
ROOT_TOL = 1e-12       # strike bisection


@dataclass(frozen=True)
class ThresholdMechanism:
    """Menu of option contracts on a type grid.

    ``strikes[i, j]`` is the exercise price of good j for menu entry i;
    ``upfront[i]`` the entry's fee (None until filled).  Exercise uses
    ``theta >= strike`` except when the strike sits at the top of the
    enclosing box, where the comparison is strict (never sell).
    """

    gamma_grid: np.ndarray
    strikes: np.ndarray
    upfront: Optional[np.ndarray] = None
    box_top: Optional[np.ndarray] = None
    # percentile rules of the menu cells (see _panels); copies made with
    # dataclasses.replace share them
    _rules: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        grid = np.asarray(self.gamma_grid, dtype=float)
        strikes = np.asarray(self.strikes, dtype=float)
        object.__setattr__(self, "gamma_grid", grid)
        object.__setattr__(self, "strikes", strikes)
        if self.upfront is not None:
            object.__setattr__(self, "upfront", np.asarray(self.upfront, dtype=float))
        if self.box_top is not None:
            object.__setattr__(self, "box_top", np.asarray(self.box_top, dtype=float))
        if strikes.shape[0] != grid.shape[0]:
            raise InvalidIntervalError("one strike vector per grid point required")
        if np.any(np.diff(grid) <= 0):
            raise InvalidIntervalError("gamma grid must be strictly increasing")

    @property
    def n_goods(self) -> int:
        return self.strikes.shape[1]

    def menu_index(self, gamma):
        """Entry of each type in ``gamma``: the last grid point at or below it."""
        i = np.searchsorted(self.gamma_grid, gamma, side="right") - 1
        return np.clip(i, 0, len(self.gamma_grid) - 1)

    def strikes_at(self, gamma: float) -> np.ndarray:
        return self.strikes[self.menu_index(gamma)]

    def allocation(self, gamma: float, theta) -> np.ndarray:
        """Exercise indicator per good, shape (..., n)."""
        theta = np.asarray(theta, dtype=float)
        p = self.strikes_at(gamma)
        q = theta >= p
        if self.box_top is not None:
            never = p >= self.box_top
            q = np.where(never, theta > p, q)
        return q.astype(float)


@dataclass(frozen=True)
class InterimUtilityCurve:
    """Truthful information rent per grid type; zero at the bottom type."""

    gamma_grid: np.ndarray
    values: np.ndarray


# ---------------------------------------------------------------------------
# virtual values and strike solving
# ---------------------------------------------------------------------------


def virtual_value(model: JointModel, j: int, gamma, theta_j, h=None):
    """Pointwise marginal revenue of good j: theta plus the rent distortion.

    Equals theta at the top type (zero hazard) and for type-independent
    marginals (zero impulse).  ``gamma`` broadcasts against ``theta_j``;
    an array ``j`` gives one good per row, with one type per row.  ``h``
    is the prior hazard at ``gamma``, computed here when not given.
    """
    h = hazard(model.prior, gamma) if h is None else h
    t = np.asarray(theta_j, dtype=float)
    imp = (model.marginals[j].impulse(t, gamma) if np.ndim(j) == 0
           else _by_marginal(model, j, "impulse", t, gamma))
    return t + np.asarray(imp, dtype=float) * h


def _marginal_groups(model: JointModel) -> list:
    """Goods grouped by marginal object, in order: [(marginal, [j, ...])]."""
    groups: dict = {}
    for j, m in enumerate(model.marginals):
        groups.setdefault(id(m), (m, []))[1].append(j)
    return list(groups.values())


def _by_marginal(model: JointModel, goods, method: str, x, gamma) -> np.ndarray:
    """A marginal method on ``(x, gamma)`` row by row, each row under the
    marginal of its good ``goods[r]``; one call per distinct marginal."""
    out = np.empty(np.broadcast(x, gamma).shape)
    step = max(1, _CHUNK_POINTS * len(out) // max(out.size, 1))
    groups = _marginal_groups(model)
    if len(groups) == 1:  # every good shares the marginal: row slices
        parts = [(groups[0][0], slice(r, r + step)) for r in range(0, len(out), step)]
    else:
        parts = []
        for m, js in groups:
            rows = np.flatnonzero(np.isin(goods, js))
            parts += [(m, p) for p in np.split(rows, np.arange(step, len(rows), step))]
    for m, part in parts:
        out[part] = getattr(m, method)(x[part], gamma[part])
    return out


def _sign_scan(phi: np.ndarray):
    """Per row of virtual values on an ascending theta scan: the index of
    the first nonnegative value (the row length when there is none), and
    the index of the first later value back below zero beyond roundoff
    (-1 when the row crosses zero once)."""
    k = phi.shape[-1]
    scale = np.maximum(1.0, np.max(np.abs(phi), axis=-1, keepdims=True))
    nonneg = phi >= 0.0
    first = np.where(nonneg.any(axis=-1), np.argmax(nonneg, axis=-1), k)
    back = (np.arange(k) >= first[..., None]) & (phi < -1e-9 * scale)
    return first, np.where(back.any(axis=-1), np.argmax(back, axis=-1), -1)


def _strike_path(model: JointModel, j: int, gammas: np.ndarray) -> np.ndarray:
    """Zero of good j's virtual value for every type: one scan over a
    (types x _SCAN_POINTS) array, then one batched bisection."""
    lo, hi = model.marginals[j].support
    thetas = np.linspace(lo, hi, _SCAN_POINTS)
    first, back = _sign_scan(virtual_value(model, j, gammas[:, None], thetas))
    if np.any(back >= 0):
        i = int(np.argmax(back >= 0))
        raise RegularityError(
            f"virtual value of good {j} re-crosses zero at gamma={gammas[i]}, "
            f"theta={thetas[back[i]]}"
        )
    out = np.where(first == 0, lo, hi)
    cut = (first > 0) & (first < _SCAN_POINTS)
    if np.any(cut):
        g = gammas[cut]
        h = hazard(model.prior, g)  # once for the whole bisection
        out[cut] = bisect_root(lambda t: virtual_value(model, j, g, t, h),
                               thetas[first[cut] - 1], thetas[first[cut]], tol=ROOT_TOL)
    return out


def solve_thresholds(model: JointModel, gamma_grid) -> ThresholdMechanism:
    """Strike prices per grid type: the zero of each good's virtual value
    over the enclosing box, clipped to a box endpoint when the sign is
    constant.  Fees are left unfilled.  Goods sharing one marginal share
    one strike path, solved once.

    A strike may lie below the type's own moving support (``cl_uniform``
    posts 1-gamma, below gamma once gamma > 1/2) and is deliberately not
    truncated to it: the truncated path max(gamma, 1-gamma) trades in the
    same cases on the support but admits a profitable two-cycle of type
    misreports that no fee schedule removes, so it fails incentive
    compatibility.
    """
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    strikes = np.empty((len(gamma_grid), model.n))
    for _, goods in _marginal_groups(model):
        strikes[:, goods] = _strike_path(model, goods[0], gamma_grid)[:, None]
    return ThresholdMechanism(
        gamma_grid=gamma_grid,
        strikes=strikes,
        box_top=np.array([m.support[1] for m in model.marginals]),
    )


# ---------------------------------------------------------------------------
# quadrature backbone
# ---------------------------------------------------------------------------


class PercentileRule:
    """Percentile-space Gauss rules for a batch of (type, strike vector) pairs.

    Entry (k, j) covers good j for type ``gamma[k]`` facing the strike
    ``strikes[k, j]``: an ``order``-point rule on [F^j(strike | gamma), 1],
    the percentiles where the option is exercised.  Entries whose strike
    percentile reaches 1 carry no rule; the others are the rows of the
    weights ``w`` and quantile nodes ``q`` (rows x order).  Each marginal
    is evaluated once for all goods sharing it.  Fees, rent slopes, the
    three revenues, the audit's cross rents and the surplus scale are all
    weighted sums over these rows.
    """

    def __init__(self, model: JointModel, gamma, strikes, order: int):
        self.model = model
        self.gamma = np.asarray(gamma, dtype=float)
        self.strikes = np.asarray(strikes, dtype=float)
        s = np.empty_like(self.strikes)
        for m, goods in _marginal_groups(model):
            s[:, goods] = np.clip(m.cdf(self.strikes[:, goods], self.gamma[:, None]), 0.0, 1.0)
        self.s = s
        self.rows, self.goods = np.nonzero(s < 1.0 - 1e-14)
        rule = gauss_rule(order, s[self.rows, self.goods], 1.0)
        self.w = rule.weights
        self.p = self.strikes[self.rows, self.goods][:, None]
        self.q = self.per_row("quantile", rule.nodes)

    def per_row(self, method: str, x=None) -> np.ndarray:
        """A marginal method on the rows (``x`` defaults to ``q``)."""
        x = self.q if x is None else x
        return _by_marginal(self.model, self.goods, method, x, self.gamma[self.rows, None])

    def integrate(self, values) -> np.ndarray:
        """Per type: the sum over goods of the rule applied to ``values``
        (one row per live entry)."""
        out = np.zeros(self.s.shape)
        out[self.rows, self.goods] = np.sum(self.w * values, axis=-1)
        return out.sum(axis=1)

    @cached_property
    def impulse(self) -> np.ndarray:
        """The impulse F^j_gamma / f^j at the quantile nodes."""
        return self.per_row("impulse")

    @property
    def expected_u(self) -> np.ndarray:
        """Expected option value E[u | gamma] of the menu."""
        return self.integrate(self.q - self.p)


def _panels(model: JointModel, mech: ThresholdMechanism, order: int):
    """Gauss nodes and dgamma weights, ``order`` per menu cell, and the
    percentile rule of each node facing its cell's strikes.

    Kept on the mechanism, so the fee, rent and revenue accountings of
    one menu build each node set's rule once.
    """
    grid = mech.gamma_grid
    key = (id(model), order, grid.tobytes(), mech.strikes.tobytes())
    hit = mech._rules.get(key)
    if hit is None or hit[0] is not model:
        cells = gauss_rule(order, grid[:-1], grid[1:])
        nodes = cells.nodes.ravel()
        strikes = mech.strikes[np.repeat(np.arange(len(grid) - 1), order)]
        rule = PercentileRule(model, nodes, strikes, MARGINAL_ORDER)
        mech._rules[key] = hit = (model, (nodes, cells.weights.ravel(), rule))
    return hit[1]


def _rent_curve(model: JointModel, mech: ThresholdMechanism) -> np.ndarray:
    """Cumulative envelope integral of the rent slope along the grid."""
    _, weights, rule = _panels(model, mech, GAMMA_CELL_ORDER)
    # rent slope: -E[sum_j q_j F^j_gamma / f^j | gamma]
    inc = -np.sum((weights * rule.integrate(rule.impulse)).reshape(-1, GAMMA_CELL_ORDER), axis=1)
    return np.concatenate([[0.0], np.cumsum(inc)])


def upfront_t1(model: JointModel, mech: ThresholdMechanism) -> ThresholdMechanism:
    """Fees leaving the bottom type zero rent and local truth-telling
    binding: expected option value minus the accumulated rent."""
    e_u = PercentileRule(model, mech.gamma_grid, mech.strikes, MARGINAL_ORDER).expected_u
    return replace(mech, upfront=e_u - _rent_curve(model, mech))


# ---------------------------------------------------------------------------
# revenue forms
# ---------------------------------------------------------------------------


def revenue_direct(model: JointModel, mech: ThresholdMechanism) -> float:
    """Expected fee plus expected exercise payments."""
    if mech.upfront is None:
        raise InvalidIntervalError("fill upfront fees before computing revenue")
    gmass = np.diff(np.asarray(model.prior.cdf(mech.gamma_grid), dtype=float))
    nodes, weights, rule = _panels(model, mech, GAMMA_CELL_ORDER)
    dens = np.asarray(model.prior.pdf(nodes), dtype=float)
    e_t2 = np.sum(rule.strikes * (1.0 - rule.s), axis=1)
    return float(np.dot(mech.upfront[:-1], gmass) + np.sum(weights * dens * e_t2))


def revenue_impulse_form(model: JointModel, mech: ThresholdMechanism) -> float:
    """Per-good integral of allocated virtual values; valid for every
    copula, drifting or not, since an option menu's rents depend on the
    marginals only."""
    nodes, weights, rule = _panels(model, mech, GAMMA_CELL_ORDER)
    dens = np.asarray(model.prior.pdf(nodes), dtype=float)
    hz = np.asarray(hazard(model.prior, nodes), dtype=float)[rule.rows, None]
    return float(np.sum(weights * dens * rule.integrate(rule.q + rule.impulse * hz)))


def uses_joint_score(model: JointModel) -> bool:
    """Whether ``revenue_functional`` integrates each type's rents on a
    joint grid of about 130**goods points: smooth marginals and an
    invariant dependent copula (one good always has the independence
    copula).  Each type's grid sum is two kernels built from the copula's
    ``axis_terms`` and ``link`` (see ``_joint_score_rents``); at most 3
    grid-shaped arrays of 130**goods * 8 bytes are alive at once.  A
    drifting copula takes the per-good score."""
    return (all(m.smooth_in_gamma for m in model.marginals) and model.invariant_flag
            and not isinstance(model.copula, IndependenceCopula))


def _score_rents(model: JointModel, rule: PercentileRule) -> np.ndarray:
    """E[u * score | gamma] per type of ``rule``, for its strikes.

    Pointwise score integrals need the density to be differentiable in
    gamma everywhere; moving supports carry derivative mass on their
    edges, so such families are handled by differentiating the expected
    option value in gamma instead (the option value depends on the
    marginals only, making this exact for every copula).
    """
    if not all(m.smooth_in_gamma for m in model.marginals):
        h = 1e-6 * (model.prior.hi - model.prior.lo)
        up, dn = (PercentileRule(model, rule.gamma + d, rule.strikes, MARGINAL_ORDER)
                  for d in (h, -h))
        return (up.expected_u - dn.expected_u) / (2.0 * h)
    if not uses_joint_score(model):
        # E[u_j * score] = int u_j d_gamma f_j under any copula, since a
        # copula's marginals are uniform: only the marginal scores remain
        ratio = rule.per_row("dpdf_dgamma") / rule.per_row("pdf")
        return rule.integrate((rule.q - rule.p) * ratio)
    return _joint_score_rents(model, rule)


def _joint_axes(s) -> list:
    """One rule on [0, 1] per strike percentile in ``s``: ``JOINT_ORDER``
    nodes per panel, graded ``CORNER_DEPTH`` deep toward both ends and
    split at the percentile.  These are ``composite_rule``'s rules with
    the percentile among the breaks, bit for bit; the graded panels are
    built once, and only the panel holding the percentile is split."""
    edges = np.concatenate([[0.0], geometric_breaks(depth=CORNER_DEPTH), [1.0]])
    graded = gauss_rule(JOINT_ORDER, edges[:-1], edges[1:])
    p = np.minimum(np.searchsorted(edges, s, side="right") - 1, len(edges) - 2)
    cut = np.flatnonzero((edges[p] < s) & (s < edges[p + 1]))
    lo, hi = np.stack([edges[p[cut]], s[cut]], -1), np.stack([s[cut], edges[p[cut] + 1]], -1)
    halves = gauss_rule(JOINT_ORDER, lo, hi)
    keep = hi - lo >= 1e-15  # composite_rule drops a sliver panel
    axes = [QuadratureRule(graded.nodes.ravel(), graded.weights.ravel())] * len(s)
    for m, i in enumerate(cut):
        nodes, weights = (np.concatenate([g[:p[i]], h[m][keep[m]], g[p[i] + 1:]]).ravel()
                          for g, h in ((graded.nodes, halves.nodes),
                                       (graded.weights, halves.weights)))
        axes[i] = QuadratureRule(nodes, weights)
    return axes


def _joint_score_rents(model: JointModel, rule: PercentileRule) -> np.ndarray:
    """Joint percentile-space score integrals, one tensor grid per type,
    graded toward the cube corners and split at the strike percentiles.

    With ln c = sum_j lambda_j + g(t) on t = sum_j tau_j (the copula's
    ``axis_terms`` and ``link``), the joint score is sum_j beta_j + g'(t)
    sum_j y_j, where beta_j = d_gamma ln f_j + v_j lambda'_j, y_j = v_j
    tau'_j and v_j = dcdf_dgamma.  So each type's grid sum of weights
    times option value times c times score is two kernels, c and c g'(t),
    each contracted with n**2 rank-one per-axis terms (see
    ``_rank_one_sums``).  The marginal and per-axis copula terms are
    evaluated on padded (type * good) x node arrays, one type per row and
    zero weight on the padding.
    """
    n, cop = model.n, model.copula
    rents = np.empty(len(rule.gamma))
    # types per batch of axis evaluations; an axis has at most (breaks + 2) * order nodes
    step = max(1, _JOINT_CHUNK_POINTS // (n * (len(geometric_breaks(depth=CORNER_DEPTH)) + 2)
                                          * JOINT_ORDER))
    for start in range(0, len(rule.gamma), step):
        ks = slice(start, start + step)
        axes = _joint_axes(rule.s[ks].ravel())  # type k, good j in row (k - start) * n + j
        # the padding sits at an interior percentile, where every term is finite
        nodes = np.full((len(axes), max(a.nodes.size for a in axes)), 0.5)
        weights = np.zeros_like(nodes)
        for r, a in enumerate(axes):
            nodes[r, :a.nodes.size], weights[r, :a.nodes.size] = a.nodes, a.weights
        goods = np.tile(np.arange(n), len(axes) // n)
        gam = np.repeat(rule.gamma[ks], n)[:, None]
        theta = _by_marginal(model, goods, "quantile", nodes, gam)
        f, df, dcdf = (_by_marginal(model, goods, name, theta, gam)
                       for name in ("pdf", "dpdf_dgamma", "dcdf_dgamma"))
        if np.any(f <= 0.0):
            raise DensityZeroError("score requested where the density vanishes")
        util = np.maximum(theta - rule.strikes[ks].reshape(-1, 1), 0.0)
        lam, dlam, tau, dtau = cop.axis_terms(nodes, gam)
        # per row, the weights times 1, the option value, z and both, with
        # z = beta for the kernel c and z = y for the kernel c g'(t)
        cols = [np.stack([weights, weights * util, weights * z, weights * util * z], axis=-1)
                for z in (df / f + dcdf * dlam, dcdf * dtau)]
        for i, g in enumerate(rule.gamma[ks]):
            rows = slice(i * n, (i + 1) * n)
            rents[start + i] = _kernel_sums(cop, g, lam[rows], tau[rows],
                                            cols[0][rows], cols[1][rows])
    return rents


def _kernel_sums(cop, gamma: float, lam, tau, beta_cols, y_cols) -> float:
    """One type's grid sum: the kernels c = exp(sum_j lambda_j + g(t)) and
    c g'(t) on t = sum_j tau_j, with one exp of the whole exponent, each
    contracted with its per-axis columns.  Both grid-shaped kernels die on
    return, before the next type builds its own."""
    c, dc = cop.link(outer_sum(tau), gamma)
    n = len(lam)
    for j, lj in enumerate(lam):
        c += lj.reshape((-1,) + (1,) * (n - 1 - j))
    np.exp(c, out=c)
    dc *= c
    return _rank_one_sums(c, beta_cols) + _rank_one_sums(dc, y_cols)


def _rank_one_sums(kernel: np.ndarray, cols: np.ndarray) -> float:
    """Sum over axis pairs (i, j) of ``kernel`` contracted with a rank-one
    term: column 1 of ``cols`` on axis i, column 2 on axis j (column 3
    when i = j) and column 0 on every other axis.  ``cols`` holds one
    (nodes x 4) array per axis.  One matmul contracts the last axis and
    einsum the others, giving all 4**n contractions at once."""
    n, width = cols.shape[:2]
    part = kernel.reshape(-1, width) @ cols[-1]
    for c in cols[-2::-1]:  # the flat index takes axis j's column as digit n - 1 - j in base 4
        rest = part.reshape(-1, width, part.shape[-1])
        part = np.einsum("amc,md->adc", rest, c).reshape(len(rest), -1)
    terms = [4 ** (n - 1 - i) + 2 * 4 ** (n - 1 - j) for i in range(n) for j in range(n)]
    return float(part.ravel()[terms].sum())


def revenue_functional(model: JointModel, mech: ThresholdMechanism) -> float:
    """Allocated surplus minus score-weighted, hazard-weighted rents."""
    nodes, weights, rule = _panels(model, mech, GAMMA_CELL_ORDER)
    dens = np.asarray(model.prior.pdf(nodes), dtype=float)
    surplus = np.sum(weights * dens * rule.integrate(rule.q))
    # The rent term is smooth on each menu cell, so the expensive joint
    # score integral gets a low-order panel per cell.
    rent_order = 2 if uses_joint_score(model) else GAMMA_CELL_ORDER
    nodes, weights, rule = _panels(model, mech, rent_order)
    surv = 1.0 - np.asarray(model.prior.cdf(nodes), dtype=float)
    return float(surplus - np.sum(weights * surv * _score_rents(model, rule)))


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    max_gain: float
    gain_argmax: tuple
    ir_slack: float
    curve: InterimUtilityCurve
    gain_matrix: np.ndarray


def ic_audit(model: JointModel, mech: ThresholdMechanism, gamma_grid=None) -> AuditReport:
    """Cross-report rents over all grid pairs.

    For type gamma_i facing menu entry j the rent is the expected option
    value of entry j under F(.|gamma_i) minus entry j's fee; the report
    carries the worst gain over truthful play and the IR slack.
    """
    if mech.upfront is None:
        raise InvalidIntervalError("fill upfront fees before auditing")
    grid = mech.gamma_grid if gamma_grid is None else np.asarray(gamma_grid, dtype=float)
    menus = mech.menu_index(grid)
    m_count = len(grid)
    # one (types x menus x goods x nodes) tensor, built a block of types at a time
    step = max(1, _CHUNK_POINTS // (m_count * model.n * MARGINAL_ORDER))
    e_u = [PercentileRule(model, np.repeat(grid[i:i + step], m_count),
                          mech.strikes[np.tile(menus, len(grid[i:i + step]))],
                          MARGINAL_ORDER).expected_u for i in range(0, m_count, step)]
    # cross[i, j] = rent of type i reporting entry j
    cross = np.concatenate(e_u).reshape(m_count, m_count) - mech.upfront[menus]
    truthful = np.diag(cross).copy()
    gains = cross - truthful[:, None]
    worst = int(np.argmax(gains))
    i_star, j_star = np.unravel_index(worst, gains.shape)
    return AuditReport(
        max_gain=float(gains[i_star, j_star]),
        gain_argmax=(float(grid[i_star]), float(grid[j_star])),
        ir_slack=float(np.min(truthful)),
        curve=InterimUtilityCurve(np.asarray(grid, dtype=float).copy(), truthful),
        gain_matrix=gains,
    )


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    worst_f_gamma: float | None
    worst_gamma_monotonicity: float | None
    crossing_violations: list
    locations: dict


def regularity_report(model: JointModel, gamma_grid=None) -> RegularityReport:
    """Grid checks of the standing assumptions: nonpositive cdf response
    to the type, virtual values rising in the type, single crossing.

    A non-finite cdf response or virtual value fails the report; the
    first one found is located under ``non_finite_f_gamma`` or
    ``non_finite_virtual_value``, and the worst values are taken over
    the finite entries (None when there are none)."""
    if gamma_grid is None:
        gamma_grid = np.linspace(model.prior.lo, model.prior.hi, 21)
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    shape = (model.n, len(gamma_grid), _REGULARITY_POINTS)
    thetas = np.linspace(*np.array(model.box).T, _REGULARITY_POINTS, axis=-1)
    # one row per (good, type), each on its good's theta points
    goods, types = np.divmod(np.arange(shape[0] * shape[1]), shape[1])
    x, gam = thetas[goods], gamma_grid[types, None]
    fg = _by_marginal(model, goods, "dcdf_dgamma", x, gam).reshape(shape)
    phi = virtual_value(model, goods, gam, x).reshape(shape)

    def at(j, i, k):
        return {"good": int(j), "gamma": float(gamma_grid[i]), "theta": float(thetas[j, k])}

    # every location is the first one found in (good, type, theta) order
    locations = {}
    for name, values in (("f_gamma", fg), ("virtual_value", phi)):
        bad = ~np.isfinite(values)
        if bad.any():
            locations[f"non_finite_{name}"] = at(*np.unravel_index(np.argmax(bad), bad.shape))
    fg = np.where(np.isfinite(fg), fg, -np.inf)
    worst_fg = float(np.max(fg))
    if np.isfinite(worst_fg):
        locations["f_gamma"] = at(*np.unravel_index(np.argmax(fg), fg.shape))
    _, back = _sign_scan(phi)
    crossings = [{**at(j, i, back[j, i]), "value": float(phi[j, i, back[j, i]])}
                 for j, i in zip(*np.nonzero(back >= 0))]
    rise = np.diff(phi, axis=1)
    rise = np.where(np.isfinite(rise), rise, np.inf)
    worst_mono = float(np.min(rise, initial=np.inf))
    if np.isfinite(worst_mono):
        j, i, k = np.unravel_index(np.argmin(rise), rise.shape)
        locations["gamma_monotonicity"] = at(j, i + 1, k)
    tol = 1e-9
    ok = (worst_fg <= tol and worst_mono >= -tol and not crossings
          and not any(key.startswith("non_finite") for key in locations))
    return RegularityReport(
        ok=ok,
        worst_f_gamma=float(worst_fg) if np.isfinite(worst_fg) else None,
        worst_gamma_monotonicity=float(worst_mono) if np.isfinite(worst_mono) else None,
        crossing_violations=crossings,
        locations=locations,
    )


def max_cycle_gain(q_fn, cycles) -> float:
    """Worst cycle sum sum_i q(theta_i) . (theta_{i+1} - theta_i).

    ``cycles`` is a (count, length, n) array of valuation cycles and
    ``q_fn`` maps an array of valuations (..., n) to allocations (..., n).
    Nonpositive (up to roundoff) exactly when the allocation is the
    gradient of a convex option value.
    """
    cyc = np.asarray(cycles, dtype=float)
    steps = np.roll(cyc, -1, axis=1) - cyc
    sums = np.sum(np.asarray(q_fn(cyc), dtype=float) * steps, axis=(1, 2))
    return float(np.max(sums, initial=-np.inf))


def cyclic_monotonicity_check(mech: ThresholdMechanism, gamma: float, cycles) -> float:
    """Worst cycle sum of the menu's allocation at one type."""
    return max_cycle_gain(lambda th: mech.allocation(gamma, th), cycles)


def random_cycles(box, count: int, length: int, stream) -> np.ndarray:
    """Deterministic batch of valuation cycles inside the box, shape
    (count, length, n)."""
    from .numerics import uniform_draws

    n = len(box)
    draws = uniform_draws(stream, count * length, n)
    los = np.array([b[0] for b in box])
    his = np.array([b[1] for b in box])
    return (los + draws * (his - los)).reshape(count, length, n)
