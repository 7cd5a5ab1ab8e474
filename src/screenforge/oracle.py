"""Exact finite-grid mechanism design used to verify the continuum solver.

Three contracting regimes are solved as linear programs on a common
discretized instance:

* simultaneous  - all valuations drawn and reported at once; cell
  truth-telling rows plus one type-misreport row per ordered type pair
  cover every joint misreporting map;
* sequential    - goods sold one period at a time; allocations are
  measurable in the revealed history and deviations are adapted
  strategies, written out as the backward induction's epigraph rows;
* relaxed       - the orthogonalized shock z is publicly observed and
  only the type is screened; a pure LP on a common z rectangulation
  whose pushforward reproduces each type's cell masses exactly.

``separate_selling_value`` prices each good on its own marginal
instance; the joint optimum can only improve on it, and under invariant
coupling the improvement vanishes with grid refinement.

Every regime's optimum is re-checked by ``evaluate_mechanism``, whose
best responses share no rows with the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConvergenceError,
    DegenerateCellError,
    InvalidIntervalError,
    LpSolverError,
    ShapeMismatchError,
)
from .lp import LpModel, lp_solve
from .model import JointModel
from .numerics import tensor_points

DEFAULT_TOL = 1e-10
CAP_FACTOR = 10.0
_BREAK_TOL = 1e-13  # cdf breakpoints closer than this share one shock cell


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteInstance:
    """Finite type support with per-type joint cell masses."""

    gamma_values: np.ndarray
    gamma_probs: np.ndarray
    theta_grids: tuple
    pmf: np.ndarray  # (M, C), C-order over the per-good cell indices
    lineage: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "gamma_values", np.asarray(self.gamma_values, dtype=float))
        object.__setattr__(self, "gamma_probs", np.asarray(self.gamma_probs, dtype=float))
        object.__setattr__(self, "theta_grids", tuple(np.asarray(t, dtype=float) for t in self.theta_grids))
        object.__setattr__(self, "pmf", np.asarray(self.pmf, dtype=float))
        if self.pmf.shape != (len(self.gamma_values), self.n_cells):
            raise ShapeMismatchError("pmf shape does not match supports")
        if np.any(self.pmf < -1e-12) or np.any(self.gamma_probs < -1e-12):
            raise DegenerateCellError("negative probability mass")
        for m in range(len(self.gamma_values)):
            if abs(self.pmf[m].sum() - 1.0) > 1e-9:
                raise DegenerateCellError(f"pmf of type {m} does not sum to one")
        if abs(self.gamma_probs.sum() - 1.0) > 1e-9:
            raise DegenerateCellError("type probabilities do not sum to one")

    @property
    def n_goods(self) -> int:
        return len(self.theta_grids)

    @property
    def dims(self) -> tuple:
        return tuple(len(t) for t in self.theta_grids)

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_types(self) -> int:
        return len(self.gamma_values)

    @cached_property
    def cell_values(self) -> np.ndarray:
        """(C, n) read-only matrix of cell representative valuations."""
        values = tensor_points(self.theta_grids)
        values.flags.writeable = False
        return values

    def to_jsonable(self) -> dict:
        return {
            "gamma_values": self.gamma_values.tolist(),
            "gamma_probs": self.gamma_probs.tolist(),
            "theta_grids": [t.tolist() for t in self.theta_grids],
            "pmf": self.pmf.tolist(),
            "lineage": self.lineage,
        }


def discretize(model: JointModel, gamma_cells: int, theta_cells) -> DiscreteInstance:
    """Cell-midpoint discretization of a continuum model.

    Type masses come from prior cdf differences; joint cell masses from
    inclusion-exclusion differences of the joint cdf at cell corners.
    """
    if gamma_cells < 1:
        raise InvalidIntervalError("need at least one type cell")
    theta_cells = [int(k) for k in (theta_cells if np.ndim(theta_cells) else [theta_cells] * model.n)]
    if len(theta_cells) != model.n or any(k < 1 for k in theta_cells):
        raise InvalidIntervalError("bad per-good cell counts")

    gedges = np.linspace(model.prior.lo, model.prior.hi, gamma_cells + 1)
    gvals = 0.5 * (gedges[:-1] + gedges[1:])
    gprobs = np.diff(np.asarray(model.prior.cdf(gedges), dtype=float))
    gprobs = np.maximum(gprobs, 0.0)
    gprobs = gprobs / gprobs.sum()

    edges = []
    reps = []
    for j, m in enumerate(model.marginals):
        lo, hi = m.support
        e = np.linspace(lo, hi, theta_cells[j] + 1)
        edges.append(e)
        reps.append(0.5 * (e[:-1] + e[1:]))

    dims = tuple(theta_cells)
    pmf = np.empty((gamma_cells, int(np.prod(dims))))
    corners = tensor_points(edges)
    for mi, g in enumerate(gvals):
        u = np.stack(
            [np.asarray(model.marginals[j].cdf(corners[:, j], g), dtype=float)
             for j in range(model.n)],
            axis=-1,
        )
        mass = np.asarray(model.copula.cdf(u, g), dtype=float).reshape([len(e) for e in edges])
        for ax in range(model.n):
            mass = np.diff(mass, axis=ax)
        mass = mass.reshape(-1)
        if np.any(mass < -1e-12):
            raise DegenerateCellError(
                f"negative cell mass {mass.min()} at type {g}; cdf is not a distribution"
            )
        pmf[mi] = mass / mass.sum()

    return DiscreteInstance(
        gamma_values=gvals,
        gamma_probs=gprobs,
        theta_grids=tuple(reps),
        pmf=pmf,
        lineage={
            "family": dict(model.config),
            "gamma_cells": gamma_cells,
            "theta_cells": list(theta_cells),
        },
    )


def marginal_instance(instance: DiscreteInstance, j: int) -> DiscreteInstance:
    """One-good instance carrying good j's marginal cell masses."""
    dims = instance.dims
    pmf = instance.pmf.reshape((instance.n_types,) + dims)
    axes = tuple(1 + ax for ax in range(instance.n_goods) if ax != j)
    marg = pmf.sum(axis=axes) if axes else pmf
    return DiscreteInstance(
        gamma_values=instance.gamma_values,
        gamma_probs=instance.gamma_probs,
        theta_grids=(instance.theta_grids[j],),
        pmf=marg.reshape(instance.n_types, dims[j]),
        lineage={**instance.lineage, "marginal_of": j},
    )


def full_surplus(instance: DiscreteInstance) -> float:
    """Expected efficient surplus: every positive-value good sold."""
    pos = np.maximum(instance.cell_values, 0.0).sum(axis=1)
    return float(np.dot(instance.gamma_probs, instance.pmf @ pos))


# ---------------------------------------------------------------------------
# mechanisms and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteMechanism:
    q: np.ndarray    # (M, C, n)
    t1: np.ndarray   # (M,)
    t2: np.ndarray   # (M, C)
    regime: str
    aux: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SolveReport:
    """One regime solve by ``_solve_exact``: ``value`` is the objective
    of the written cap-free vertex, polished or pre-polish, and
    ``iterations`` is always 1.  ``rows``, ``cols`` and ``nnz`` size the
    program."""

    value: float
    mechanism: DiscreteMechanism
    iterations: int
    rows: int
    cols: int
    nnz: int


@dataclass(frozen=True)
class EvalReport:
    revenue: float
    ic2_violation: float
    ir_violation: float
    ic1_violation: float


def _truthful_values(instance: DiscreteInstance, mech: DiscreteMechanism) -> np.ndarray:
    vals = np.einsum("mcn,cn->mc", mech.q, instance.cell_values) - mech.t2
    return np.einsum("mc,mc->m", instance.pmf, vals) - mech.t1


def mechanism_revenue(instance: DiscreteInstance, mech: DiscreteMechanism) -> float:
    per_type = mech.t1 + np.einsum("mc,mc->m", instance.pmf, mech.t2)
    return float(np.dot(instance.gamma_probs, per_type))


# ---------------------------------------------------------------------------
# LP rows and re-check shared by every regime
# ---------------------------------------------------------------------------


def _block_rows(blocks, count: int):
    """(row, col, data) triplets of ``count`` rows from (cols, data)
    blocks whose leading axis is the row; a row may repeat a column."""
    if count == 0:  # a single type has no type-misreport rows
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    cols = np.concatenate([c.reshape(count, -1) for c, _ in blocks], axis=1)
    data = np.concatenate(
        [np.broadcast_to(d, c.shape).reshape(count, -1) for c, d in blocks], axis=1
    )
    return np.repeat(np.arange(count), cols.shape[1]), cols.ravel(), data.ravel()


class _Layout:
    """Column layout of a regime LP: allocations, transfers, then values.

    ``qcol[m, c, j]`` is the column of good j's allocation for type m at
    cell c (cells share a column where the allocation may only depend on
    a prefix of the history), ``t2col[m, c]`` the settling transfer and
    ``t1col[m]`` the upfront fee, each if the regime has one.
    ``wcol[j][m, r, a, b]`` are free columns bounding the stage-j value
    of an adapted deviation (see ``_seq_stage_rows``); only the
    sequential regime has them.

    The cells are the instance's valuation cells unless ``pmf`` (M, C)
    and ``theta`` (M, C, n) give others: type m's cell masses and its
    valuation of each cell.  Transfers are capped by the instance's full
    surplus either way.
    """

    def __init__(self, instance: DiscreteInstance, qcol, t2col, t1col, regime: str, wcol=(),
                 pmf=None, theta=None):
        self.inst = instance
        self.qcol, self.t2col, self.t1col, self.wcol = qcol, t2col, t1col, wcol
        self.regime = regime
        self.pmf = instance.pmf if pmf is None else pmf
        self.theta = np.broadcast_to(instance.cell_values if theta is None else theta, qcol.shape)
        self.nq = int(qcol.max()) + 1
        self.nt = sum(col.size for col in (t2col, t1col) if col is not None)
        self.nvar = 1 + max(int(w.max()) for w in wcol) if wcol else self.nq + self.nt
        self.cap = CAP_FACTOR * max(1.0, abs(full_surplus(instance)))

    def objective(self) -> np.ndarray:
        c = np.zeros(self.nvar)
        if self.t2col is not None:
            c[self.t2col] = self.inst.gamma_probs[:, None] * self.pmf
        if self.t1col is not None:
            c[self.t1col] = self.inst.gamma_probs
        return c

    def bounds(self, capped: bool = True):
        t = (-self.cap, self.cap) if capped else (None, None)
        free = self.nvar - self.nq - self.nt
        return [(0.0, 1.0)] * self.nq + [t] * self.nt + [(None, None)] * free

    def _interim(self, m, menu):
        """(cols, data) blocks of interim values, one row per entry k:
        type m[k] takes menu[k] and reports its cells truthfully."""
        f = self.pmf[m]
        blocks = [(self.qcol[menu], f[:, :, None] * self.theta[m])]
        if self.t2col is not None:
            blocks.append((self.t2col[menu], -f))
        if self.t1col is not None:
            blocks.append((self.t1col[menu][:, None], -1.0))
        return blocks

    def truth_blocks(self, m):
        """Blocks of -U_m(truth), one row per entry of m."""
        return [(c, -d) for c, d in self._interim(m, m)]

    def participation_rows(self):
        """-U_m(truth) <= 0 for every type m."""
        m = np.arange(self.inst.n_types)
        return _block_rows(self.truth_blocks(m), len(m)), np.zeros(len(m))

    def unpack(self, x: np.ndarray) -> DiscreteMechanism:
        t1 = np.zeros(self.inst.n_types) if self.t1col is None else x[self.t1col]
        return DiscreteMechanism(q=x[self.qcol], t1=t1, t2=x[self.t2col], regime=self.regime)


def _stack(parts, nvar: int):
    """One ``rows x <= rhs`` program, as CSC, from its (triplets, rhs) blocks.

    Repeated columns of a row are summed in CSR, in the order scipy's row
    sort leaves them.  A direct COO -> CSC build sums them in another
    order, and the sequential regime, whose rows repeat shared allocation
    columns, then solves to another vertex.
    """
    start = np.cumsum([0] + [len(b) for _, b in parts])
    row = np.concatenate([t[0] + s for (t, _), s in zip(parts, start)])
    col = np.concatenate([t[1] for t, _ in parts])
    data = np.concatenate([t[2] for t, _ in parts])
    mat = sp.csr_matrix((data, (row, col)), shape=(start[-1], nvar))
    mat.eliminate_zeros()
    return mat.tocsc(), np.concatenate([b for _, b in parts])


def _recheck(instance: DiscreteInstance, mech: DiscreteMechanism):
    """Re-audit an LP optimum with ``evaluate_mechanism``, whose best
    responses share no rows with the program; a violation above
    ``DEFAULT_TOL`` is an error."""
    ev = evaluate_mechanism(instance, mech)
    worst = max(ev.ic1_violation, ev.ic2_violation, ev.ir_violation)
    if worst > DEFAULT_TOL:
        raise ConvergenceError(
            f"{mech.regime} LP optimum fails its independent re-check: "
            f"violation {worst:.3g} > {DEFAULT_TOL:g}"
        )


def _solve_exact(layout: _Layout, parts) -> SolveReport:
    """Solve a regime's complete LP on one HiGHS model, then re-check it.

    ``parts`` are the (triplets, rhs) blocks of ``rows x <= rhs``.  The first
    solve caps the transfers; the cap-free re-solve starts from its basis
    and can end at another vertex of the optimal face.  HiGHS re-runs
    from a fresh factor of that vertex's basis (``LpModel.polish``), and
    the polished optimum is re-checked (``_recheck``).  If it fails (the
    refactored vertex can break a row in unscaled terms), the pre-polish
    cap-free vertex is re-checked and kept instead.
    """
    rows, rhs = _stack(parts, layout.nvar)
    model = LpModel(layout.objective(), rows, rhs, bounds=layout.bounds())
    model.solve()
    model.set_bounds(layout.bounds(capped=False))
    vertex = model.solve()
    sol = model.polish()
    mech = layout.unpack(sol.x)
    try:
        _recheck(layout.inst, mech)
    except ConvergenceError:
        sol, mech = vertex, layout.unpack(vertex.x)
        _recheck(layout.inst, mech)
    return SolveReport(
        value=sol.value,
        mechanism=mech,
        iterations=1,
        rows=rows.shape[0],
        cols=rows.shape[1],
        nnz=rows.nnz,
    )


# ---------------------------------------------------------------------------
# simultaneous regime
# ---------------------------------------------------------------------------


def _sim_layout(instance: DiscreteInstance) -> _Layout:
    m_count, c_count, n = instance.n_types, instance.n_cells, instance.n_goods
    nq = m_count * c_count * n
    return _Layout(
        instance,
        qcol=np.arange(nq).reshape(m_count, c_count, n),
        t2col=nq + np.arange(m_count * c_count).reshape(m_count, c_count),
        t1col=nq + m_count * c_count + np.arange(m_count),
        regime="simultaneous",
    )


def _sim_cell_rows(layout: _Layout):
    """Truth-telling in valuations: at true cell a, reporting any cell
    b != a on the own menu must not beat truth."""
    m_count, c_count = layout.inst.n_types, layout.inst.n_cells
    a, b = np.nonzero(~np.eye(c_count, dtype=bool))
    m = np.repeat(np.arange(m_count), len(a))
    a, b = np.tile(a, m_count), np.tile(b, m_count)
    theta_a = layout.theta[m, a]
    blocks = [
        (layout.qcol[m, b], theta_a),
        (layout.qcol[m, a], -theta_a),
        (layout.t2col[m, b], -1.0),
        (layout.t2col[m, a], 1.0),
    ]
    return _block_rows(blocks, len(m)), np.zeros(len(m))


def _sim_type_rows(layout: _Layout):
    """Type misreports with truthful cell reports: U_m(menu r) <= U_m(truth)
    for every r != m.  The cell rows make every menu truthful in
    valuations, and on such a menu the identity map is a best misreport,
    so these rows complete the joint misreport constraints."""
    m, r = np.nonzero(~np.eye(layout.inst.n_types, dtype=bool))
    blocks = layout._interim(m, r) + layout.truth_blocks(m)
    return _block_rows(blocks, len(m)), np.zeros(len(m))


def solve_simultaneous(instance: DiscreteInstance) -> SolveReport:
    """Exact LP of the one-shot screening problem: cell rows, participation
    and type-misreport rows, re-checked against every joint misreport map."""
    layout = _sim_layout(instance)
    return _solve_exact(
        layout, [_sim_cell_rows(layout), layout.participation_rows(), _sim_type_rows(layout)]
    )


# ---------------------------------------------------------------------------
# sequential regime
# ---------------------------------------------------------------------------


def _seq_layout(instance: DiscreteInstance) -> _Layout:
    """History-measurable allocations: q^i lives on the revealed prefix
    (gamma, theta^1..theta^i); transfers settle at the final history,
    which nests any per-period payment schedule.

    ``wcol[j][m, r, a, b]`` is the value column of stage j for true type m
    on menu r at true prefix a = (t_0..t_j) and reported prefix
    b = (r_0..r_{j-1}), both flat in C order.  The last stage's value
    depends on t_j and b alone, so its columns are shared across m and
    across t_0..t_{j-1}.
    """
    dims = instance.dims
    m_count, c_count, n = instance.n_types, instance.n_cells, instance.n_goods
    cell_multi = np.unravel_index(np.arange(c_count), dims)
    qcol = np.empty((m_count, c_count, n), dtype=int)
    off = 0
    for i in range(n):
        prefix = np.ravel_multi_index(cell_multi[: i + 1], dims[: i + 1])
        size = int(np.prod(dims[: i + 1]))
        qcol[:, :, i] = off + np.arange(m_count)[:, None] * size + prefix[None, :]
        off += m_count * size
    t2col = off + np.arange(m_count * c_count).reshape(m_count, c_count)
    off += m_count * c_count
    wcol = []
    for j in range(n):
        shape = (m_count, m_count, int(np.prod(dims[: j + 1])), int(np.prod(dims[:j])))
        if j < n - 1:
            wcol.append(off + np.arange(np.prod(shape)).reshape(shape))
            off += wcol[-1].size
        else:
            shared = off + np.arange(m_count * dims[j] * shape[3]).reshape(1, m_count, dims[j], -1)
            wcol.append(np.broadcast_to(shared[:, :, np.arange(shape[2]) % dims[j]], shape))
    return _Layout(instance, qcol=qcol, t2col=t2col, t1col=None, regime="sequential", wcol=wcol)


def _seq_stage_rows(layout: _Layout, j: int):
    """Epigraph rows of stage j of every adapted deviation.

    For true type m on menu r, W_j(t_0..t_j, r_0..r_{j-1}) is at least
    theta_j(t_j) q^r_j(r_0..r_j) plus the continuation: -t2^r(r) at the
    last stage, else the expected W_{j+1} under type m's law of t_{j+1}
    given t_0..t_j, with the zero-mass rule of ``_seq_best_response``.
    One row per (m, r, true prefix, reported r_0..r_j); the shared last
    stage needs one m and one t_0..t_{j-1}.
    """
    inst = layout.inst
    dims, n, m_count = inst.dims, inst.n_goods, inst.n_types
    last = j == n - 1
    size = int(np.prod(dims[: j + 1]))
    m, r, a, b = tensor_points([
        np.arange(1 if last else m_count), np.arange(m_count),
        np.arange(dims[j] if last else size), np.arange(size),
    ]).T
    blocks = [
        (layout.wcol[j][m, r, a, b // dims[j]], -1.0),
        (layout.qcol[r, b * int(np.prod(dims[j + 1:])), j], inst.theta_grids[j][a % dims[j]]),
    ]
    if last:
        blocks.append((layout.t2col[r, b], -1.0))
    else:
        pmf = inst.pmf.reshape((m_count,) + dims)
        p_joint = pmf.sum(axis=tuple(range(j + 3, n + 1))).reshape(m_count, size, -1)
        p_pre = p_joint.sum(axis=2, keepdims=True)
        live = (p_joint > 0.0) & (p_pre > 0.0)
        w = np.divide(p_joint, p_pre, out=np.zeros_like(p_joint), where=live)
        nxt = a[:, None] * dims[j + 1] + np.arange(dims[j + 1])
        blocks.append((layout.wcol[j + 1][m[:, None], r[:, None], nxt, b[:, None]], w[m, a]))
    return _block_rows(blocks, len(m)), np.zeros(len(m))


def _seq_top_rows(layout: _Layout):
    """E[W_0 | m] <= U_m(truth) for every true type m and menu r."""
    m_count, d0 = layout.inst.n_types, layout.inst.dims[0]
    m, r = np.divmod(np.arange(m_count * m_count), m_count)
    p0 = layout.inst.pmf.reshape(m_count, d0, -1).sum(axis=2)
    blocks = [(layout.wcol[0][m[:, None], r[:, None], np.arange(d0), 0], p0[m])]
    blocks += layout.truth_blocks(m)
    return _block_rows(blocks, len(m)), np.zeros(len(m))


def _seq_best_response(instance: DiscreteInstance, mech: DiscreteMechanism, m: int, m_rep: int):
    """Adapted best response of true type m on menu m_rep, by backward
    induction over (true history, reported history) states.

    Returns (value, reported_cells) with reported_cells[c] the induced
    full report for each true cell c.
    """
    dims = instance.dims
    n = instance.n_goods
    pmf = instance.pmf[m].reshape(dims)
    q = mech.q[m_rep].reshape(dims + (n,))
    # value tensors carry axes (true prefix..., reported prefix...);
    # terminal level: V_n(t_full, r_full) = -t2(r_full)
    v = np.broadcast_to(-mech.t2[m_rep].reshape(dims), dims + dims)
    policies = [None] * n
    for i in range(n - 1, -1, -1):
        pre = dims[:i]
        # good i's allocation on the reported prefix (r_0..r_i); the
        # table is read at the last cell of each prefix
        q_i = q[(slice(None),) * (i + 1) + (-1,) * (n - i - 1) + (i,)]
        gain = instance.theta_grids[i].reshape((1,) * i + (-1,) + (1,) * (i + 1)) * q_i
        cand = gain + v  # axes (t_0..t_i, r_0..r_i)
        pol = np.argmax(cand, axis=-1)
        best = np.take_along_axis(cand, pol[..., None], axis=-1)[..., 0]
        # conditional probability of t_i given the true prefix
        p_joint = pmf.sum(axis=tuple(range(i + 1, n)))
        p_pre = pmf.sum(axis=tuple(range(i, n)))[..., None] if i else np.ones(1)
        live = (p_joint > 0.0) & (p_pre > 0.0)
        w = np.divide(p_joint, p_pre, out=np.zeros(dims[: i + 1]), where=live)
        shape = dims[: i + 1] + (1,) * i
        policies[i] = np.where(live.reshape(shape), pol, 0)
        v = np.sum(w.reshape(shape) * best, axis=i)  # axes (t_0..t_{i-1}, r_0..r_{i-1})
    dev_value = float(v)

    # roll the policy forward to a full reported history per true cell
    true_hist = np.unravel_index(np.arange(instance.n_cells), dims)
    rep_hist: tuple = ()
    for i in range(n):
        rep_hist += (policies[i][true_hist[: i + 1] + rep_hist],)
    return dev_value, np.ravel_multi_index(rep_hist, dims)


def solve_sequential(instance: DiscreteInstance) -> SolveReport:
    """Exact LP of period-by-period selling.

    Adapted truth-telling is written out in its one-shot-deviation form:
    free value columns follow the backward induction of every (true
    type, menu) pair stage by stage, and the expected first-stage value
    may not beat truth-telling.  The optimum is re-checked against
    ``_seq_best_response``.
    """
    layout = _seq_layout(instance)
    stages = [_seq_stage_rows(layout, j) for j in range(instance.n_goods)]
    return _solve_exact(layout, stages + [_seq_top_rows(layout), layout.participation_rows()])


# ---------------------------------------------------------------------------
# relaxed regime (observed orthogonalized shock)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelaxedTables:
    """Common rectangulation of the shock cube.

    Each z cell maps, for every type, to exactly one valuation cell, and
    the pushforward of the cell masses reproduces each type's pmf
    exactly; the quantile chain is cut at every type's conditional cdf
    breakpoints to make that literal.
    """

    masses: np.ndarray       # (Z,)
    cell_of: np.ndarray      # (Z, M) flat valuation cell per type
    values: np.ndarray       # (Z, M, n) valuation vectors per type


def build_relaxed_tables(instance: DiscreteInstance) -> RelaxedTables:
    dims = instance.dims
    m_count, n = instance.n_types, instance.n_goods
    pmf = instance.pmf.reshape((m_count,) + dims)
    types = np.arange(m_count)
    # one z cell per row: its mass and each type's valuation cell prefix,
    # flat in C order over the goods cut so far
    masses = np.ones(1)
    cell_of = np.zeros((1, m_count), dtype=int)
    for j, d in enumerate(dims):
        # each type's law of good j's cell given its prefix; uniform on a
        # zero-mass prefix
        joint = pmf.sum(axis=tuple(range(j + 2, n + 1))).reshape(m_count, -1, d)
        cond = joint[types, cell_of]  # (Z, M, d)
        total = cond.sum(axis=-1, keepdims=True)
        cond = np.divide(cond, total, out=np.full(cond.shape, 1.0 / d), where=total > 0.0)
        cums = np.cumsum(np.concatenate([np.zeros_like(total), cond], axis=-1), axis=-1)
        cums[..., -1] = 1.0
        # cut each z cell where a type's breakpoint lies more than
        # _BREAK_TOL past the one before it; each cell's last cut is 1
        ends = np.sort(cums.reshape(len(masses), -1), axis=-1)
        z, k = np.nonzero(np.diff(ends, axis=-1) > _BREAK_TOL)
        first = np.insert(z[1:] != z[:-1], 0, True)
        hi = np.where(np.append(first[1:], True), 1.0, ends[z, k + 1])
        lo = np.where(first, 0.0, np.roll(hi, 1))
        # a type's valuation cell: its interior breakpoints at or below the midpoint
        idx = np.sum(cums[z, :, 1:-1] <= 0.5 * (lo + hi)[:, None, None], axis=-1)
        masses, cell_of = masses[z] * (hi - lo), cell_of[z] * d + idx
    values = instance.cell_values[cell_of]  # (Z, M, n)

    # the pushforward must reproduce each type's pmf
    agg = np.zeros((m_count, instance.n_cells))
    np.add.at(agg, (types[:, None], cell_of.T), masses)
    if np.max(np.abs(agg - instance.pmf)) > 1e-9:
        raise DegenerateCellError("z rectangulation does not reproduce the pmf")
    return RelaxedTables(masses=masses, cell_of=cell_of, values=values)


class _RelaxedLayout(_Layout):
    """The relaxed regime's columns: an allocation per type and shock
    cell, then an upfront fee per type.  ``unpack`` writes each valuation
    cell's allocation as the mean over its shock cells, and keeps the
    shock-space table in ``aux`` for the re-check."""

    def __init__(self, instance: DiscreteInstance):
        self.tables = tables = build_relaxed_tables(instance)
        m_count, z_count = instance.n_types, len(tables.masses)
        nq = m_count * z_count * instance.n_goods
        super().__init__(
            instance, qcol=np.arange(nq).reshape(m_count, z_count, -1), t2col=None,
            t1col=nq + np.arange(m_count), regime="relaxed",
            pmf=np.broadcast_to(tables.masses, (m_count, z_count)),
            theta=tables.values.transpose(1, 0, 2),
        )

    def unpack(self, x: np.ndarray) -> DiscreteMechanism:
        inst, tables, qhat = self.inst, self.tables, x[self.qcol]
        # mass-weighted sums over each valuation cell, run in z order
        at = (np.arange(inst.n_types)[:, None], tables.cell_of.T)
        wsum = np.zeros((inst.n_types, inst.n_cells, 1))
        np.add.at(wsum, at, tables.masses[:, None])
        acc = np.zeros((inst.n_types, inst.n_cells, inst.n_goods))
        np.add.at(acc, at, tables.masses[:, None] * qhat)
        return DiscreteMechanism(
            q=np.divide(acc, wsum, out=np.zeros_like(acc), where=wsum > 0),
            t1=x[self.t1col], t2=np.zeros(wsum.shape[:2]), regime=self.regime,
            aux={"qhat": qhat, "masses": tables.masses, "cell_of": tables.cell_of},
        )


def solve_relaxed(instance: DiscreteInstance) -> SolveReport:
    """One-transfer screening with the shock publicly observed.

    The program is the simultaneous regime's participation and
    type-misreport rows on the shock cells, where each type values a cell
    by its own valuation; there is no settling transfer, so no cell rows.
    It is solved like every regime LP (``_solve_exact``), and its optimum
    is re-checked in shock space.
    """
    layout = _RelaxedLayout(instance)
    return _solve_exact(layout, [layout.participation_rows(), _sim_type_rows(layout)])


# ---------------------------------------------------------------------------
# separate selling, evaluation, projection, brute force
# ---------------------------------------------------------------------------


def separate_selling_value(instance: DiscreteInstance) -> float:
    """Sum of one-good optima on the marginal instances; a feasible
    (separable) mechanism of the joint problem, hence a lower bound.
    Goods whose marginals have the same bytes share one solve."""
    total, values = 0.0, {}
    for j in range(instance.n_goods):
        marg = marginal_instance(instance, j)
        key = (marg.theta_grids[0].tobytes(), marg.pmf.tobytes())
        if key not in values:
            values[key] = solve_simultaneous(marg).value
        total += values[key]
    return total


def evaluate_mechanism(instance: DiscreteInstance, mech: DiscreteMechanism) -> EvalReport:
    """Recompute revenue and worst constraint violations for a mechanism.

    The deviation sets match the regime: all misreport maps for the
    one-shot program, adapted strategies for the sequential one, and
    type misreports on the shock rectangulation for the relaxed one.
    """
    if mech.q.shape != (instance.n_types, instance.n_cells, instance.n_goods):
        raise ShapeMismatchError("allocation table does not match the instance")
    revenue = mechanism_revenue(instance, mech)
    if mech.regime == "relaxed":
        return _evaluate_relaxed(instance, mech, revenue)
    truthful = _truthful_values(instance, mech)
    ir_violation = float(np.maximum(-truthful, 0.0).max())
    theta = instance.cell_values
    ic1 = ic2 = -np.inf
    if mech.regime == "sequential":
        # valuation reports are adapted too (good i's report cannot depend
        # on later goods' values): IC2 is the adapted best response on the
        # type's own menu, IC1 the one over all menus
        for m in range(instance.n_types):
            gains = [_seq_best_response(instance, mech, m, m_rep)[0] - float(truthful[m])
                     for m_rep in range(instance.n_types)]
            ic1, ic2 = max(ic1, *gains), max(ic2, gains[m])
    else:
        # w[r, c, d]: value on menu r of true cell c reporting cell d; the
        # best joint misreport map reports the argmax cell at every c
        w = np.einsum("cn,rdn->rcd", theta, mech.q) - mech.t2[:, None, :]
        ic2 = float(np.max(w - np.diagonal(w, axis1=1, axis2=2)[:, :, None]))
        ic1 = float(np.max(instance.pmf @ w.max(axis=2).T - mech.t1 - truthful[:, None]))
    return EvalReport(
        revenue=revenue,
        ic2_violation=max(ic2, 0.0),
        ir_violation=ir_violation,
        ic1_violation=max(ic1, 0.0),
    )


def _evaluate_relaxed(instance: DiscreteInstance, mech: DiscreteMechanism, revenue: float) -> EvalReport:
    if "qhat" not in mech.aux:
        raise ShapeMismatchError("relaxed mechanism is missing its shock-space table")
    qhat = np.asarray(mech.aux["qhat"], dtype=float)
    masses = np.asarray(mech.aux["masses"], dtype=float)
    cell_of = np.asarray(mech.aux["cell_of"], dtype=int)
    # value[m, m_rep] = E_z[qhat(m_rep, z) . v(m, z)] - that(m_rep)
    value = np.einsum("z,rzn,zmn->mr", masses, qhat, instance.cell_values[cell_of]) - mech.t1
    truthful = np.diag(value)
    ic1 = float(np.max(value - truthful[:, None]))
    ir = float(np.maximum(-truthful, 0.0).max())
    return EvalReport(revenue=revenue, ic2_violation=0.0, ir_violation=ir, ic1_violation=max(ic1, 0.0))


def brute_force_value(instance: DiscreteInstance) -> float:
    """Best mechanism with 0/1 allocations: one mixed-integer program,
    solved by HiGHS's branch and bound (Land & Doig 1960) to a zero gap.

    Binary q[m, c, j] and free t2, t1 meet the cell misreport and
    participation rows and, for each ordered type pair p = (m, r), every
    joint misreport map, not enumerated: v[p, c] >= theta_c.q_r(d) - t2_r(d)
    for every reported cell d, and sum_c f_m(c) v[p, c] - t1_r <= U_m(truth)
    with f_m >= 0.  The rows use the function's own columns, not
    ``_Layout``: this is the reference the regime LPs are checked against.
    The zero mechanism is feasible, so a verdict other than optimal is an
    error, and so is a q more than 1e-9 from 0 or 1 (:class:`LpSolverError`).
    """
    m_count, c_count, n = instance.n_types, instance.n_cells, instance.n_goods
    theta, pmf = instance.cell_values, instance.pmf
    pair_m, pair_rep = np.nonzero(~np.eye(m_count, dtype=bool))
    nq, nt = m_count * c_count * n, m_count * (c_count + 1)
    q = np.arange(nq).reshape(m_count, c_count, n)
    t2 = nq + np.arange(m_count * c_count).reshape(m_count, c_count)
    t1 = nq + m_count * c_count + np.arange(m_count)
    v = nq + nt + np.arange(len(pair_m) * c_count).reshape(-1, c_count)
    obj = np.zeros(nq + nt + v.size)
    obj[t2], obj[t1] = instance.gamma_probs[:, None] * pmf, instance.gamma_probs

    def minus_truth(m):  # -U_m(truth), one row per entry of m
        return [(q[m], -pmf[m][:, :, None] * theta), (t2[m], pmf[m]), (t1[m][:, None], 1.0)]

    cm, ca, cb = np.nonzero(np.tile(~np.eye(c_count, dtype=bool), (m_count, 1, 1)))
    p, c, d = (i.ravel() for i in np.indices((len(pair_m), c_count, c_count)))
    # all rows <= 0; f is clipped at 0, since a negative weight frees its v
    blocks = [
        ([(q[cm, cb], theta[ca]), (q[cm, ca], -theta[ca]), (t2[cm, cb], -1.0), (t2[cm, ca], 1.0)],
         len(cm)),
        (minus_truth(np.arange(m_count)), m_count),
        ([(q[pair_rep[p], d], theta[c]), (t2[pair_rep[p], d], -1.0), (v[p, c], -1.0)], len(p)),
        ([(v, np.maximum(pmf[pair_m], 0.0)), (t1[pair_rep, None], -1.0)] + minus_truth(pair_m),
         len(pair_m)),
    ]
    rows, rhs = _stack([(_block_rows(blk, k), np.zeros(k)) for blk, k in blocks], len(obj))
    bounds = [(0.0, 1.0)] * nq + [(None, None)] * (len(obj) - nq)
    sol = lp_solve(obj, a_ub=rows, b_ub=rhs, bounds=bounds, integer=q.ravel())
    if (off := np.abs(sol.x[:nq] - np.rint(sol.x[:nq])).max()) > 1e-9:
        raise LpSolverError(f"allocation {off:.3g} away from 0 or 1")
    return sol.value


# ---------------------------------------------------------------------------
# regime comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeRow:
    """The four regime values of one instance.

    ``reports`` maps "simultaneous", "sequential" and "relaxed" to their
    solve reports, in solve order; ``surplus`` is the full surplus.
    """

    reports: dict
    v_separate: float
    surplus: float

    @property
    def v_simultaneous(self) -> float:
        return self.reports["simultaneous"].value

    @property
    def v_sequential(self) -> float:
        return self.reports["sequential"].value

    @property
    def v_relaxed(self) -> float:
        return self.reports["relaxed"].value

    @property
    def gap_separate(self) -> float:
        return self.v_simultaneous - self.v_separate

    @property
    def gap_sequential(self) -> float:
        return self.v_sequential - self.v_simultaneous

    @property
    def gap_relaxed(self) -> float:
        return self.v_relaxed - self.v_simultaneous


def regime_row(instance: DiscreteInstance) -> RegimeRow:
    """Solve the simultaneous, sequential and relaxed LPs and the
    separate-selling value of one instance, in that order."""
    reports = {
        "simultaneous": solve_simultaneous(instance),
        "sequential": solve_sequential(instance),
        "relaxed": solve_relaxed(instance),
    }
    return RegimeRow(reports, separate_selling_value(instance), full_surplus(instance))
