"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see them inline).  Tolerances
are pinned here and nowhere else.
"""

import filecmp
import json
import os

import numpy as np
import pytest

from screenforge import mech as X
from screenforge import model as M
from screenforge import oracle as O
from screenforge.cli import main as cli_main
from screenforge.numerics import RngStream, uniform_draws

GRID = np.linspace(0.0, 1.0, 101)


def _report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def _build(cfg):
    return M.build_model(cfg)


def _solved(model, grid=GRID):
    return X.upfront_t1(model, X.solve_thresholds(model, grid))


@pytest.fixture(scope="module")
def cl1_pack():
    mdl = _build({"name": "cl_uniform", "goods": 1})
    return mdl, _solved(mdl)


INVARIANT_FAMILIES = [
    {"name": "cl_uniform", "goods": 1},
    {"name": "cl_uniform", "goods": 2},
    {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}},
    {"name": "cl_uniform", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}},
    {"name": "uniform_iid", "goods": 2},
    {"name": "logistic_shift", "goods": 2},
    {"name": "logistic_shift", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}},
    {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}},
]


def test_criterion_1_closed_form_threshold(cl1_pack):
    """Strikes against the closed form 1-gamma, the zero of the virtual value
    theta - (1-gamma) over the box [0, 2].

    On the type's own support [gamma, gamma+1] this trades exactly when
    theta >= max(gamma, 1-gamma), but the strike itself is not truncated to
    the support: the truncated path max(gamma, 1-gamma) admits a profitable
    two-cycle of misreports (types 0.6 and 0.9 gain 0.045 whatever the
    fees; see tests/test_mech.py::test_support_truncated_path_not_implementable).
    """
    _, mech = cl1_pack
    err = float(np.max(np.abs(mech.strikes[:, 0] - (1.0 - GRID))))
    ok = _report("1a closed-form threshold", err <= 1e-8, f"max |p - (1-g)| = {err:.3g}")
    assert ok, "strikes must be the untruncated virtual-value root 1-g"


def test_criterion_1_revenue(cl1_pack):
    mdl, mech = cl1_pack
    rev = X.revenue_direct(mdl, mech)
    ok = _report("1b one-good revenue 7/12", abs(rev - 7.0 / 12.0) <= 1e-4,
                 f"revenue = {rev:.8f}")
    assert ok


def test_criterion_2_revenue_triple_identity():
    worst = 0.0
    for cfg in (
        {"name": "cl_uniform", "goods": 1},
        {"name": "cl_uniform", "goods": 2},
        {"name": "logistic_shift", "goods": 2},
    ):
        mdl = _build(cfg)
        mech = _solved(mdl)
        direct = X.revenue_direct(mdl, mech)
        functional = X.revenue_functional(mdl, mech)
        impulse = X.revenue_impulse_form(mdl, mech)
        worst = max(
            worst,
            abs(functional - direct) / abs(direct),
            abs(impulse - direct) / abs(direct),
        )
    ok = _report("2 revenue triple identity", worst <= 1e-5, f"worst rel dev {worst:.2e}")
    assert ok


def test_criterion_3_dependency_irrelevance():
    strike_dev = 0.0
    rev_dev = 0.0
    for base in ({"name": "cl_uniform", "goods": 2}, {"name": "logistic_shift", "goods": 2}):
        packs = []
        for cop in (None, {"name": "clayton", "alpha": 2.0}, {"name": "gaussian", "rho": 0.5}):
            cfg = dict(base)
            if cop:
                cfg["copula"] = cop
            mdl = _build(cfg)
            mech = _solved(mdl)
            packs.append((
                mech.strikes,
                np.array([
                    X.revenue_direct(mdl, mech),
                    X.revenue_functional(mdl, mech),
                    X.revenue_impulse_form(mdl, mech),
                ]),
            ))
        for strikes, revs in packs[1:]:
            strike_dev = max(strike_dev, float(np.max(np.abs(strikes - packs[0][0]))))
            rev_dev = max(rev_dev, float(np.max(np.abs(revs - packs[0][1]) / np.abs(packs[0][1]))))
    ok = _report(
        "3 dependency irrelevance",
        strike_dev <= 1e-8 and rev_dev <= 2e-4,
        f"strike dev {strike_dev:.2e}, revenue rel dev {rev_dev:.2e}",
    )
    assert ok


def test_criterion_4_continuity_equation():
    worst_div = 0.0
    worst_bnd = 0.0
    for cfg in INVARIANT_FAMILIES:
        mdl = _build(cfg)
        draws = uniform_draws(RngStream(seed=404), 100, mdl.n + 1)
        for row in draws:
            g = 0.1 + 0.8 * row[0]
            theta = M.sample_theta(mdl, g, 0.1 + 0.8 * row[1:])
            worst_div = max(worst_div, M.divergence_residual(mdl, g, theta))
        for g in np.linspace(0.05, 0.95, 7):
            worst_bnd = max(worst_bnd, M.boundary_residual(mdl, float(g)))
    drifting = _build({
        "name": "cl_uniform", "goods": 2,
        "copula": {"name": "gaussian", "rho": 0.2, "rho_slope": 0.6},
    })
    inv_res = M.invariance_residual(drifting, 9, (0.0, 1.0))
    ok = _report(
        "4 continuity equation",
        worst_div <= 1e-4 and worst_bnd <= 1e-6 and inv_res > 1e-2,
        f"divergence {worst_div:.2e}, boundary {worst_bnd:.2e}, drift detected {inv_res:.3f}",
    )
    assert ok


def test_criterion_5_ic_ir_audit(cl1_pack):
    mdl, mech = cl1_pack
    audit = X.ic_audit(mdl, mech, np.linspace(0, 1, 51))
    surplus = 1.0  # E[theta] for the one-good family
    cycles = X.random_cycles(mdl.box, 1000, 5, RngStream(seed=505, stream_id=2))
    cyc = max(
        X.cyclic_monotonicity_check(mech, g, cycles) for g in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    checks = (
        audit.max_gain <= 1e-6 * surplus
        and abs(audit.curve.values[0]) <= 1e-8
        and bool(np.all(np.diff(audit.curve.values) >= -1e-8))
        and cyc <= 1e-10
    )
    ok = _report(
        "5 IC/IR audit",
        checks,
        f"max gain {audit.max_gain:.2e}, U(lo) {audit.curve.values[0]:.1e}, "
        f"cycle max {cyc:.1e}",
    )
    assert ok


@pytest.fixture(scope="module")
def ladder_rows():
    mdl = _build({"name": "cl_uniform", "goods": 2})
    return [O.regime_row(O.discretize(mdl, 3, k)) for k in (2, 3, 4)]


def test_criterion_6_regime_orderings(ladder_rows):
    instances = []
    mdl2 = _build({"name": "cl_uniform", "goods": 2})
    iid = _build({"name": "uniform_iid", "goods": 2})
    instances.append(O.discretize(iid, 2, [2, 2]))
    instances.append(O.discretize(mdl2, 2, [3, 2]))
    instances.append(
        O.DiscreteInstance([0.0, 1.0], [0.5, 0.5], [np.array([1.0, 2.0])],
                           np.array([[0.75, 0.25], [0.25, 0.75]]))
    )
    worst = -np.inf
    for inst in instances:
        sim = O.solve_simultaneous(inst).value
        seq = O.solve_sequential(inst).value
        rel = O.solve_relaxed(inst).value
        sep = O.separate_selling_value(inst)
        worst = max(worst, sim - rel, sep - sim, sim - seq)
    for row in ladder_rows:
        worst = max(
            worst,
            row.v_simultaneous - row.v_relaxed,
            row.v_separate - row.v_simultaneous,
            row.v_simultaneous - row.v_sequential,
        )
    ok = _report("6 oracle orderings", worst <= 1e-9, f"worst ordering defect {worst:.2e}")
    assert ok


def test_criterion_7_refinement_trends(ladder_rows):
    gaps = {
        "separate": [r.gap_separate for r in ladder_rows],
        "sequential": [r.gap_sequential for r in ladder_rows],
        "relaxed": [r.gap_relaxed for r in ladder_rows],
    }
    monotone = {
        k: all(v[i + 1] <= v[i] + 1e-9 for i in range(len(v) - 1)) for k, v in gaps.items()
    }
    detail = "; ".join(
        f"{k}: {' -> '.join(f'{g:.4f}' for g in v)} {'ok' if monotone[k] else 'NOT monotone'}"
        for k, v in gaps.items()
    )
    ok = _report("7 refinement trends", all(monotone.values()), detail)
    assert ok, (
        "relaxed-regime gap is not monotone over the 2/3/4 ladder; with a fixed "
        "type count it need not vanish, and no source promises monotonicity along "
        "any ladder (it also rises on the nested joint ladder 3 -> 6); see README"
    )


def test_criterion_8_exhaustive_agreement():
    worst = 0.0
    hand = O.DiscreteInstance(
        [0.0, 1.0], [0.5, 0.5], [np.array([1.0, 2.0])],
        np.array([[0.75, 0.25], [0.25, 0.75]]),
    )
    insts = [
        hand,
        O.discretize(_build({"name": "cl_uniform", "goods": 1}), 2, 4),
        O.discretize(_build({"name": "cl_uniform", "goods": 2}), 2, [2, 2]),
    ]
    for inst in insts:
        lp = O.solve_simultaneous(inst).value
        bf = O.brute_force_value(inst)
        worst = max(worst, abs(lp - bf))
    ok = _report("8 exhaustive-search agreement", worst <= 1e-8, f"worst |LP - brute| {worst:.2e}")
    assert ok


def test_criterion_9_degenerate_full_extraction():
    worst = 0.0
    single = O.discretize(_build({"name": "cl_uniform", "goods": 2}), 1, [2, 2])
    identical = O.DiscreteInstance(
        [0.2, 0.8], [0.5, 0.5], [np.array([1.0, 2.0])],
        np.array([[0.5, 0.5], [0.5, 0.5]]),
    )
    for inst in (single, identical):
        surplus = O.full_surplus(inst)
        for value in (
            O.solve_simultaneous(inst).value,
            O.solve_sequential(inst).value,
            O.solve_relaxed(inst).value,
            O.separate_selling_value(inst),
        ):
            worst = max(worst, abs(value - surplus))
    ok = _report("9 degenerate full extraction", worst <= 1e-9, f"worst |V - surplus| {worst:.2e}")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "family": {"name": "cl_uniform", "goods": 1},
        "seed": 1001,
        "solve": {"gamma_grid": 101},
        "audit": {"gamma_grid": 41, "cycles": 100},
        "identity": {"points": 20},
        "oracle": {"gamma_cells": 2, "theta_cells": [2, 3]},
        "sample": {"count": 2000, "gammas": [0.3], "corners": True},
    }))
    failures = []
    for command in ("solve", "audit", "identity", "oracle", "sample"):
        out_a = str(tmp_path / f"a_{command}")
        out_b = str(tmp_path / f"b_{command}")
        code_a = cli_main([command, "--config", str(cfg_path), "--out", out_a, "--quiet"])
        code_b = cli_main([command, "--config", str(cfg_path), "--out", out_b, "--quiet"])
        if code_a != 0 or code_b != 0:
            failures.append(f"{command} exit {code_a}/{code_b}")
            continue
        names = sorted(os.listdir(out_a))
        _, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
        if mismatch or errors or names != sorted(os.listdir(out_b)):
            failures.append(f"{command} differs: {mismatch or errors}")
    ok = _report("10 CLI determinism", not failures, "; ".join(failures) or "5 commands byte-identical")
    assert ok
