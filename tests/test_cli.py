import filecmp
import json
import os
import tempfile
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from screenforge import cli as climod
from screenforge import model as modelmod
from screenforge.cli import main, read_mechanism_csv
from screenforge.errors import ConfigError


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "family": {"name": "cl_uniform", "goods": 1},
        "seed": 4242,
        "solve": {"gamma_grid": 101},
        "audit": {"gamma_grid": 41, "cycles": 200, "cycle_length": 5},
        "identity": {"points": 25},
        "oracle": {"gamma_cells": 3, "theta_cells": [2, 3]},
        "sample": {"count": 4000, "gammas": [0.3], "corners": True},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestSolveCommand:
    def test_writes_mechanism_and_revenue(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert run("solve", "--config", cfg, "--out", out, "--quiet") == 0
        mech = read_mechanism_csv(os.path.join(out, "mechanism.csv"), 1)
        grid = mech.gamma_grid
        np.testing.assert_allclose(mech.strikes[:, 0], 1.0 - grid, atol=1e-8)
        rev = json.loads((tmp_path / "out" / "revenue.json").read_text())
        assert abs(rev["revenue_direct"] - 7.0 / 12.0) < 1e-4
        assert rev["residual_impulse_rel"] < 1e-5
        assert "config_hash" in rev and rev["version"]

    def test_narrow_logistic_solves(self, tmp_path):
        # at scale 0.05 the density on the upper part of the box is 1e-44 to
        # 1e-35, which the product s * (1 - s) would round to 0 (exit 4)
        cfg = write_config(tmp_path, family={"name": "logistic_shift", "goods": 1, "scale": 0.05})
        out = tmp_path / "out"
        assert run("solve", "--config", cfg, "--out", str(out), "--quiet") == 0
        assert json.loads((out / "regularity.json").read_text())["ok"]
        rev = json.loads((out / "revenue.json").read_text())
        assert rev["residual_impulse_rel"] < 1e-9

    def test_type_independent_family_constant_fee(self, tmp_path):
        cfg = write_config(
            tmp_path, family={"name": "uniform_iid", "goods": 2}
        )
        out = str(tmp_path / "out")
        assert run("solve", "--config", cfg, "--out", out, "--quiet") == 0
        mech = read_mechanism_csv(os.path.join(out, "mechanism.csv"), 2)
        np.testing.assert_allclose(mech.upfront, 1.0, atol=1e-9)
        np.testing.assert_allclose(mech.strikes, 0.0, atol=1e-12)

    def test_drifting_smooth_family_past_the_joint_limit_solves(self, tmp_path):
        # a drifting copula takes the per-good score, so the joint-score
        # goods limit does not apply and the impulse form is written
        family = {"name": "logistic_shift", "goods": climod.MAX_JOINT_SCORE_GOODS + 1,
                  "copula": {"name": "gaussian", "rho": 0.3, "rho_slope": 0.2}}
        cfg = write_config(tmp_path, family=family)
        out = str(tmp_path / "out")
        assert run("solve", "--config", cfg, "--out", out, "--quiet") == 0
        rev = json.loads((tmp_path / "out" / "revenue.json").read_text())
        assert rev["residual_functional_rel"] < 1e-5
        assert rev["residual_impulse_rel"] < 1e-5

    def test_regularity_violation_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path, family={"name": "logistic_shift", "goods": 1, "shift": -1.0}
        )
        out = str(tmp_path / "out")
        assert run("solve", "--config", cfg, "--out", out, "--quiet") == 3
        rep = json.loads((tmp_path / "out" / "regularity.json").read_text())
        assert not rep["ok"]

    def test_non_finite_cdf_response_exits_3_with_strict_json(self, tmp_path, monkeypatch):
        build = modelmod.build_model

        def nan_at_one_point(family):
            # NaN at regularity grid point gamma = 0.35, theta = 9/64 on [0, 2]
            mdl = build(family)
            marg = mdl.marginals[0]

            def dcdf(theta, gamma):
                out = np.array(marg.dcdf_dgamma(theta, gamma), dtype=float)
                hit = (np.asarray(theta) == 9 / 64) & (np.asarray(gamma) == np.linspace(0, 1, 21)[7])
                out[np.broadcast_to(hit, out.shape)] = np.nan
                return out

            return replace(mdl, marginals=(replace(marg, dcdf_dgamma=dcdf),))

        monkeypatch.setattr(climod.modelmod, "build_model", nan_at_one_point)
        out = tmp_path / "out"
        assert run("solve", "--config", write_config(tmp_path), "--out", str(out), "--quiet") == 3

        def refuse(constant):
            raise AssertionError(f"regularity.json holds {constant}")

        rep = json.loads((out / "regularity.json").read_text(), parse_constant=refuse)
        assert not rep["ok"]
        assert rep["locations"]["non_finite_f_gamma"] == {
            "good": 0, "gamma": np.linspace(0, 1, 21)[7], "theta": 9 / 64}

    @pytest.mark.parametrize("command,section", [
        ("solve", {"gamma_grid": "abc"}),
        ("sample", {"count": "many"}),
        ("audit", {"cycles": [5]}),
        ("audit", {"cycle_length": 2.5}),
        ("identity", {"points": None}),
        ("sample", {"count": 5, "gammas": []}),
    ])
    def test_bad_counts_exit_2(self, tmp_path, command, section, capsys):
        cfg = write_config(tmp_path, **{command: section})
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_config_errors_exit_2(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert run("solve", "--config", missing, "--quiet") == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"family": {"name": "unknown_family"}}))
        assert run("solve", "--config", str(bad), "--quiet") == 2
        neg = tmp_path / "neg.json"
        neg.write_text(json.dumps({"family": {"name": "cl_uniform"}, "seed": -3}))
        assert run("solve", "--config", str(neg), "--quiet") == 2


    @pytest.mark.parametrize("command,overrides", [
        ("solve", {"solve": 5}),
        ("solve", {"solve": [101]}),
        ("solve", {"family": 5}),
        ("solve", {"family": {"name": "cl_uniform", "goods": "two"}}),
        ("solve", {"family": {"name": "cl_uniform", "goods": 2.5}}),
        ("solve", {"family": {"name": "cl_uniform", "goods": 2, "copula": 5}}),
        ("solve", {"family": {"name": 5, "goods": 2}}),
        ("solve", {"family": {"name": "cl_uniform", "goods": 2, "copula": {"name": 5}}}),
        ("solve", {"family": {"name": "cl_uniform", "goods": 2,
                              "copula": {"name": "clayton", "alpha": "x"}}}),
        ("solve", {"family": {"name": "cl_uniform", "goods": 2, "width": "abc"}}),
        ("solve", {"family": {"name": "cl_uniform", "goods": 1, "width": 0}}),
        ("solve", {"family": {"name": "cl_uniform", "goods": 1, "width": -1}}),
        ("solve", {"family": {"name": "cl_uniform", "goods": 1, "width": 5}}),
        ("solve", {"family": {"name": "logistic_shift", "goods": 2, "scale": -1}}),
        ("solve", {"seed": "abc"}),
        ("solve", {"seed": 4.5}),
        ("solve", {"family": {"name": "logistic_shift", "goods": 1, "shift": "nan"}}),
        ("solve", {"family": {"name": "logistic_shift", "goods": 1, "loc": "inf"}}),
        ("solve", {"family": {"name": "logistic_shift", "goods": 1, "scale": float("nan")}}),
        ("oracle", {"family": {"name": "logistic_shift", "goods": 1, "shift": "nan"}}),
        ("solve", {"family": {"name": "cl_uniform", "goods": 2,
                              "copula": {"name": "clayton", "alpha": "inf"}}}),
        ("solve", {"family": {"name": "cl_uniform", "goods": 2,
                              "copula": {"name": "clayton", "alpha": 2.0,
                                         "alpha_slope": "nan"}}}),
        ("solve", {"family": {"name": "uniform_iid", "goods": 1, "box": [0, "inf"]}}),
        ("solve", {"family": {"name": "logistic_shift", "goods": 1, "box": "ab"}}),
        ("identity", {"seed": 2 ** 64}),
        (f"sample --seed {2 ** 64}", {}),
        ("sample", {"sample": {"count": 10, "corners": "false"}}),
        ("sample", {"sample": {"count": 10, "corners": 1}}),
        ("sample", {"sample": {"count": 10, "corners": None}}),
        ("solve", {"solve": {"gamma_grid": 1}}),
        ("audit", {"audit": {"gamma_grid": 1}}),
    ], ids=["section-int", "section-list", "family-int", "goods-str", "goods-float",
            "copula-int", "name-int", "copula-name-int", "copula-param-str", "width-str",
            "width-zero", "width-negative", "width-wide", "scale-negative", "seed-str", "seed-float",
            "shift-nan", "loc-inf", "scale-nan", "oracle-shift-nan", "alpha-inf", "alpha-slope-nan",
            "box-inf", "box-str", "seed-over-uint64", "seed-flag-over-uint64", "corners-str",
            "corners-int", "corners-null", "solve-grid-one", "audit-grid-one"])
    def test_malformed_config_exits_2(self, tmp_path, command, overrides, capsys):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert run(*command.split(), "--config", cfg, "--out", str(out), "--quiet") == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,overrides,message", [
        ("solve", {"family": {"name": "cl_uniform", "goods": 1099511627776}}, "from 1 to 6"),
        ("solve", {"solve": {"gamma_grid": 10 ** 12}},
         "solve.gamma_grid must hold integers from 2 to 2000 (cli.MAX_GAMMA_GRID)"),
        ("sample", {"sample": {"count": climod.MAX_SAMPLE_COUNT + 1}},
         "sample.count must hold integers from 1 to 1000000 (cli.MAX_SAMPLE_COUNT)"),
        # cycle_length takes its default of 5
        ("audit", {"audit": {"cycles": climod.MAX_CYCLE_POINTS // 5 + 1}},
         "audit.cycles * audit.cycle_length must hold integers from 1 to 1000000 "
         "(cli.MAX_CYCLE_POINTS), got 1000005"),
        ("identity", {"identity": {"points": climod.MAX_IDENTITY_POINTS + 1}},
         "identity.points must hold integers from 1 to 100000 (cli.MAX_IDENTITY_POINTS)"),
        # 13 types x 144 cells: 13 * 144 * 143 + 13 * 13 rows
        ("oracle", {"family": {"name": "cl_uniform", "goods": 2},
                    "oracle": {"gamma_cells": 13, "theta_cells": [2, 12]}},
         "oracle.theta_cells 12: simultaneous LP rows must hold integers from 1 to 250000 "
         "(cli.MAX_SIMULTANEOUS_ROWS), got 267865"),
        ("solve", {"family": {"name": "logistic_shift", "goods": 4,
                              "copula": {"name": "gaussian", "rho": 0.3}}},
         "family.goods of a smooth family with an invariant dependent copula must hold "
         "integers "
         "from 1 to 3 (cli.MAX_JOINT_SCORE_GOODS), got 4"),
        # one good: 2 corner rows per type, 2 * (499,999 + 2) rows
        ("sample", {"sample": {"count": climod.MAX_SAMPLE_COUNT // 2 - 1, "gammas": [0.3, 0.7],
                               "corners": True}},
         "len(sample.gammas) * (sample.count + corner rows) must hold integers from 1 to "
         "1000000 (cli.MAX_SAMPLE_COUNT), got 1000002"),
    ], ids=["goods", "gamma-grid", "sample-count", "cycle-points", "identity-points",
            "simultaneous-rows", "joint-score-goods", "sample-rows"])
    def test_size_over_a_guard_exits_2(self, tmp_path, command, overrides, message, capsys):
        # each used to end in a MemoryError traceback or a run of hours;
        # load_config rejects them before anything is allocated
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family", [
        {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}},
        {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}},
    ], ids=["readme", "logi"])
    def test_size_guards_admit_the_benchmark_configs(self, tmp_path, family):
        cfg = write_config(tmp_path, family=family,
                           audit={"gamma_grid": 51, "cycles": 1000, "cycle_length": 5},
                           identity={"points": 1000}, sample={"count": 100_000, "gammas": [0.3]},
                           oracle={"gamma_cells": 3, "theta_cells": [2, 3, 4, 5]})
        for command in ("solve", "audit", "identity", "oracle", "sample"):
            climod.load_config(cfg, command)

    @pytest.mark.parametrize("command,overrides", [
        ("sample", {"sample": {"count": climod.MAX_SAMPLE_COUNT}}),
        ("audit", {"audit": {"cycles": climod.MAX_CYCLE_POINTS // 5}}),
        ("audit", {"audit": {"cycles": 1, "cycle_length": climod.MAX_CYCLE_POINTS}}),
        ("identity", {"identity": {"points": climod.MAX_IDENTITY_POINTS}}),
        # the joint 12 x 12 x 12 rung: 247,248 rows
        ("oracle", {"family": {"name": "cl_uniform", "goods": 2},
                    "oracle": {"gamma_cells": 12, "theta_cells": [[12, 12]]}}),
        ("solve", {"family": {"name": "logistic_shift", "goods": 3,
                              "copula": {"name": "gaussian", "rho": 0.3}}}),
        ("solve", {"family": {"name": "logistic_shift", "goods": modelmod.MAX_GOODS}}),
        ("sample", {"sample": {"count": climod.MAX_SAMPLE_COUNT // 2 - 2, "gammas": [0.3, 0.7],
                               "corners": True}}),
        ("sample", {"sample": {"count": climod.MAX_SAMPLE_COUNT // 4, "gammas": [0.1] * 4}}),
        # a 5-good Gaussian rung of 3 x 3**5 cells: 176,427 rows
        ("oracle", {"family": {"name": "logistic_shift", "goods": 5,
                               "copula": {"name": "gaussian", "rho": 0.5}},
                    "oracle": {"gamma_cells": 3, "theta_cells": [3]}}),
    ], ids=["sample-count", "cycles", "cycle-length", "identity-points", "joint-12",
            "joint-score-3-goods", "independent-6-goods", "sample-rows-corners",
            "sample-rows", "gaussian-oracle-goods"])
    def test_size_guards_admit_their_limits_without_running(self, tmp_path, command, overrides):
        climod.load_config(write_config(tmp_path, **overrides), command)

    @pytest.mark.parametrize("command", ["solve", "audit"])
    def test_size_guards_admit_their_limits(self, tmp_path, command):
        # load_config allocates nothing per grid point or good, so the
        # limits themselves are checked here without solving anything
        at_limit = write_config(tmp_path, "at.json",
                                family={"name": "cl_uniform", "goods": modelmod.MAX_GOODS},
                                **{command: {"gamma_grid": climod.MAX_GAMMA_GRID}})
        cfg = climod.load_config(at_limit, command)
        assert cfg.model.n == modelmod.MAX_GOODS
        assert cfg.section["gamma_grid"] == climod.MAX_GAMMA_GRID
        for name, overrides in [
            ("goods.json", {"family": {"name": "cl_uniform", "goods": modelmod.MAX_GOODS + 1}}),
            ("grid.json", {command: {"gamma_grid": climod.MAX_GAMMA_GRID + 1}}),
        ]:
            with pytest.raises(ConfigError):
                climod.load_config(write_config(tmp_path, name, **overrides), command)

    @pytest.mark.parametrize("copula,message", [
        ({"name": "gaussian", "rho": -0.6}, "equicorrelation rho -0.6 invalid for dim 3"),
        ({"name": "gaussian", "rho": 1.0}, "equicorrelation rho 1.0 invalid"),
        ({"name": "gaussian", "rho": 0.5, "rho_slope": 0.6}, "equicorrelation rho [0.5 1.1]"),
        ({"name": "clayton", "alpha": -1}, "clayton alpha must be positive"),
        ({"name": "clayton", "alpha": 1, "alpha_slope": -2}, "clayton alpha must be positive"),
    ], ids=["rho-below", "rho-one", "rho-path-leaves", "alpha-negative", "alpha-path-leaves"])
    def test_bad_copula_parameters_exit_2(self, tmp_path, copula, message, capsys):
        # checked at both ends of the prior support before anything is solved
        cfg = write_config(tmp_path, family={"name": "logistic_shift", "goods": 3, "copula": copula})
        out = tmp_path / "out"
        assert run("solve", "--config", cfg, "--out", str(out), "--quiet") == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value", [
        ("identity", "divergence_tol", "abc"),
        ("identity", "divergence_tol", -1e-4),
        ("identity", "boundary_tol", float("nan")),
        ("identity", "boundary_tol", None),
        ("identity", "invariance_tol", float("inf")),
        ("identity", "invariance_tol", True),
        ("audit", "tolerance_gain_rel", "1e-6"),
        ("audit", "tolerance_gain_rel", -1.0),
        ("audit", "ir_tol", [1e-8]),
        ("audit", "ir_tol", float("-inf")),
    ])
    def test_bad_tolerances_exit_2(self, tmp_path, command, key, value, capsys):
        cfg = write_config(tmp_path, **{command: {key: value}})
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
        assert f"{command}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key", [
        ("solve", "gamma_grids"),
        ("audit", "cycle_lenght"),
        ("identity", "divergence_tolerance"),
        ("oracle", "theta_cell"),
        ("sample", "corner"),
    ])
    def test_unknown_section_key_exits_2(self, tmp_path, command, key, capsys):
        # if it ran, a misspelled key would leave the verb on the default of the key meant
        cfg = write_config(tmp_path, **{command: {key: 1e-12}})
        out = tmp_path / "out"
        assert run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
        assert f"config error: unknown key {command}.{key}" in capsys.readouterr().err
        assert not out.exists()
        # top-level keys and the other verbs' sections are not the verb's to refuse
        other = "sample" if command == "solve" else "solve"
        climod.load_config(write_config(tmp_path, "other.json", note="x", **{other: {key: 1}}),
                           command)

    STRAY_FAMILY_KEYS = [  # (family block, the key it sets that nothing reads)
        ({"name": "logistic_shift", "sacle": 0.2}, "family.sacle"),
        ({"name": "cl_uniform", "box": [0.0, 2.0]}, "family.box"),
        ({"name": "cl_uniform", "scale": 0.2}, "family.scale"),
        ({"name": "uniform_iid", "width": 0.5}, "family.width"),
        ({"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "rho": 0.5}},
         "family.copula.rho"),
        ({"name": "cl_uniform", "goods": 2, "copula": {"name": "independence", "alpha": 2.0}},
         "family.copula.alpha"),
        ({"name": "cl_uniform", "goods": 2, "copula": {"alpha": 2}}, "family.copula.alpha"),
    ]

    @pytest.mark.parametrize("family,key", STRAY_FAMILY_KEYS, ids=[
        "misspelled", "cl-box", "cl-scale", "iid-width", "clayton-rho", "independence-alpha",
        "no-copula-name"])
    def test_unknown_family_key_exits_2(self, tmp_path, family, key, capsys):
        # if it ran, the family would take the default of the key meant (or,
        # with no copula name, run under independence)
        for command, cfg in (
                ("solve", write_config(tmp_path, family=family)),
                ("identity", write_config(tmp_path, "id.json", identity={"families": [family]}))):
            out = tmp_path / command
            assert run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
            assert f"config error: unknown key {key};" in capsys.readouterr().err
            assert not out.exists()


class TestAuditCommand:
    def test_solved_menu_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert run("audit", "--config", cfg, "--out", out, "--quiet") == 0
        rep = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert rep["ok"] and rep["max_gain"] <= rep["gain_tolerance"]
        curve = (tmp_path / "out" / "u_curve.csv").read_text().splitlines()
        assert curve[0] == "gamma,U"
        assert len(curve) == 42

    def test_tampered_menu_exits_3(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "solved")
        assert run("solve", "--config", cfg, "--out", out, "--quiet") == 0
        lines = (tmp_path / "solved" / "mechanism.csv").read_text().splitlines()
        head, rows = lines[0], [r.split(",") for r in lines[1:]]
        rows[70][2] = repr(float(rows[70][2]) - 0.1)
        tampered = tmp_path / "tampered.csv"
        tampered.write_text(head + "\n" + "\n".join(",".join(r) for r in rows) + "\n")
        cfg2 = write_config(
            tmp_path, name="cfg2.json",
            audit={"gamma_grid": 41, "mechanism_csv": str(tampered), "cycles": 50},
        )
        out2 = str(tmp_path / "audit2")
        assert run("audit", "--config", cfg2, "--out", out2, "--quiet") == 3
        rep = json.loads((tmp_path / "audit2" / "audit.json").read_text())
        assert rep["max_gain"] > 1e-3 and not rep["ok"]

    @pytest.mark.parametrize("table", [None, "gamma,t1,p_1\n0,0.5,1\n0.5,abc,0.5\n"],
                             ids=["missing", "non-numeric"])
    def test_unreadable_menu_exits_2(self, tmp_path, table, capsys):
        path = tmp_path / "menu.csv"
        if table is not None:
            path.write_text(table)
        cfg = write_config(tmp_path, audit={"mechanism_csv": str(path), "cycles": 5})
        assert run("audit", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 2
        err = capsys.readouterr().err
        assert "config error" in err and "menu.csv" in err

    @pytest.mark.parametrize("table,message", [
        ("gamma,t1,p_1,p_2\n0,0.5,1,1\n0.5,0.2,0.5,0.5\n", "prices 2 goods; the family has 1"),
        ("gamma,t1,p_1\n0,nan,1\n0.5,0.2,0.5\n", "non-finite entry"),
        ("gamma,t1,p_1\n0,0.5,1\nnan,0.2,0.5\n", "non-finite entry"),
        ("gamma,t1,p_1\n0.5,0.1,0.5\n0.4,0.2,0.6\n", "strictly increasing"),
    ], ids=["goods-count", "nan-fee", "nan-gamma", "decreasing-gamma"])
    def test_menu_outside_input_exits_2(self, tmp_path, table, message, capsys):
        # each used to be audited (exit 3, NaN in audit.json) or end in a
        # solver failure (exit 4)
        path = tmp_path / "menu.csv"
        path.write_text(table)
        cfg = write_config(tmp_path, audit={"mechanism_csv": str(path), "cycles": 5})
        out = tmp_path / "out"
        assert run("audit", "--config", cfg, "--out", str(out), "--quiet") == 2
        assert message in capsys.readouterr().err
        assert not (out / "audit.json").exists()

    @pytest.mark.parametrize("value", [[1, 2], 5, "", None, True],
                             ids=["list", "int", "empty", "null", "bool"])
    def test_malformed_menu_path_exits_2(self, tmp_path, value, capsys):
        # a list used to end in a TypeError traceback, and an int was
        # opened as a file descriptor
        cfg = write_config(tmp_path, audit={"mechanism_csv": value, "cycles": 5})
        out = tmp_path / "out"
        assert run("audit", "--config", cfg, "--out", str(out), "--quiet") == 2
        assert "audit.mechanism_csv must be a non-empty path" in capsys.readouterr().err
        assert not out.exists()


class TestIdentityCommand:
    def test_invariant_families_pass(self, tmp_path):
        cfg = write_config(tmp_path, identity={
            "points": 25,
            "families": [
                {"name": "cl_uniform", "goods": 2},
                {"name": "logistic_shift", "goods": 2,
                 "copula": {"name": "clayton", "alpha": 2.0}},
            ],
        })
        out = str(tmp_path / "out")
        assert run("identity", "--config", cfg, "--out", out, "--quiet") == 0
        rep = json.loads((tmp_path / "out" / "identity.json").read_text())
        assert all(row["ok"] for row in rep["families"])

    def test_too_tight_tolerance_exits_3(self, tmp_path):
        # an invariant-flagged family whose finite-difference residual
        # cannot meet an absurd tolerance must flip the exit code
        cfg = write_config(tmp_path, identity={
            "points": 5,
            "divergence_tol": 1e-15,
            "families": [{"name": "logistic_shift", "goods": 2}],
        })
        out = str(tmp_path / "out")
        assert run("identity", "--config", cfg, "--out", out, "--quiet") == 3
        rep = json.loads((tmp_path / "out" / "identity.json").read_text())
        assert not rep["families"][0]["ok"]

    def test_invariance_tol_is_applied(self, tmp_path, monkeypatch):
        # registered invariant families have a residual of exactly 0, so
        # stand in a small one to see which tolerance decides
        from screenforge import cli as climod

        monkeypatch.setattr(climod.modelmod, "invariance_residual", lambda *a: 1e-6)
        section = {"points": 5, "families": [{"name": "cl_uniform", "goods": 2}]}
        cfg = write_config(tmp_path, identity=section)
        assert run("identity", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet") == 3
        rep = json.loads((tmp_path / "a" / "identity.json").read_text())
        assert rep["tolerances"]["invariance"] == 1e-8
        cfg = write_config(tmp_path, identity={**section, "invariance_tol": 1e-5})
        assert run("identity", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet") == 0

    def test_one_good_gaussian_family_passes(self, tmp_path):
        family = {"name": "uniform_iid", "goods": 1, "copula": {"name": "gaussian", "rho": 0.5}}
        cfg = write_config(tmp_path, family=family)
        assert run("identity", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 0

    def test_one_good_drifting_copula_is_invariant(self, tmp_path):
        # one good has nothing to couple, so a drifting block cannot drift
        family = {"name": "cl_uniform", "goods": 1,
                  "copula": {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0}}
        cfg = write_config(tmp_path, family=family)
        assert run("identity", "--config", cfg, "--out", str(tmp_path / "id"), "--quiet") == 0
        row = json.loads((tmp_path / "id" / "identity.json").read_text())["families"][0]
        assert row["invariant_flag"] and row["invariance_residual"] == 0.0
        assert run("solve", "--config", cfg, "--out", str(tmp_path / "rev"), "--quiet") == 0
        rev = json.loads((tmp_path / "rev" / "revenue.json").read_text())
        assert rev["residual_impulse_rel"] <= 1e-5

    def test_drifting_copula_reported_but_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, identity={
            "points": 10,
            "gamma_pair": [0.0, 1.0],
            "families": [
                {"name": "cl_uniform", "goods": 2,
                 "copula": {"name": "gaussian", "rho": 0.2, "rho_slope": 0.6}},
            ],
        })
        out = str(tmp_path / "out")
        assert run("identity", "--config", cfg, "--out", out, "--quiet") == 0
        row = json.loads((tmp_path / "out" / "identity.json").read_text())["families"][0]
        assert not row["invariant_flag"]
        assert row["invariance_residual"] > 1e-2

    @pytest.mark.parametrize("section", [
        {"families": [5]},
        {"families": 5},
        {"families": {"name": "bogus"}},
        {"families": [{"name": "bogus"}]},
        {"gamma_pair": 5},
        {"gamma_pair": [0.2]},
        {"gamma_pair": [0.2, 7.0]},
        {"gamma_pair": ["low", "high"]},
        # a given key is checked whatever its value: these three used to
        # run the top-level family or the default pair
        {"families": []},
        {"families": None},
        {"gamma_pair": None},
        # two equal types make the invariance residual 0 whatever the copula
        {"gamma_pair": [0.5, 0.5]},
    ], ids=["families-int-list", "families-int", "families-object", "family-unknown",
            "pair-int", "pair-short", "pair-outside-prior", "pair-str", "families-empty",
            "families-null", "pair-null", "pair-equal"])
    def test_bad_identity_inputs_exit_2(self, tmp_path, section, capsys):
        cfg = write_config(tmp_path, identity={"points": 5, **section})
        out = tmp_path / "out"
        assert run("identity", "--config", cfg, "--out", str(out), "--quiet") == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_equal_pair_error_names_the_types(self, tmp_path, capsys):
        cfg = write_config(tmp_path, identity={"points": 5, "gamma_pair": [0.5, 0.5]})
        assert run("identity", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 2
        assert "identity.gamma_pair must list 2 different types, got [0.5, 0.5]" in (
            capsys.readouterr().err)


class TestOracleCommand:
    def test_table_and_mech_dumps(self, tmp_path):
        cfg = write_config(tmp_path, family={"name": "cl_uniform", "goods": 2})
        out = str(tmp_path / "out")
        assert run("oracle", "--config", cfg, "--out", out, "--quiet") == 0
        rep = json.loads((tmp_path / "out" / "oracle.json").read_text())
        rows = rep["refinements"]
        assert [r["theta_cells"] for r in rows] == [2, 3]
        for r in rows:
            assert r["v_relaxed"] >= r["v_simultaneous"] - 1e-9
            assert r["v_simultaneous"] >= r["v_separate"] - 1e-9
            assert r["v_sequential"] >= r["v_simultaneous"] - 1e-9
            assert r["v_simultaneous"] <= r["full_surplus"] + 1e-9
        for regime in ("simultaneous", "sequential", "relaxed"):
            path = tmp_path / "out" / f"mech_{regime}_k2.csv"
            header = path.read_text().splitlines()[0]
            assert header == "gamma,theta_1,theta_2,q_1,q_2,t2,t1"
            for r in rows:
                assert r["iterations"][regime] == 1
                size = r["lp_size"][regime]
                assert size["rows"] > 0 and size["cols"] > 0 and size["nnz"] > 0

    def test_report_matches_regime_rows(self, tmp_path):
        from screenforge import model as M
        from screenforge import oracle as O

        family = {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}}
        cfg = write_config(tmp_path, family=family,
                           oracle={"gamma_cells": 3, "theta_cells": [2, 3]})
        assert run("oracle", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 0
        table = json.loads((tmp_path / "out" / "oracle.json").read_text())["refinements"]
        mdl = M.build_model(family)
        rows = [O.regime_row(O.discretize(mdl, 3, k)) for k in (2, 3)]
        keys = ("v_simultaneous", "v_sequential", "v_relaxed", "v_separate",
                "gap_separate", "gap_sequential", "gap_relaxed")
        assert [[r[k] for k in keys] for r in table] == [[getattr(r, k) for k in keys] for r in rows]

    def test_lp_failure_exits_4_and_dumps_instance(self, tmp_path, monkeypatch):
        from screenforge import oracle as O
        from screenforge.errors import LpInfeasibleError

        def boom(instance):
            raise LpInfeasibleError("forced failure")

        monkeypatch.setattr(O, "solve_simultaneous", boom)
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert run("oracle", "--config", cfg, "--out", out, "--quiet") == 4
        dump = json.loads((tmp_path / "out" / "instance_fail.json").read_text())
        assert "instance" in dump and dump["error"] == "forced failure"

    def test_rejected_final_basis_exits_4_and_dumps_instance(self, tmp_path, monkeypatch):
        # a HiGHS that will not take back its own final basis: the polish
        # raises a solver error, which the verb reports
        from screenforge import lp

        class SetBasisRejected:
            def __init__(self, highs):
                self.highs = highs

            def setBasis(self, *args):
                return lp._highs.HighsStatus.kError

            def __getattr__(self, name):
                return getattr(self.highs, name)

        build = lp.LpModel.__init__

        def proxied(model, *args, **kwargs):
            build(model, *args, **kwargs)
            model._highs = SetBasisRejected(model._highs)

        monkeypatch.setattr(lp.LpModel, "__init__", proxied)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert run("oracle", "--config", cfg, "--out", str(out), "--quiet") == 4
        dump = json.loads((out / "instance_fail.json").read_text())
        assert "instance" in dump and dump["error"] == "HiGHS rejected setBasis"
        assert not (out / "oracle.json").exists()

    def test_rejected_first_run_is_retried(self, tmp_path, monkeypatch):
        # a cold dual-simplex run at HiGHS's numerical edge can be rejected;
        # here every model's first run is, and the primal retry solves the rungs
        from screenforge import lp

        class FirstRunRejected:
            def __init__(self, highs):
                self.highs, self.runs = highs, 0

            def run(self):
                self.runs += 1
                return lp._highs.HighsStatus.kError if self.runs == 1 else self.highs.run()

            def __getattr__(self, name):
                return getattr(self.highs, name)

        handles = []
        build = lp.LpModel.__init__

        def proxied(model, *args, **kwargs):
            build(model, *args, **kwargs)
            model._highs = FirstRunRejected(model._highs)
            handles.append(model._highs)

        monkeypatch.setattr(lp.LpModel, "__init__", proxied)
        cfg = write_config(tmp_path, family={"name": "cl_uniform", "goods": 2})
        assert run("oracle", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 0
        assert handles and all(h.runs >= 2 for h in handles)

    def test_failed_recheck_exits_4_and_dumps_instance(self, tmp_path, monkeypatch):
        # the sequential LP without its stage-0 epigraph rows is not
        # incentive compatible; the re-check must stop the verb
        from screenforge import oracle as O

        build = O._seq_stage_rows

        def drop_first_stage(layout, j):
            rows, rhs = build(layout, j)
            return (tuple(a[:0] for a in rows), rhs[:0]) if j == 0 else (rows, rhs)

        monkeypatch.setattr(O, "_seq_stage_rows", drop_first_stage)
        cfg = write_config(tmp_path, family={"name": "cl_uniform", "goods": 2})
        out = tmp_path / "out"
        assert run("oracle", "--config", cfg, "--out", str(out), "--quiet") == 4
        dump = json.loads((out / "instance_fail.json").read_text())
        assert "re-check" in dump["error"]
        assert not (out / "oracle.json").exists()

    def test_logistic_rungs_past_the_old_round_cap(self, tmp_path):
        family = {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}}
        cfg = write_config(tmp_path, family=family,
                           oracle={"gamma_cells": 3, "theta_cells": [6, 8]})
        assert run("oracle", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 0
        rows = json.loads((tmp_path / "out" / "oracle.json").read_text())["refinements"]
        assert [r["theta_cells"] for r in rows] == [6, 8]
        for r in rows:
            assert r["v_relaxed"] >= r["v_simultaneous"] - 1e-9
            assert r["v_simultaneous"] >= r["v_separate"] - 1e-9
            assert r["v_sequential"] >= r["v_simultaneous"] - 1e-9

    def test_drifting_six_cell_rung_solves(self, tmp_path):
        # one cell of 3.8e-11 stays in the instance; each regime writes a
        # vertex that passes its re-check, so the ladder exits 0
        family = {"name": "logistic_shift", "goods": 2,
                  "copula": {"name": "gaussian", "rho": -0.8, "rho_slope": 1.6}}
        cfg = write_config(tmp_path, family=family, oracle={"gamma_cells": 6, "theta_cells": [6]})
        assert run("oracle", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 0
        row = json.loads((tmp_path / "out" / "oracle.json").read_text())["refinements"][0]
        assert abs(row["v_simultaneous"] - 1.4503106396842758) < 1e-11
        assert row["v_sequential"] >= row["v_simultaneous"] - 1e-9

    @pytest.mark.parametrize("section", [
        {"gamma_cells": 0, "theta_cells": [2]},
        {"gamma_cells": 3, "theta_cells": [2, 0]},
        {"gamma_cells": 3, "theta_cells": [[2, 0]]},
        {"gamma_cells": 3, "theta_cells": [[2, 2, 2]]},
        {"gamma_cells": "three", "theta_cells": [2]},
        {"gamma_cells": 3, "theta_cells": []},
    ])
    def test_bad_cell_counts_exit_2(self, tmp_path, section, capsys):
        cfg = write_config(tmp_path, family={"name": "cl_uniform", "goods": 2}, oracle=section)
        out = tmp_path / "out"
        assert run("oracle", "--config", cfg, "--out", str(out), "--quiet") == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_three_good_gaussian_ladder_sells_separately(self, tmp_path):
        # the paper's theorem at three goods: the Gaussian cdf used to be
        # 1.6e-5 off beyond two goods and left a negative cell mass (exit 4)
        family = {"name": "logistic_shift", "goods": 3, "copula": {"name": "gaussian", "rho": 0.5}}
        cfg = write_config(tmp_path, family=family,
                           oracle={"gamma_cells": 3, "theta_cells": [2, 3, 4]})
        assert run("oracle", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 0
        rows = json.loads((tmp_path / "out" / "oracle.json").read_text())["refinements"]
        assert [r["theta_cells"] for r in rows] == [2, 3, 4]
        for r in rows:
            assert abs(r["gap_separate"]) <= 1e-9

    def test_single_type_all_efficient(self, tmp_path):
        cfg = write_config(
            tmp_path,
            family={"name": "cl_uniform", "goods": 2},
            oracle={"gamma_cells": 1, "theta_cells": [2]},
        )
        out = str(tmp_path / "out")
        assert run("oracle", "--config", cfg, "--out", out, "--quiet") == 0
        row = json.loads((tmp_path / "out" / "oracle.json").read_text())["refinements"][0]
        for key in ("v_simultaneous", "v_sequential", "v_relaxed", "v_separate"):
            assert abs(row[key] - row["full_surplus"]) < 1e-9


class TestSampleCommand:
    def test_corner_draws_constant_across_types(self, tmp_path):
        cfg = write_config(
            tmp_path,
            family={"name": "cl_uniform", "goods": 2},
            sample={"count": 50, "gammas": [0.1, 0.5, 0.9], "corners": True},
        )
        out = str(tmp_path / "out")
        assert run("sample", "--config", cfg, "--out", out, "--quiet") == 0
        lines = (tmp_path / "out" / "draws.csv").read_text().splitlines()
        assert lines[0] == "gamma,z_1,z_2,theta_1,theta_2"
        corner_rows = [
            tuple(map(float, ln.split(","))) for ln in lines[1:]
            if set(ln.split(",")[1:3]) <= {"0", "1"}
        ]
        by_corner = {}
        for g, z1, z2, t1, t2 in corner_rows:
            by_corner.setdefault((z1, z2), set()).add((t1, t2))
        assert len(by_corner) == 4
        for thetas in by_corner.values():
            assert len(thetas) == 1  # same box corner for every type

    @pytest.mark.parametrize("gammas", [[7.0], [0.3, -0.1], ["low"], 0.3])
    def test_gammas_outside_prior_exit_2(self, tmp_path, gammas, capsys):
        # the prior of cl_uniform is [0, 1]; gamma = 7 used to write
        # valuations near 7.3, outside the box [0, 2]
        cfg = write_config(tmp_path, sample={"count": 10, "gammas": gammas})
        out = tmp_path / "out"
        assert run("sample", "--config", cfg, "--out", str(out), "--quiet") == 2
        assert "sample.gammas" in capsys.readouterr().err
        assert not out.exists()

    def test_ks_within_tolerance(self, tmp_path):
        cfg = write_config(
            tmp_path, sample={"count": 100_000, "gammas": [0.3], "corners": False}
        )
        out = str(tmp_path / "out")
        assert run("sample", "--config", cfg, "--out", out, "--quiet") == 0
        rep = json.loads((tmp_path / "out" / "ks.json").read_text())
        assert max(r["ks"] for r in rep["statistics"]) <= 0.01


class TestDefaults:
    # every key of every verb at its default, as the README's key table gives it
    DEFAULTS = {
        "solve": {"gamma_grid": 101},
        "audit": {"gamma_grid": 51, "cycles": 1000, "cycle_length": 5,
                  "tolerance_gain_rel": 1e-6, "ir_tol": 1e-8, "mechanism_csv": None},
        "identity": {"points": 100, "divergence_tol": 1e-4, "boundary_tol": 1e-6,
                     "invariance_tol": 1e-8, "families": None, "gamma_pair": None},
        "oracle": {"gamma_cells": 3, "theta_cells": [2, 3, 4]},
        "sample": {"count": 1000, "gammas": None, "corners": False},
    }

    def test_a_config_without_sections_reads_every_default(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"family": {"name": "cl_uniform", "goods": 2,
                                               "copula": {"name": "clayton", "alpha": 2.0}},
                                    "seed": 4242}))
        for command, defaults in self.DEFAULTS.items():
            assert climod.load_config(str(path), command).section == defaults
            out = str(tmp_path / command)
            assert run(command, "--config", str(path), "--out", out, "--quiet") == 0


class TestDeterminism:
    @pytest.mark.parametrize("command", ["solve", "audit", "identity", "oracle", "sample"])
    def test_byte_identical_reruns(self, tmp_path, command):
        cfg = write_config(
            tmp_path,
            oracle={"gamma_cells": 2, "theta_cells": [2]},
            sample={"count": 500, "gammas": [0.4], "corners": False},
            identity={"points": 10},
            audit={"gamma_grid": 21, "cycles": 50},
        )
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(command, "--config", cfg, "--out", out_a, "--quiet") == 0
        assert run(command, "--config", cfg, "--out", out_b, "--quiet") == 0
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
        assert not mismatch and not errors

    def test_solve_matches_scalar_reference(self, tmp_path):
        # the batched strikes and fees written by solve equal the scalar
        # per-type code they replace
        import scalar_reference as scalar
        from screenforge import model as M

        family = {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}}
        cfg = write_config(tmp_path, family=family, solve={"gamma_grid": 11})
        out = str(tmp_path / "out")
        assert run("solve", "--config", cfg, "--out", out, "--quiet") == 0
        mech = read_mechanism_csv(os.path.join(out, "mechanism.csv"), 2)
        model = M.build_model(family)
        strikes = scalar.strikes(model, mech.gamma_grid)
        np.testing.assert_allclose(mech.strikes, strikes, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mech.upfront, scalar.fees(model, mech.gamma_grid, strikes),
                                   rtol=0, atol=1e-12)

    def test_largest_seed_runs(self, tmp_path):
        cfg = write_config(tmp_path, seed=climod.MAX_SEED, sample={"count": 10, "gammas": [0.4]})
        assert run("sample", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 0

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = write_config(tmp_path, sample={"count": 100, "gammas": [0.4]})
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run("sample", "--config", cfg, "--out", out_a, "--quiet") == 0
        assert run("sample", "--config", cfg, "--out", out_b, "--seed", "99", "--quiet") == 0
        ja = json.loads((tmp_path / "a" / "ks.json").read_text())
        jb = json.loads((tmp_path / "b" / "ks.json").read_text())
        assert ja["config_hash"] != jb["config_hash"]


class TestBlockWriter:
    """The block CSV writer against the old one-value-at-a-time writer."""

    def test_block_boundaries(self, tmp_path):
        import scalar_reference as scalar
        from screenforge import cli as climod

        rng = np.random.default_rng(3)
        assert climod._CSV_BLOCK_ROWS == 4096
        for count in (4095, 4096, 4097):
            rows = rng.normal(size=(count, 4)) * 10.0 ** rng.integers(-300, 300, size=(count, 4))
            rows[::97, 0] = np.resize([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 7.0],
                                      len(rows[::97]))
            header = ["a", "b", "c", "d"]
            climod._write_csv(str(tmp_path / "new.csv"), header, rows)
            scalar.write_csv(str(tmp_path / "old.csv"), header, rows.tolist())
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
            assert len((tmp_path / "new.csv").read_text().splitlines()) == count + 1

    def test_mechanism_with_nan_fees(self, tmp_path):
        import scalar_reference as scalar
        from screenforge import cli as climod
        from screenforge import mech as X
        from screenforge import model as M

        mdl = M.build_model({"name": "cl_uniform", "goods": 2})
        mech = X.solve_thresholds(mdl, np.linspace(0.0, 1.0, 21))
        assert mech.upfront is None
        climod.write_mechanism_csv(str(tmp_path / "new.csv"), mech)
        rows = [[float(g), float("nan")] + [float(p) for p in prow]
                for g, prow in zip(mech.gamma_grid, mech.strikes)]
        scalar.write_csv(str(tmp_path / "old.csv"), ["gamma", "t1", "p_1", "p_2"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert ",nan," in (tmp_path / "new.csv").read_text()

    def test_sample_with_several_types_and_corners(self, tmp_path):
        import scalar_reference as scalar
        from screenforge import model as M
        from screenforge.numerics import RngStream, uniform_draws

        family = {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}}
        gammas = [0.1, 0.5, 0.9]
        cfg = write_config(tmp_path, family=family,
                           sample={"count": 3000, "gammas": gammas, "corners": True})
        assert run("sample", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 0
        mdl = M.build_model(family)
        rows = []
        for gi, g in enumerate(gammas):
            z = np.vstack([[[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                           uniform_draws(RngStream(seed=4242, stream_id=100 + gi), 3000, 2)])
            theta = M.sample_theta(mdl, g, z)
            rows += [[float(g)] + [float(v) for v in zr] + [float(v) for v in tr]
                     for zr, tr in zip(z, theta)]
        header = ["gamma", "z_1", "z_2", "theta_1", "theta_2"]
        scalar.write_csv(str(tmp_path / "old.csv"), header, rows)
        assert ((tmp_path / "out" / "draws.csv").read_bytes()
                == (tmp_path / "old.csv").read_bytes())

    def test_oracle_mech_table(self, tmp_path):
        import scalar_reference as scalar
        from screenforge import cli as climod
        from screenforge import model as M
        from screenforge import oracle as O

        mdl = M.build_model({"name": "cl_uniform", "goods": 2})
        inst = O.discretize(mdl, 3, [2, 3])
        mech = O.solve_relaxed(inst).mechanism
        climod._write_mech_table(str(tmp_path / "new.csv"), inst, mech)
        header = ["gamma", "theta_1", "theta_2", "q_1", "q_2", "t2", "t1"]
        scalar.write_csv(str(tmp_path / "old.csv"), header, scalar.mech_table_rows(inst, mech))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _scalar_csv_matches(rows):
    """Whether _write_csv and the one-value-at-a-time writer give the same bytes for rows."""
    import scalar_reference as scalar

    header = [f"c{j}" for j in range(rows.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        climod._write_csv(new, header, rows)
        scalar.write_csv(old, header, rows.tolist())
        with open(new, "rb") as fa, open(old, "rb") as fb:
            return fa.read() == fb.read()


def _array_table(values, cols=4):
    """values in order, repeated to fill a table that the writer formats by array code."""
    values = np.asarray(values, dtype=float).ravel()
    rows = max(-(-len(values) // cols), -(-climod._CSV_VECTOR_FIELDS // cols))
    return np.resize(values, (rows, cols))


def _decades():
    return [float(f"1e{x}") for x in range(-330, 309)]


class TestFloatFormat:
    """The array code of _write_csv writes what %.17g writes, field by field."""

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats()))
    def test_any_floats(self, values):
        assert _scalar_csv_matches(_array_table(values))
        assert _scalar_csv_matches(values.reshape(-1, 1))

    def test_next_to_every_decade(self):
        powers = np.array(_decades())
        values = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
        assert _scalar_csv_matches(_array_table(np.concatenate([values, -values])))

    def test_ties_at_the_eighteenth_digit(self):
        # odd m / 2**(17 - X) in [10**X, 10**(X + 1)) times 10**(16 - X) is
        # an odd multiple of 1/2: a tie that only half-to-even settles
        # (m stays below 2**53 up to X = 14)
        ties = [np.arange(2**17 + 1, 4 * 2**17, 2) / 2.0**17]
        rng = np.random.default_rng(5)
        for x in range(-4, 15):
            lo, hi = int(np.ceil(10.0**x * 2.0**(17 - x))), int(10.0**(x + 1) * 2.0**(17 - x))
            m = rng.integers(lo, hi, size=2000) | 1
            ties.append(m / 2.0**(17 - x))
        values = np.concatenate(ties)
        assert len(values) > 200_000
        assert _scalar_csv_matches(_array_table(np.concatenate([values, -values])))

    def test_round_up_to_the_next_decade(self):
        # doubles below a power of ten whose 17 digits round up to it
        powers = _decades()
        texts = {"%.17g" % p for p in powers}
        near = powers + [float(np.nextafter(p, d)) for p in powers for d in (0.0, np.inf)]
        carried = [v for v in near
                   if "%.17g" % v in texts and Fraction(v) < Fraction("%.17g" % v)]
        assert len(carried) >= 10
        values = np.array(carried + near)
        assert _scalar_csv_matches(_array_table(np.concatenate([values, -values])))

    def test_zeros_and_short_tables(self):
        zeros = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5])
        assert _scalar_csv_matches(_array_table(zeros))
        assert _scalar_csv_matches(zeros.reshape(2, 3))
        assert _scalar_csv_matches(zeros.reshape(1, 6))
        assert _scalar_csv_matches(np.empty((0, 3)))
