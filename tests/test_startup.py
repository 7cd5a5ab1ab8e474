"""Import boundary of the CLI: each verb loads only the scipy modules it calls.

Every case runs in a fresh interpreter, because this test process has
already imported scipy through other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import screenforge

SRC = str(Path(screenforge.__file__).resolve().parent.parent)

_RUN = """
import json, sys
sys.path.insert(0, {src!r})
from screenforge import cli
codes = [cli.main([verb, "--config", {config!r}, "--out", {out!r}, "--quiet"])
         for verb in {verbs!r}]
{extra}
print(json.dumps({{"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}))
"""

CLAYTON = {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}}
GAUSSIAN = {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}}


def loaded(tmp_path, family, verbs, extra=""):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "family": family,
        "solve": {"gamma_grid": 21},
        "audit": {"gamma_grid": 11, "cycles": 20},
        "sample": {"count": 50},
        "oracle": {"gamma_cells": 2, "theta_cells": [2]},
    }))
    code = _RUN.format(src=SRC, config=str(config), out=str(tmp_path / "out"),
                       verbs=list(verbs), extra=extra)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], set(result["scipy"])


def test_continuum_verbs_load_no_scipy(tmp_path):
    codes, mods = loaded(tmp_path, CLAYTON, ["solve", "audit", "sample"])
    assert codes == [0, 0, 0]
    assert mods == set()


def test_oracle_config_loads_without_the_lp_solver(tmp_path):
    extra = f"cli.load_config({str(tmp_path / 'cfg.json')!r}, 'oracle')"
    codes, mods = loaded(tmp_path, CLAYTON, [], extra)
    assert codes == []
    assert "scipy.optimize" not in mods


def test_gaussian_config_loads_no_scipy(tmp_path):
    # the benchmark's set-up probe: import the CLI and load a solve config;
    # the copulas' normal scores import scipy.special only when called
    extra = f"cli.load_config({str(tmp_path / 'cfg.json')!r}, 'solve')"
    codes, mods = loaded(tmp_path, GAUSSIAN, [], extra)
    assert codes == []
    assert mods == set()


def test_gaussian_solve_loads_special_only(tmp_path):
    codes, mods = loaded(tmp_path, GAUSSIAN, ["solve"])
    assert codes == [0]
    assert "scipy.special" in mods
    assert "scipy.optimize" not in mods


def test_oracle_loads_highs(tmp_path):
    codes, mods = loaded(tmp_path, CLAYTON, ["oracle"])
    assert codes == [0]
    assert "scipy.optimize._highspy" in mods


_ORACLE_ALONE = """
import json, sys
sys.path.insert(0, {src!r})
import screenforge.oracle
print(json.dumps(sorted(m for m in sys.modules if m.startswith("screenforge."))))
"""


def test_oracle_does_not_import_the_continuum_solver():
    # the LP oracle verifies the continuum menus, so it shares no module
    # with them, also when imported through the package
    proc = subprocess.run([sys.executable, "-c", _ORACLE_ALONE.format(src=SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    mods = json.loads(proc.stdout.splitlines()[-1])
    assert "screenforge.oracle" in mods
    assert "screenforge.mech" not in mods


def test_oracle_names_from_package():
    from screenforge import (DiscreteInstance, DiscreteMechanism, InterimUtilityCurve,
                             SolveReport, ThresholdMechanism, discretize, ic_audit, mech, oracle,
                             revenue_direct, revenue_functional, revenue_impulse_form,
                             solve_relaxed, solve_sequential, solve_simultaneous,
                             solve_thresholds, upfront_t1, virtual_value)

    assert [DiscreteInstance, DiscreteMechanism, SolveReport, discretize, solve_relaxed,
            solve_sequential, solve_simultaneous] == [
        oracle.DiscreteInstance, oracle.DiscreteMechanism, oracle.SolveReport,
        oracle.discretize, oracle.solve_relaxed, oracle.solve_sequential,
        oracle.solve_simultaneous]
    assert [InterimUtilityCurve, ThresholdMechanism, ic_audit, revenue_direct,
            revenue_functional, revenue_impulse_form, solve_thresholds, upfront_t1,
            virtual_value] == [
        mech.InterimUtilityCurve, mech.ThresholdMechanism, mech.ic_audit, mech.revenue_direct,
        mech.revenue_functional, mech.revenue_impulse_form, mech.solve_thresholds,
        mech.upfront_t1, mech.virtual_value]
    with pytest.raises(AttributeError):
        screenforge.no_such_name
