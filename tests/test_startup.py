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
import json, sys, types
# the package's __init__ exports the continuum solver, so it is bypassed:
# only the oracle's own imports are loaded
pkg = types.ModuleType("screenforge")
pkg.__path__ = [{pkg!r}]
sys.modules["screenforge"] = pkg
import screenforge.oracle
print(json.dumps(sorted(m for m in sys.modules if m.startswith("screenforge."))))
"""


def test_oracle_does_not_import_the_continuum_solver():
    # the LP oracle verifies the continuum menus, so it shares no module with them
    code = _ORACLE_ALONE.format(pkg=str(Path(screenforge.__file__).resolve().parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    mods = json.loads(proc.stdout.splitlines()[-1])
    assert "screenforge.oracle" in mods
    assert "screenforge.mech" not in mods


def test_oracle_names_from_package():
    from screenforge import (DiscreteInstance, DiscreteMechanism, SolveReport, discretize,
                             oracle, solve_relaxed, solve_sequential, solve_simultaneous)

    assert [DiscreteInstance, DiscreteMechanism, SolveReport, discretize, solve_relaxed,
            solve_sequential, solve_simultaneous] == [
        oracle.DiscreteInstance, oracle.DiscreteMechanism, oracle.SolveReport,
        oracle.discretize, oracle.solve_relaxed, oracle.solve_sequential,
        oracle.solve_simultaneous]
    with pytest.raises(AttributeError):
        screenforge.no_such_name
