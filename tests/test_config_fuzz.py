"""Config fuzzing: one field of a valid tiny config at a time is set to a
bad type or an extreme value, and every verb must end in a documented
exit code with finite numbers in every JSON report it writes."""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screenforge import cli
from screenforge.errors import ConfigError

VERBS = ("solve", "audit", "identity", "oracle", "sample")
SECTIONS = {
    "solve": {"gamma_grid": 5},
    "audit": {"gamma_grid": 5, "cycles": 2, "cycle_length": 3,
              "tolerance_gain_rel": 1e-6, "ir_tol": 1e-8},
    "identity": {"points": 5, "divergence_tol": 1e-4, "boundary_tol": 1e-6,
                 "invariance_tol": 1e-8, "gamma_pair": [0.2, 0.8]},
    "oracle": {"gamma_cells": 2, "theta_cells": [2]},
    "sample": {"count": 5, "gammas": [0.3], "corners": True},
}
FAMILIES = [
    {"name": "cl_uniform", "goods": 2, "width": 1.0,
     "copula": {"name": "clayton", "alpha": 2.0, "alpha_slope": 0.0}},
    {"name": "logistic_shift", "goods": 1, "loc": 0.0, "shift": 1.0, "scale": 0.7,
     "box": [-4.0, 5.0]},
    {"name": "uniform_iid", "goods": 2, "box": [0.0, 1.0],
     "copula": {"name": "gaussian", "rho": 0.3, "rho_slope": 0.0}},
    {"name": "uniform_iid", "goods": 1, "box": [0.0, 1.0],
     "copula": {"name": "gaussian", "rho": 0.5, "rho_slope": 0.0}},
    # a smooth family under a drifting copula: solve takes the per-good score
    {"name": "logistic_shift", "goods": 2, "loc": 0.0, "shift": 1.0, "scale": 0.7,
     "box": [-4.0, 5.0], "copula": {"name": "gaussian", "rho": -0.4, "rho_slope": 1.2}},
]
FAMILY_IDS = ["cl_uniform", "logistic_shift", "uniform_iid", "uniform_iid_one_good_gaussian",
              "logistic_shift_drifting_gaussian"]
BIG = 2 ** 40
BAD_VALUES = ["x", True, None, [1, 2], math.nan, math.inf, -math.inf, 0, -1, BIG]
# keys that size an allocation: a value past the limit is only loaded,
# so load_config's arithmetic must refuse it before anything runs
SIZE_KEYS = {"goods", "gamma_grid", "cycles", "cycle_length", "points", "gamma_cells",
             "theta_cells", "count"}


def base_config(family: dict) -> dict:
    return {"family": family, "seed": 7, **SECTIONS}


def paths(node, prefix=()):
    """Every key path of a config: objects by key, lists by index."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutated(config: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(config)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


CASES = [(fi, path) for fi, fam in enumerate(FAMILIES) for path in paths(base_config(fam))]


def _finite_json(path: Path):
    def refuse(constant):
        raise AssertionError(f"{path.name} holds {constant}")

    json.loads(path.read_text(), parse_constant=refuse)


def run_all_verbs(config: dict, codes=(0, 2, 3, 4)):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        for verb in VERBS:
            out = Path(tmp) / verb
            code = cli.main([verb, "--config", str(cfg), "--out", str(out), "--quiet"])
            assert code in codes, (verb, code)
            if code == 0:
                for report in out.glob("*.json"):
                    _finite_json(report)


@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
def test_base_configs_run_clean(family):
    # a valid config must succeed on every verb, not just end in a documented code
    run_all_verbs(base_config(family), codes=(0,))


@pytest.mark.parametrize("family", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("block", ["family", "copula"])
def test_stray_family_key_exits_2(family, block):
    # a key that no family or copula reads is refused, as an unread verb key is
    config = base_config(copy.deepcopy(family))
    target = config["family"]
    if block == "copula":
        target = target.setdefault("copula", {"name": "independence"})
    target["stray"] = 1.0
    run_all_verbs(config, codes=(2,))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CASES), st.sampled_from(BAD_VALUES))
def test_one_bad_field_ends_in_a_documented_exit_code(case, value):
    family, path = case
    config = mutated(base_config(FAMILIES[family]), path, value)
    if not (SIZE_KEYS.intersection(path) and value == BIG):
        run_all_verbs(config)
        return
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(ConfigError):
            cli.load_config(str(cfg), path[0] if path[0] in VERBS else "solve")
