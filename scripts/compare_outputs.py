#!/usr/bin/env python3
"""Byte comparison of every CLI output between two source trees.

    python scripts/compare_outputs.py A B

A and B are checkouts of this repository (each with a ``src/``).  Each
of ``solve``, ``audit``, ``identity``, ``oracle`` and ``sample`` runs in
a fresh interpreter on each tree, on the benchmark's full-size README
and logistic configs, on a one-good drifting Clayton config, on two
two-good logistic configs under a drifting Gaussian copula (rho from
-0.4 to 0.8, and from -0.8 to 0.8, the most negative two-good loading
the tests pin), on a two-good logistic config under an invariant Clayton
copula (alpha 2; its ``solve`` integrates the joint score under the
Clayton link), on two three-good uniform configs under a Gaussian
copula (rho 0.5, and rho -0.49, whose ladder carries cell masses of
about 3e-17), on a three-good logistic config under a Gaussian copula
(its ``solve`` integrates the joint score on 3-D grids), and on a
three-good logistic config whose Gaussian rho drifts from -0.3 to 0.2.
Every Gaussian config's ``oracle`` takes the copula cdf's one-factor
integral, and ``sample`` runs with ``corners: true``.  ``oracle`` alone
also runs on the rho -0.49 config with 5 type cells in place of 3: its
5 x 5^3 rung is the largest here, and the ladder takes about 95 s on 2
vCPUs.  All five verbs also run on a ``defaults`` config: the README
family and a seed with no verb sections, so that every key takes its
default and a default that moves shows up as a byte difference.  The
script lists every output file that differs or exists on one side only,
and every differing exit code; it exits 1 if there is any.  For a
differing CSV or JSON file it also prints the largest absolute
difference between the numbers the two files hold in the same places,
or says that the text around the numbers differs.
"""

import argparse
import filecmp
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

VERBS = ["solve", "audit", "identity", "oracle", "sample"]
FAMILIES = {
    "readme": {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}},
    "logi": {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}},
    "drift": {"name": "cl_uniform", "goods": 2,
              "copula": {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0}},
    "drift1g": {"name": "cl_uniform", "goods": 1,
                "copula": {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0}},
    "driftlogi": {"name": "logistic_shift", "goods": 2,
                  "copula": {"name": "gaussian", "rho": -0.4, "rho_slope": 1.2}},
    "driftlogi8": {"name": "logistic_shift", "goods": 2,
                   "copula": {"name": "gaussian", "rho": -0.8, "rho_slope": 1.6}},
    "gauss3": {"name": "cl_uniform", "goods": 3, "copula": {"name": "gaussian", "rho": 0.5}},
    "gauss3neg": {"name": "cl_uniform", "goods": 3, "copula": {"name": "gaussian", "rho": -0.49}},
    # smooth and invariant: solve integrates the joint score under the Clayton link
    "logiclay": {"name": "logistic_shift", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}},
    # smooth and invariant: solve integrates the joint score on 3-D grids
    "logi3": {"name": "logistic_shift", "goods": 3, "copula": {"name": "gaussian", "rho": 0.5}},
    # the per-type rho crosses 0, so both loadings of the Gaussian cdf run
    "drift3": {"name": "logistic_shift", "goods": 3,
               "copula": {"name": "gaussian", "rho": -0.3, "rho_slope": 0.5}},
}
# the configs run, each under its own family
CONFIGS = ("readme", "logi", "drift1g", "driftlogi", "driftlogi8", "logiclay", "gauss3", "gauss3neg",
           "logi3", "drift3")
# oracle only, on a family above under another oracle section
ORACLE_CONFIGS = {"gauss3neg5": ("gauss3neg", {"gamma_cells": 5, "theta_cells": [2, 3, 4, 5]})}
# all five verbs with every section key at its default
DEFAULTS_CONFIG = {"family": FAMILIES["readme"], "seed": 7}
# identity checks these on every config, then the config's own family
IDENTITY_FAMILIES = ("readme", "logi", "drift")
_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from screenforge import cli
print(cli.main([sys.argv[2], "--config", sys.argv[3], "--out", sys.argv[4], "--quiet"]))
"""

# a number standing on its own: not the digit of a name such as theta_1
_NUMBER = re.compile(r"(?<![\w.])(?:[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|[-+]?(?:nan|inf(?:inity)?))(?![\w.])", re.IGNORECASE)


def moved(a: Path, b: Path) -> str:
    """How far a differing CSV or JSON file moved: the largest absolute
    difference between numbers in the same places of A and B."""
    text_a, text_b = a.read_text(), b.read_text()
    if _NUMBER.split(text_a) != _NUMBER.split(text_b):
        return "text around the numbers differs"
    x, y = (np.array(_NUMBER.findall(t), dtype=float) for t in (text_a, text_b))
    with np.errstate(invalid="ignore"):  # inf - inf; equal entries are zeroed next
        diff = np.abs(x - y)
    diff[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
    return f"largest |difference| {diff.max(initial=0.0):.3g} over {len(x)} numbers"


def make_config(family: str, oracle: dict | None = None) -> dict:
    return {
        "family": FAMILIES[family],
        "seed": 7,
        "solve": {"gamma_grid": 101},
        "audit": {"gamma_grid": 51, "cycles": 1000, "cycle_length": 5},
        "identity": {"points": 1000, "families": [
            FAMILIES[f] for f in dict.fromkeys(IDENTITY_FAMILIES + (family,))]},
        "oracle": oracle or {"gamma_cells": 3, "theta_cells": [2, 3, 4, 5]},
        "sample": {"count": 100_000, "gammas": [0.3], "corners": True},
    }


def run_all(tree: Path, work: Path) -> dict:
    """{(config, verb): exit code}, outputs under work/<config>/<verb>."""
    runs = [(name, make_config(name), VERBS) for name in CONFIGS]
    runs += [(name, make_config(family, oracle), ["oracle"])
             for name, (family, oracle) in ORACLE_CONFIGS.items()]
    runs.append(("defaults", DEFAULTS_CONFIG, VERBS))
    codes = {}
    for name, config, verbs in runs:
        cfg = work / f"{name}.json"
        cfg.write_text(json.dumps(config))
        for verb in verbs:
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, str(tree / "src"), verb, str(cfg),
                 str(work / name / verb)],
                capture_output=True, text=True, check=False)
            codes[name, verb] = proc.stdout.strip() or proc.stderr.strip().splitlines()[-1]
    return codes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = {side: Path(tmp) / side for side in ("a", "b")}
        codes = {}
        for side, tree in (("a", args.a), ("b", args.b)):
            work[side].mkdir()
            codes[side] = run_all(tree.resolve(), work[side])
        differ, compared = [], 0
        for (family, verb), code in codes["a"].items():
            if code != codes["b"][family, verb]:
                differ.append(f"{family}/{verb}: exit {code} vs {codes['b'][family, verb]}")
            dirs = [work[side] / family / verb for side in ("a", "b")]
            names = sorted({p.name for d in dirs for p in d.glob("*")})
            for name in names:
                compared += 1
                a, b = (d / name for d in dirs)
                if not (a.exists() and b.exists()):
                    differ.append(f"{family}/{verb}/{name}: only in {'A' if a.exists() else 'B'}")
                elif not filecmp.cmp(a, b, shallow=False):
                    how = f", {moved(a, b)}" if a.suffix in (".csv", ".json") else ""
                    differ.append(f"{family}/{verb}/{name}: differs{how}")
            print(f"{family:10s} {verb:8s} exit {code}: {len(names)} files")
    for line in differ:
        print(line)
    print(f"{compared} files compared, {len(differ)} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
