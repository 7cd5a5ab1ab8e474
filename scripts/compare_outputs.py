#!/usr/bin/env python3
"""Byte comparison of every CLI output between two source trees.

    python scripts/compare_outputs.py A B

A and B are checkouts of this repository (each with a ``src/``).  Each
of ``solve``, ``audit``, ``identity``, ``oracle`` and ``sample`` runs in
a fresh interpreter on each tree, on the benchmark's full-size README
and logistic configs (``sample`` with ``corners: true``).  The script
lists every output file that differs or exists on one side only, and
every differing exit code; it exits 1 if there is any.
"""

import argparse
import filecmp
import json
import subprocess
import sys
import tempfile
from pathlib import Path

VERBS = ["solve", "audit", "identity", "oracle", "sample"]
FAMILIES = {
    "readme": {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}},
    "logi": {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}},
    "drift": {"name": "cl_uniform", "goods": 2,
              "copula": {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0}},
}
_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from screenforge import cli
print(cli.main([sys.argv[2], "--config", sys.argv[3], "--out", sys.argv[4], "--quiet"]))
"""


def make_config(family: str) -> dict:
    return {
        "family": FAMILIES[family],
        "seed": 7,
        "solve": {"gamma_grid": 101},
        "audit": {"gamma_grid": 51, "cycles": 1000, "cycle_length": 5},
        "identity": {"points": 1000, "families": list(FAMILIES.values())},
        "oracle": {"gamma_cells": 3, "theta_cells": [2, 3, 4, 5]},
        "sample": {"count": 100_000, "gammas": [0.3], "corners": True},
    }


def run_all(tree: Path, work: Path) -> dict:
    """{(config, verb): exit code}, outputs under work/<config>/<verb>."""
    codes = {}
    for family in ("readme", "logi"):
        cfg = work / f"{family}.json"
        cfg.write_text(json.dumps(make_config(family)))
        for verb in VERBS:
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, str(tree / "src"), verb, str(cfg),
                 str(work / family / verb)],
                capture_output=True, text=True, check=False)
            codes[family, verb] = proc.stdout.strip() or proc.stderr.strip().splitlines()[-1]
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
                    differ.append(f"{family}/{verb}/{name}: differs")
            print(f"{family:6s} {verb:8s} exit {code}: {len(names)} files")
    for line in differ:
        print(line)
    print(f"{compared} files compared, {len(differ)} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
