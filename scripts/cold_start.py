#!/usr/bin/env python3
"""Cold wall time of each CLI verb: a fresh interpreter per run.

    python scripts/cold_start.py CONFIG [--runs N]

Each run starts ``python -c`` on the ``src/`` next to this script, runs
``cli.main`` for one verb into a temporary directory and exits.  The runs
alternate the order of the verbs.  For each verb the script prints the
median and quartiles of the wall time and which of scipy.special,
scipy.sparse and scipy.optimize the verb loaded.
"""

import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
VERBS = ["solve", "audit", "identity", "oracle", "sample"]
WATCHED = ["scipy.special", "scipy.sparse", "scipy.optimize"]
_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from screenforge import cli
code = cli.main([sys.argv[2], "--config", sys.argv[3], "--out", sys.argv[4], "--quiet"])
print(code, *[m for m in sys.argv[5:] if m in sys.modules])
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()
    times = {verb: [] for verb in VERBS}
    loaded = {}
    with tempfile.TemporaryDirectory() as out:
        for run in range(args.runs):
            for verb in VERBS if run % 2 == 0 else VERBS[::-1]:
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, "-c", _CHILD, str(SRC), verb, args.config,
                                       out, *WATCHED], capture_output=True, text=True, check=True)
                times[verb].append(time.perf_counter() - t0)
                loaded[verb] = proc.stdout.split()
    print(f"{'verb':9s} {'median_s':>9s} {'q1_s':>7s} {'q3_s':>7s}  exit  scipy loaded")
    for verb in VERBS:
        q1, med, q3 = np.percentile(times[verb], [25, 50, 75])
        code, *mods = loaded[verb]
        print(f"{verb:9s} {med:9.3f} {q1:7.3f} {q3:7.3f}  {code:>4s}  {' '.join(mods) or '-'}")


if __name__ == "__main__":
    main()
