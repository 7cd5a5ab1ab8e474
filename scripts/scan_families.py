#!/usr/bin/env python3
"""Run ``solve`` on a grid of one-good ``logistic_shift`` families.

    python scripts/scan_families.py [--src DIR] [--json FILE]

The grid is shift {0.2, 1, 3, 6} x scale {0.05, 0.2, 0.7, 2} x box
{[-4, 5], [0, 2], [-1, 1]} x loc {0, -2, 2}: 144 configs, each at the
default ``solve`` section.  Each runs in this process through
``cli.main``, so its outcome is the exit code ``solve`` gives, with the
kind of failure: its message up to the first colon ("config error" for 2,
"regularity failure" for 3, "solver failure" for 4), or for a
regularity report that is not ok (3) the checks it fails.  The script
prints one line per config and the count per outcome.  ``--src`` scans
another checkout's ``src/`` (default: this one's), and ``--json`` writes
every config's outcome and, where it solved, its strikes, for comparing
two trees.
"""

import argparse
import contextlib
import io
import itertools
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIFTS = (0.2, 1.0, 3.0, 6.0)
SCALES = (0.05, 0.2, 0.7, 2.0)
BOXES = ([-4.0, 5.0], [0.0, 2.0], [-1.0, 1.0])
LOCS = (0.0, -2.0, 2.0)


def failed_checks(path: Path) -> list:
    """The checks a regularity report that is not ok fails, by name."""
    rep = json.loads(path.read_text())
    checks = {"virtual value re-crosses zero": rep["crossing_violations"],
              "strike path rises in gamma": (rep["worst_gamma_monotonicity"] or 0.0) < -1e-9,
              "cdf rises in gamma": (rep["worst_f_gamma"] or 0.0) > 1e-9,
              "not finite": any(k.startswith("non_finite") for k in rep["locations"])}
    return [name for name, failed in checks.items() if failed]


def solve(cli, family: dict, work: Path) -> tuple:
    """(outcome, strikes or None) of ``solve`` on one family."""
    work.mkdir()
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps({"family": family, "seed": 7}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["solve", "--config", str(cfg), "--out", str(work / "out"), "--quiet"])
    kind = err.getvalue().split(":")[0]
    if code == 3 and not kind:
        kind = "regularity report: " + ", ".join(failed_checks(work / "out" / "regularity.json"))
    outcome = f"exit {code}" + (f" ({kind})" if kind else "")
    if code != 0:
        return outcome, None
    rows = (work / "out" / "mechanism.csv").read_text().splitlines()[1:]
    return outcome, [float(row.split(",")[2]) for row in rows]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--json", type=Path, default=None)
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from screenforge import cli

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (shift, scale, box, loc) in enumerate(itertools.product(SHIFTS, SCALES, BOXES, LOCS)):
            family = {"name": "logistic_shift", "goods": 1, "shift": shift, "scale": scale,
                      "box": box, "loc": loc}
            key = f"shift {shift:g} scale {scale:g} box [{box[0]:g}, {box[1]:g}] loc {loc:g}"
            outcome, strikes = solve(cli, family, Path(tmp) / str(i))
            results[key] = {"outcome": outcome, "strikes": strikes}
            print(f"{key:40s} {outcome}", flush=True)
    for outcome, count in sorted(Counter(r["outcome"] for r in results.values()).items()):
        print(f"{count:4d}  {outcome}")
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
