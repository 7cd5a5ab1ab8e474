#!/usr/bin/env python3
"""Solve every regime LP on two grids of oracle rungs and report each outcome.

    python scripts/scan_rungs.py [--src DIR] [--json FILE]

Scan 1 (192 solves): the two-good logi (logistic + Gaussian rho 0.5),
driftlogi (rho -0.4, slope 1.2), driftlogi8 (rho -0.8, slope 1.6) and
readme (``cl_uniform`` + Clayton alpha 2) families at 3-6 type cells and
4-7 cells per good.  Scan 2 (324 solves): two-good logistic + Clayton
alpha 2 slope 1 and driftlogi8 at 3-8 type cells and 3-8 cells per
good; three-good gauss3 (``cl_uniform`` + Gaussian rho 0.5), gauss3neg
(rho -0.49), logi3 (logistic + rho 0.5) and drift3 (logistic, rho -0.3,
slope 0.5) at 2-5 type cells and 2-3 cells per good; four-good logistic +
Gaussian rho -0.3 at 2-3 type cells and 2-3 cells per good.  Every rung
is solved in the simultaneous, sequential and relaxed regimes.

Each solve is one ``discretize`` and one regime solver, all in this
process.  Its outcome is "solved" (the polished vertex passed its
re-check), "pre-polish vertex written" (the polished vertex failed and
HiGHS's own vertex was written), either one after "orbit fallback" (the
simultaneous program over orbits of goods failed and the full program
was solved), or the error's class and message.  The script wraps
``oracle._recheck`` and ``oracle._solve_simultaneous`` to see these.  It
prints one line per solve (outcome, value, seconds) and the count per
outcome of each scan.  ``--src`` scans another checkout's ``src/``
(default: this one's), and ``--json`` writes every solve's outcome,
value and seconds, for comparing two trees.  The driftlogi8 7x8x8 and
8x8x8 sequential rungs take 42-49 s each on 2 vCPUs.
"""

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _gaussian(rho, slope=0.0):
    return {"name": "gaussian", "rho": rho, **({"rho_slope": slope} if slope else {})}


LOGI = {"name": "logistic_shift", "goods": 2, "copula": _gaussian(0.5)}
DRIFTLOGI = {"name": "logistic_shift", "goods": 2, "copula": _gaussian(-0.4, 1.2)}
DRIFTLOGI8 = {"name": "logistic_shift", "goods": 2, "copula": _gaussian(-0.8, 1.6)}
README = {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}}
LOGICLAYDRIFT = {"name": "logistic_shift", "goods": 2,
                 "copula": {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0}}
GAUSS3 = {"name": "cl_uniform", "goods": 3, "copula": _gaussian(0.5)}
GAUSS3NEG = {"name": "cl_uniform", "goods": 3, "copula": _gaussian(-0.49)}
LOGI3 = {"name": "logistic_shift", "goods": 3, "copula": _gaussian(0.5)}
DRIFT3 = {"name": "logistic_shift", "goods": 3, "copula": _gaussian(-0.3, 0.5)}
LOGI4NEG = {"name": "logistic_shift", "goods": 4, "copula": _gaussian(-0.3)}

# scan: [(name, family, type cells, cells per good)]
SCANS = {
    "scan 1": [(name, family, range(3, 7), range(4, 8)) for name, family in (
        ("logi", LOGI), ("driftlogi", DRIFTLOGI), ("driftlogi8", DRIFTLOGI8), ("readme", README))],
    "scan 2": [
        ("logiclaydrift", LOGICLAYDRIFT, range(3, 9), range(3, 9)),
        ("driftlogi8", DRIFTLOGI8, range(3, 9), range(3, 9)),
        *((name, family, range(2, 6), range(2, 4)) for name, family in (
            ("gauss3", GAUSS3), ("gauss3neg", GAUSS3NEG), ("logi3", LOGI3), ("drift3", DRIFT3))),
        ("logi4neg", LOGI4NEG, range(2, 4), range(2, 4)),
    ],
}
REGIMES = ("simultaneous", "sequential", "relaxed")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--json", type=Path, default=None)
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from screenforge import model as M
    from screenforge import oracle as O
    from screenforge.errors import ConvergenceError

    checks, programs = [], []
    recheck, solve_program = O._recheck, O._solve_simultaneous

    def recorded_recheck(inst, mech):
        try:
            recheck(inst, mech)
        except ConvergenceError:
            checks.append(False)
            raise
        checks.append(True)

    def recorded_program(inst, group):
        programs.append(len(checks))
        return solve_program(inst, group)

    O._recheck, O._solve_simultaneous = recorded_recheck, recorded_program

    results = {}
    for scan, grid in SCANS.items():
        counts = Counter()
        for name, family, type_cells, cells in grid:
            model = M.build_model(family)
            for m in type_cells:
                for k in cells:
                    for regime in REGIMES:
                        checks.clear()
                        programs.clear()
                        t0 = perf_counter()
                        value = None
                        try:
                            inst = O.discretize(model, m, k)
                            value = getattr(O, f"solve_{regime}")(inst).value
                        except Exception as exc:  # every failure is an outcome
                            outcome = f"{type(exc).__name__}: {exc}"
                        else:
                            last = checks[programs[-1] if programs else 0:]
                            outcome = "solved" if last == [True] else "pre-polish vertex written"
                            if len(programs) > 1:
                                outcome = f"orbit fallback, {outcome}"
                        seconds = perf_counter() - t0
                        key = f"{scan} {name} {m}x{k}^{family['goods']} {regime}"
                        results[key] = {"outcome": outcome, "value": value, "seconds": seconds}
                        counts[outcome] += 1
                        print(f"{key:48s} {outcome:24s} {value!r:22s} {seconds:7.2f} s",
                              flush=True)
        print(f"{scan}, {sum(counts.values())} solves:")
        for outcome, count in sorted(counts.items()):
            print(f"{count:5d}  {outcome}")
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
