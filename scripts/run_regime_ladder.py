#!/usr/bin/env python3
"""Refinement ladder comparing the four contracting regimes on grids.

For every rung it prints each regime's value, its wall time and the rows
of its LP.  With --joint the type cells follow the valuation cells, as
in the k x k x k joint ladder.
"""

import argparse
from time import perf_counter

from screenforge import model as M
from screenforge import oracle as O

COPULAS = {
    "independence": {"name": "independence"},
    "clayton": {"name": "clayton", "alpha": 2.0},
    "gaussian": {"name": "gaussian", "rho": 0.5},
}
REGIMES = {
    "simultaneous": O.solve_simultaneous,
    "sequential": O.solve_sequential,
    "relaxed": O.solve_relaxed,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--goods", type=int, default=2)
    ap.add_argument("--gamma-cells", type=int, default=3)
    ap.add_argument("--joint", action="store_true",
                    help="use k type cells on the k-cell rung instead of --gamma-cells")
    ap.add_argument("--cells", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--family", default="cl_uniform",
                    choices=["cl_uniform", "uniform_iid", "logistic_shift"])
    ap.add_argument("--copula", default="independence", choices=sorted(COPULAS))
    args = ap.parse_args()

    model = M.build_model({"name": args.family, "goods": args.goods,
                           "copula": COPULAS[args.copula]})
    types = "k" if args.joint else str(args.gamma_cells)
    print(f"family: {model.label}, {types} type cells")
    print(f"{'cells':>6} {'regime':>13} {'value':>12} {'time_s':>9} {'lp_rows':>8}")
    for k in args.cells:
        inst = O.discretize(model, k if args.joint else args.gamma_cells, k)
        values = {}
        for regime, solve in REGIMES.items():
            t0 = perf_counter()
            rep = solve(inst)
            values[regime] = rep.value
            print(f"{k:>6} {regime:>13} {rep.value:12.8f} {perf_counter() - t0:9.3f} {rep.rows:8d}")
        t0 = perf_counter()
        sep = O.separate_selling_value(inst)
        print(f"{k:>6} {'separate':>13} {sep:12.8f} {perf_counter() - t0:9.3f}")
        sim = values["simultaneous"]
        flags = [values["relaxed"] >= sim - 1e-9, sim >= sep - 1e-9,
                 values["sequential"] >= sim - 1e-9]
        print(f"{'':>6} surplus {O.full_surplus(inst):.6f}; orderings (1e-9): "
              f"relaxed>=simult {flags[0]}, simult>=separate {flags[1]}, "
              f"sequent>=simult {flags[2]}")


if __name__ == "__main__":
    main()
