#!/usr/bin/env python3
"""A/B run of the benchmark on two source trees, written as one JSON file.

    python scripts/bench_ab.py A B --out BENCH_<n>.json [--pairs 10] [--seed 1]

A and B are checkouts of this repository; A is the base, B the change.
For every workload that ``BENCHMARK.json`` lists, each pair runs
``<tree>/perfbench/run.py --trace 0`` once on each tree, with the same
seed and the ``run_seconds`` of ``BENCHMARK.json``, in a fresh
interpreter; which tree runs first alternates from pair to pair.  Pair i
uses seed ``--seed + i``.  Nothing in either tree is changed, apart from
the benchmark's own scratch directory ``.perfbench_work``.  A tree that
holds a ``__pycache__`` directory is refused: its compiled modules are
read even where writing them is off, so a stale one in one tree only
once read ``setup_s`` about 18% low.  Compare clean copies (``git
archive``, or a copy made before any test run).

The output records the machine and the versions (from the benchmark's
``env`` line), every run's end-to-end metrics, correctness, failures and
median wall time per operation (its ``op <verb>_s`` lines), and per
workload: each side's median of those per operation, and per metric each
side's median, quartiles and IQR, the pairs B wins and ties, B's median
relative to A's against the bound in ``BENCHMARK.json``, and whether B's
gain meets the claim rule (B wins at least nine tenths of the pairs and
the medians differ by more than A's IQR).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its result line and its env line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name}/{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    # "op <verb>_s [s] median <t> ...": the run's median wall time of each operation
    ops = {line.split()[1]: float(line.split()[4]) for line in lines if line.startswith("op ")}
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "ops": ops,
            "env": env}


def quartiles(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(runs_a, runs_b, metric: dict) -> dict:
    """Both sides' spread for one metric and how B fares against A."""
    name, lower = metric["name"], metric["better"] == "lower"
    a = [r["metrics"][name] for r in runs_a]
    b = [r["metrics"][name] for r in runs_b]
    sa, sb = quartiles(a), quartiles(b)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    ties = sum(y == x for x, y in zip(a, b))
    gain = (sa["median"] - sb["median"]) if lower else (sb["median"] - sa["median"])
    worse = -gain / abs(sa["median"]) if sa["median"] else 0.0
    return {"unit": metric["unit"], "better": metric["better"], "a": sa, "b": sb,
            "pairs": len(a), "b_wins": wins, "ties": ties,
            "b_relative_to_a": sb["median"] / sa["median"] - 1.0 if sa["median"] else None,
            "bound": metric["bound"], "within_bound": worse <= metric["bound"],
            "gain_rule_met": wins >= 0.9 * len(a) and gain > sa["iqr"]}


def op_medians(runs) -> dict:
    """Per operation, the median over runs of each run's median wall time."""
    names = dict.fromkeys(name for r in runs for name in r["ops"])
    return {name: statistics.median(r["ops"][name] for r in runs if name in r["ops"])
            for name in names}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    for tree in trees.values():
        cache = next(tree.rglob("__pycache__"), None)
        if cache is not None:
            ap.error(f"{cache} holds compiled modules; compare clean copies of both trees")
    runs = {wl["name"]: {"a": [], "b": []} for wl in bench["workloads"]}
    env = None
    for i in range(args.pairs):
        for wl in runs:
            for side in ("ab" if i % 2 == 0 else "ba"):
                run = run_once(trees[side], wl, args.seed + i, seconds)
                env = env or run["env"]
                runs[wl][side].append({k: v for k, v in run.items() if k != "env"})
                print(f"pair {i} {wl:16s} {side} pass_s {run['metrics']['pass_s']:.4f}"
                      f" correct {run['correct']}", flush=True)
    report = {
        "machine": {k: env[k] for k in ("nproc", "cpu_model", "platform")},
        "versions": {k: env[k] for k in ("python", "numpy", "scipy", "highs")},
        "command": "perfbench/run.py --trace 0",
        "run_seconds": seconds,
        "pairs": args.pairs,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "order": "a first in even pairs, b first in odd pairs",
        "workloads": {
            wl: {"metrics": {m["name"]: compare(sides["a"], sides["b"], m)
                             for m in bench["end_to_end"]},
                 "op_medians_s": {s: op_medians(sides[s]) for s in "ab"},
                 "correct": {s: all(r["correct"] for r in sides[s]) for s in "ab"},
                 "failed": {s: sum(r["failed"] for r in sides[s]) for s in "ab"},
                 "attempted": {s: sum(r["attempted"] for r in sides[s]) for s in "ab"},
                 "runs": sides}
            for wl, sides in runs.items()},
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for wl, rep in report["workloads"].items():
        for name, m in rep["metrics"].items():
            print(f"{wl:16s} {name:12s} a {m['a']['median']:.4g} (IQR {m['a']['iqr']:.3g})"
                  f"  b {m['b']['median']:.4g} (IQR {m['b']['iqr']:.3g})"
                  f"  b wins {m['b_wins']}/{m['pairs']}  within bound {m['within_bound']}"
                  f"  gain rule {m['gain_rule_met']}")
        ops = rep["op_medians_s"]
        print(f"{wl:16s} ops (median s): " + "  ".join(
            f"{op} a {ops['a'][op]:.4g} b {ops['b'].get(op, float('nan')):.4g}" for op in ops["a"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
