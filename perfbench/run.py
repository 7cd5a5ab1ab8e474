"""screenforge benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload continuum-logi --seed 1 --seconds 15 --trace 0

``--trace 0`` runs set-up probes, then passes over the workload's
operations until ``--seconds`` have elapsed (at least one pass), and
reports the end-to-end metrics.  ``--trace 1``
runs one untraced pass and one traced pass and reports the per-layer
metrics; the difference in wall time between the two passes is the
tracing overhead.  Every operation's output is checked in both modes.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it give every metric with its unit and
sample count, the environment, and (traced) the per-operation layer table
and the ROADMAP baseline cross-check.  ``SCREENFORGE_THREADS`` is removed
from the environment: the program runs single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_PROBES = 3

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")]

# A fresh interpreter: import screenforge (numpy and scipy with it), then
# load_config, which builds the model.
_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from screenforge import cli
print(cli.load_config(sys.argv[2], sys.argv[3]).model.label)
"""


def environment(seed: int, threads_was_set: bool) -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core
        highs = (f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
                 f"{_core.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
        "platform": platform.platform(),
        "seed": seed,
        "SCREENFORGE_THREADS": "unset" + (" (removed on entry)" if threads_was_set else ""),
    }


def setup_probe(wl) -> tuple:
    """Wall time of one fresh-interpreter set-up, and whether it succeeded."""
    config, verb = wl.setup_config()
    family = json.loads(Path(config).read_text())["family"]
    expected = f"{family['name']}/{family['goods']}g/{family['copula']['name']}"
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), str(config), verb],
                          capture_output=True, text=True, timeout=120, check=False)
    seconds = perf_counter() - t0
    return seconds, proc.returncode == 0 and proc.stdout.strip() == expected


def _summary(values) -> str:
    med = statistics.median(values)
    return f"median {med:.6g}  min {min(values):.6g}  max {max(values):.6g}  n={len(values)}"


def _op_lines(results) -> list:
    """Per-operation wall times: the verb metrics of the workload."""
    lines = []
    for name in dict.fromkeys(r.op.name for r in results):
        runs = [r for r in results if r.op.name == name]
        bad = [f"exit {r.exit_code}" if not r.problems else "; ".join(r.problems)
               for r in runs if r.failed]
        note = f"  failed {len(bad)}/{len(runs)}: {bad[0]}" if bad else ""
        lines.append(f"op {name}_s [s] {_summary([r.seconds for r in runs])}{note}")
    return lines


def timed_run(wl, seconds: float, probes: int) -> tuple:
    setups = [setup_probe(wl) for _ in range(probes)]
    wl.prepare()
    results, passes = [], []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        batch = [wl.run(op) for op in wl.ops]
        results += batch
        passes.append(sum(r.seconds for r in batch))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "pass_s": statistics.median(passes),
        "peak_rss_mb": rss_mb,
    }
    failed_setups = sum(not ok for _, ok in setups)
    lines = _op_lines(results) + [
        f"metric setup_s [s] {_summary([s for s, _ in setups])}"
        f"  failed {failed_setups}/{len(setups)}",
        f"metric pass_s [s] {_summary(passes)}  ops per pass {len(wl.ops)}",
        f"metric peak_rss_mb [MB] {rss_mb:.6g}  n=1",
    ]
    return results, setups, metrics, lines


def traced_run(wl) -> tuple:
    import crosscheck
    import tracer as tr

    wl.prepare()
    plain = [wl.run(op) for op in wl.ops]
    tracer = tr.Tracer()
    with tr.instrument(tracer):
        traced = [wl.run(op, tracer.call) for op in wl.ops]
    overhead = sum(r.seconds for r in traced) - sum(r.seconds for r in plain)
    spans = tracer.spans
    metrics = tr.analyze(spans, sum(r.out_bytes for r in traced), overhead)
    roots = [i for i, s in enumerate(spans) if s[4] < 0]
    if len(roots) != len(wl.ops):
        raise RuntimeError(f"{len(roots)} top-level spans for {len(wl.ops)} operations")
    table = tr.op_layer_table(spans, dict(zip(roots, (op.name for op in wl.ops))))
    tracer.dump(str(wl.workdir / "spans.jsonl"))
    units = dict(tr.PER_LAYER)
    lines = [f"layer {name} [{units[name]}] {metrics[name]:.6g}" for name, _ in tr.PER_LAYER]
    lines.append("optable op wall_s " + " ".join(f"{layer}_self_s" for layer in tr.LAYERS)
                 + " sum_rel_err untraced_s")
    for op, r in zip(wl.ops, plain):
        row = table[op.name]
        total = sum(row.get(layer, 0.0) for layer in tr.LAYERS)
        lines.append(f"optable {op.name} {row['wall']:.4f} "
                     + " ".join(f"{row.get(layer, 0.0):.4f}" for layer in tr.LAYERS)
                     + f" {abs(total - row['wall']) / row['wall']:.1e} {r.seconds:.4f}")
    lines.append(f"trace overhead {overhead:.4f} s over {sum(r.seconds for r in plain):.4f} s "
                 f"untraced; spans {len(spans)} written to {wl.workdir / 'spans.jsonl'}")
    lines += crosscheck.lines(wl.name, spans, plain)
    return plain + traced, [], metrics, lines


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", probes: int = SETUP_PROBES) -> tuple:
    """Run one workload; returns (human-readable lines, result dict)."""
    import tracer as tr

    threads_was_set = os.environ.pop("SCREENFORGE_THREADS", None) is not None
    wl = workloads.Workload(workload, seed, WORKDIR / workload, size)
    env = environment(seed, threads_was_set)
    # Untimed warm-up on the reduced inputs: lazy imports and caches fill
    # here, not in the first timed operation.
    warm = workloads.Workload(workload, seed, WORKDIR / workload / "warmup", "small")
    for op in warm.ops:
        warm.run(op)
    if trace:
        results, setups, metrics, lines = traced_run(wl)
        units = dict(tr.PER_LAYER)
    else:
        results, setups, metrics, lines = timed_run(wl, seconds, probes)
        units = dict(END_TO_END)
    attempted = len(results) + len(setups)
    failed = sum(r.failed for r in results) + sum(not ok for _, ok in setups)
    correct = all(not r.problems for r in results) and all(ok for _, ok in setups)
    lines.insert(0, "env " + json.dumps(env, sort_keys=True))
    lines.insert(1, f"workload {workload} size {size} seed {seed} trace {int(trace)} "
                    f"closed loop, 1 client, 1 thread")
    lines.append(f"fail_frac [ratio] {failed / attempted:.6g} = {failed} failed / "
                 f"{attempted} attempted operations (verbs, API calls, set-up probes)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"env": env, "workload": workload, "size": size, "trace": int(trace),
              "operations": [[r.op.name, r.seconds, r.exit_code, r.problems] for r in results],
              "result": result}
    with open(wl.workdir / f"result_seed{seed}_trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "screenforge" / "__init__.py").is_file():
        print(f"error: no screenforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    lines, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
