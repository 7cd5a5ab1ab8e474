"""Span tracer that wraps screenforge's public functions from outside.

Nothing in ``src/`` is instrumented.  ``instrument`` replaces each traced
function at the name its caller looks up (``screenforge.oracle.lp_solve``,
``screenforge.mech.gauss_rule``, copula methods on their classes, the
marginal callables of every model ``build_model`` returns) and restores
the originals on exit.  Every call becomes a span ``[name, layer, start,
end, parent, info]`` kept in memory; ``analyze`` derives the per-layer
metrics from the spans alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("numerics", "copulas", "model", "mech", "lp", "oracle", "cli")

# (module, attribute, span name); the layer is the span name's prefix.
_FUNCTIONS = [
    ("screenforge.mech", "gauss_rule", "numerics.gauss_rule"),
    ("screenforge.mech", "bisect_root", "numerics.bisect_root"),
    ("screenforge.model", "build_model", "model.build_model"),
    ("screenforge.model", "sample_theta", "model.sample_theta"),
    ("screenforge.model", "divergence_residual", "model.divergence_residual"),
    ("screenforge.model", "boundary_residual", "model.boundary_residual"),
    ("screenforge.model", "invariance_residual", "model.invariance_residual"),
    ("screenforge.mech", "regularity_report", "mech.regularity_report"),
    ("screenforge.mech", "solve_thresholds", "mech.solve_thresholds"),
    ("screenforge.mech", "upfront_t1", "mech.upfront_t1"),
    ("screenforge.mech", "revenue_direct", "mech.revenue_direct"),
    ("screenforge.mech", "revenue_functional", "mech.revenue_functional"),
    ("screenforge.mech", "revenue_impulse_form", "mech.revenue_impulse_form"),
    ("screenforge.mech", "ic_audit", "mech.ic_audit"),
    ("screenforge.mech", "cyclic_monotonicity_check", "mech.cyclic_monotonicity_check"),
    ("screenforge.oracle", "lp_solve", "lp.solve"),
    ("screenforge.oracle", "discretize", "oracle.discretize"),
    ("screenforge.oracle", "solve_simultaneous", "oracle.simultaneous"),
    ("screenforge.oracle", "solve_sequential", "oracle.sequential"),
    ("screenforge.oracle", "solve_relaxed", "oracle.relaxed"),
    ("screenforge.oracle", "separate_selling_value", "oracle.separate_selling"),
    ("screenforge.oracle", "brute_force_value", "oracle.exhaustive"),
]
_COPULA_CLASSES = ("IndependenceCopula", "ClaytonCopula", "GaussianCopula")
_COPULA_METHODS = ("density", "cdf", "conditional_chain", "partial_log_density")
_MARGINAL_FIELDS = ("cdf", "pdf", "dcdf_dgamma", "dpdf_dgamma", "quantile_fn",
                    "effective_fn", "impulse_fn")

# (metric, unit) in print order; analyze() fills every one of them.
PER_LAYER = [
    ("numerics.gauss_rule.calls", "count"),
    ("numerics.bisect_root.calls", "count"),
    ("numerics.bisect_root.s", "s"),
    ("copulas.density.s", "s"),
    ("copulas.density.points", "count"),
    ("copulas.cdf.s", "s"),
    ("copulas.cdf.points", "count"),
    ("copulas.conditional_chain.s", "s"),
    ("model.marginal.calls", "count"),
    ("model.marginal.s", "s"),
    ("model.sample_theta.s", "s"),
    ("model.divergence_residual.s", "s"),
    ("model.divergence_residual.calls", "count"),
    ("model.boundary_residual.s", "s"),
    ("model.invariance_residual.s", "s"),
    ("mech.regularity_report.s", "s"),
    ("mech.solve_thresholds.s", "s"),
    ("mech.upfront_t1.s", "s"),
    ("mech.revenue_direct.s", "s"),
    ("mech.revenue_functional.s", "s"),
    ("mech.revenue_impulse_form.s", "s"),
    ("mech.ic_audit.s", "s"),
    ("mech.cyclic_monotonicity_check.s", "s"),
    ("mech.cyclic_monotonicity_check.cycles", "count"),
    ("lp.calls", "count"),
    ("lp.solve_s", "s"),
    ("lp.rows_max", "count"),
    ("lp.nnz_total", "count"),
    ("lp.infeasible", "count"),
    ("lp.feasible_ratio", "ratio"),
    ("oracle.discretize.s", "s"),
    ("oracle.simultaneous.s", "s"),
    ("oracle.simultaneous.rounds", "count"),
    ("oracle.simultaneous.cuts", "count"),
    ("oracle.sequential.s", "s"),
    ("oracle.sequential.rounds", "count"),
    ("oracle.sequential.cuts", "count"),
    ("oracle.sequential.self_s", "s"),
    ("oracle.relaxed.s", "s"),
    ("oracle.separate_selling.s", "s"),
    ("oracle.exhaustive.self_s", "s"),
    ("oracle.exhaustive.profiles", "count"),
    ("cli.solve.self_s", "s"),
    ("cli.audit.self_s", "s"),
    ("cli.identity.self_s", "s"),
    ("cli.oracle.self_s", "s"),
    ("cli.sample.self_s", "s"),
    ("cli.bytes_written", "bytes"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.overhead_s", "s"),
]


def _rows_points(u) -> int:
    """Number of points in a (..., dim) evaluation array."""
    arr = np.asarray(u)
    if arr.ndim == 0:
        return 1
    return int(arr.size // max(arr.shape[-1], 1))


def _lp_probe(args, kwargs, result, exc):
    a_ub = kwargs.get("a_ub", args[1] if len(args) > 1 else None)
    info = {"rows": 0, "nnz": 0}
    if a_ub is not None:
        info["rows"] = int(a_ub.shape[0])
        info["nnz"] = int(a_ub.nnz) if hasattr(a_ub, "nnz") else int(np.count_nonzero(a_ub))
    if exc is not None:
        info["error"] = type(exc).__name__
    return info


def _solve_probe(args, kwargs, result, exc):
    return {"iterations": int(result.iterations)} if result is not None else None


def _cycles_probe(args, kwargs, result, exc):
    cycles = kwargs.get("cycles", args[2] if len(args) > 2 else ())
    return {"cycles": len(cycles)}


def _points_probe(args, kwargs, result, exc):
    # bound methods: args[0] is the copula, args[1] the evaluation points
    return {"points": _rows_points(args[1])} if len(args) > 1 else None


_PROBES = {
    "lp.solve": _lp_probe,
    "oracle.simultaneous": _solve_probe,
    "oracle.sequential": _solve_probe,
    "mech.cyclic_monotonicity_check": _cycles_probe,
    "copulas.density": _points_probe,
    "copulas.cdf": _points_probe,
    "copulas.conditional_chain": _points_probe,
}


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        layer = name.split(".", 1)[0]
        probe = _PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[3] = perf_counter()
                stack.pop()
                if probe is not None:
                    rec[5] = probe(args, kwargs, None, exc)
                raise
            rec[3] = perf_counter()
            stack.pop()
            if probe is not None:
                rec[5] = probe(args, kwargs, result, None)
            return result
        return traced

    def dump(self, path: str):
        """Write the spans as JSON lines: name, start, end, parent, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, _, start, end, parent, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, info]) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every traced name for the duration of the block."""
    restore = []

    def patch(owner, attr, wrapped):
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    model_mod = importlib.import_module("screenforge.model")
    plain_build = model_mod.build_model

    def build_model(config):
        model = plain_build(config)
        seen = {}

        def traced_marginal(m):
            if id(m) not in seen:
                fields = {f: tracer.wrap(getattr(m, f), "model.marginal")
                          for f in _MARGINAL_FIELDS if getattr(m, f) is not None}
                seen[id(m)] = dataclasses.replace(m, **fields)
            return seen[id(m)]

        return dataclasses.replace(
            model, marginals=tuple(traced_marginal(m) for m in model.marginals))

    try:
        for module_name, attr, name in _FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = build_model if attr == "build_model" else getattr(module, attr)
            patch(module, attr, tracer.wrap(fn, name))
        copulas = importlib.import_module("screenforge.copulas")
        for cls_name in _COPULA_CLASSES:
            cls = getattr(copulas, cls_name)
            for meth in _COPULA_METHODS:
                patch(cls, meth, tracer.wrap(cls.__dict__[meth], f"copulas.{meth}"))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(spans) -> list:
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[3] - s[2]) - child[i] for i, s in enumerate(spans)]


def _roots(spans) -> list:
    """Index of the top-level span enclosing each span."""
    root = [0] * len(spans)
    for i, s in enumerate(spans):
        root[i] = i if s[4] < 0 else root[s[4]]
    return root


def op_layer_table(spans, op_of_root) -> dict:
    """{op: {"wall": s, layer: self seconds}} for every top-level span.

    ``op_of_root`` maps a top-level span index to the operation label.
    The layer self times of one operation add up to its wall time.
    """
    selfs = self_times(spans)
    root = _roots(spans)
    table: dict = {}
    for i, s in enumerate(spans):
        op = op_of_root[root[i]]
        row = table.setdefault(op, defaultdict(float))
        row[s[1]] += selfs[i]
        if s[4] < 0:
            row["wall"] += s[3] - s[2]
    return {op: dict(row) for op, row in table.items()}


def _solve_rounds_cuts(spans, kids, idx):
    """Rounds and cuts of one cutting-plane solve span.

    Cuts are the rows its last LP has beyond its first.  Rounds come from
    the returned report; a solve that raised is counted by its distinct LP
    sizes, since every round that continues adds at least one row.
    """
    rows = [spans[k][5]["rows"] for k in kids[idx] if spans[k][0] == "lp.solve"]
    cuts = rows[-1] - rows[0] if rows else 0
    info = spans[idx][5]
    rounds = info["iterations"] if info else len(set(rows))
    return rounds, cuts


def analyze(spans, cli_bytes: int, overhead_s: float) -> dict:
    """Every PER_LAYER metric as {name: value}, computed from the spans."""
    selfs = self_times(spans)
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            kids[s[4]].append(i)
    incl = defaultdict(float)
    selfsum = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    layer_self = defaultdict(float)
    lp_rows_max = 0
    for i, (name, layer, start, end, _, info) in enumerate(spans):
        incl[name] += end - start
        selfsum[name] += selfs[i]
        calls[name] += 1
        layer_self[layer] += selfs[i]
        if name == "lp.solve":
            lp_rows_max = max(lp_rows_max, info["rows"])
            counts["lp.nnz"] += info["nnz"]
            counts["lp.infeasible"] += info.get("error") == "LpInfeasibleError"
        elif name in ("oracle.simultaneous", "oracle.sequential"):
            rounds, cuts = _solve_rounds_cuts(spans, kids, i)
            counts[name + ".rounds"] += rounds
            counts[name + ".cuts"] += cuts
        elif name == "oracle.exhaustive":
            counts["oracle.exhaustive.profiles"] += sum(
                spans[k][0] == "lp.solve" for k in kids[i])
        elif info and "points" in info:
            counts[name + ".points"] += info["points"]
        elif info and "cycles" in info:
            counts[name + ".cycles"] += info["cycles"]
    lp_calls = calls["lp.solve"]
    direct = {
        "lp.calls": lp_calls,
        "lp.solve_s": incl["lp.solve"],
        "lp.rows_max": lp_rows_max,
        "lp.nnz_total": counts["lp.nnz"],
        "lp.infeasible": counts["lp.infeasible"],
        # base is lp.calls; 0 when the workload makes no LP call
        "lp.feasible_ratio": (lp_calls - counts["lp.infeasible"]) / lp_calls if lp_calls else 0.0,
        "cli.bytes_written": cli_bytes,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric, _ in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if metric in direct:
            out[metric] = direct[metric]
        elif base in LAYERS and field == "self_s":
            out[metric] = layer_self[base]
        elif field == "s":
            out[metric] = incl[base]
        elif field == "self_s":
            out[metric] = selfsum[base]
        elif field == "calls":
            out[metric] = calls[base]
        else:
            out[metric] = counts[metric]
    return out
