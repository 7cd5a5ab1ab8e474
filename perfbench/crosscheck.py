"""Traced numbers next to the ROADMAP "Baseline" rows.

The ROADMAP rows are single in-process runs on 2 vCPUs with about +-15%
noise.  Verb rows compare against this run's untraced pass; function and
LP rows compare against traced spans, which carry the tracing overhead.
"""

from __future__ import annotations

from collections import defaultdict

# (workload, op, row) -> ROADMAP value
ROADMAP = {
    ("continuum-readme", "solve", "solve verb s"): 0.47,
    ("continuum-readme", "audit", "audit verb s"): 0.58,
    ("continuum-readme", "sample", "sample verb s"): 0.78,
    ("continuum-readme", "solve", "solve_thresholds 101 types s"): 0.10,
    ("continuum-readme", "solve", "revenue_functional s"): 0.15,
    ("continuum-logi", "solve", "solve verb s"): 3.96,
    ("continuum-logi", "audit", "audit verb s"): 1.40,
    ("continuum-logi", "solve", "solve_thresholds 101 types s"): 0.79,
    ("continuum-logi", "solve", "revenue_functional s"): 2.36,
    ("lp-oracle", "oracle", "oracle ladder 2/3/4 s"): 1.78,
    ("lp-oracle", "oracle_logi", "oracle ladder 2/3/4 s"): 2.92,
    ("lp-oracle", "oracle", "k=2 simultaneous s"): 0.01,
    ("lp-oracle", "oracle", "k=4 simultaneous s"): 0.05,
    ("lp-oracle", "oracle", "k=2 sequential s"): 0.04,
    ("lp-oracle", "oracle", "k=4 sequential s"): 0.97,
    ("lp-oracle", "oracle", "k=2 sequential rounds"): 6,
    ("lp-oracle", "oracle", "k=4 sequential rounds"): 53,
    ("lp-oracle", "oracle", "k=2 relaxed s"): 0.005,
    ("lp-oracle", "oracle", "k=4 relaxed s"): 0.006,
    ("lp-oracle", "exhaustive", "brute force LP calls"): 2809,
    ("lp-oracle", "exhaustive", "brute force s"): 22.0,
}


def _measure(spans, root: int, op_seconds: float) -> dict:
    """Rows measurable inside one top-level span."""
    kids = defaultdict(list)
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][4] in inside:
            inside.add(i)
            kids[spans[i][4]].append(i)
    dur = {i: spans[i][3] - spans[i][2] for i in inside}
    rows = {"solve verb s": op_seconds, "audit verb s": op_seconds,
            "sample verb s": op_seconds}
    for i in inside:
        if spans[i][0] == "mech.solve_thresholds":
            rows["solve_thresholds 101 types s"] = dur[i]
        elif spans[i][0] == "mech.revenue_functional":
            rows["revenue_functional s"] = dur[i]
        elif spans[i][0] == "oracle.exhaustive":
            rows["brute force s"] = dur[i]
            rows["brute force LP calls"] = sum(spans[k][0] == "lp.solve" for k in kids[i])
    k = 1
    for i in kids[root]:
        name = spans[i][0]
        if name == "oracle.discretize":
            k += 1
            if k == 5:
                rows["oracle ladder 2/3/4 s"] = spans[i][2] - spans[root][2]
        elif name in ("oracle.simultaneous", "oracle.sequential", "oracle.relaxed"):
            regime = name.split(".")[1]
            rows[f"k={k} {regime} s"] = dur[i]
            if regime == "sequential" and spans[i][5]:
                rows[f"k={k} sequential rounds"] = spans[i][5]["iterations"]
    return rows


def lines(workload: str, spans, plain) -> list:
    """One line per ROADMAP row this workload measures."""
    roots = [i for i, s in enumerate(spans) if s[4] < 0]
    out = []
    for (wl, op, row), base in ROADMAP.items():
        if wl != workload:
            continue
        idx = [n for n, r in enumerate(plain) if r.op.name == op][0]
        got = _measure(spans, roots[idx], plain[idx].seconds).get(row)
        if got is None:
            out.append(f"crosscheck {op}: {row} roadmap {base:g} measured n/a")
        else:
            out.append(f"crosscheck {op}: {row} roadmap {base:g} measured {got:.4g} "
                       f"ratio {got / base:.2f}")
    return out
