"""Self-test of the benchmark on reduced inputs.

    python -m pytest -q perfbench/test_bench.py

Not part of the repository's test suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
# counts that depend only on the inputs, never on timing
EXACT = ("lp.calls", "oracle.simultaneous.rounds", "oracle.sequential.rounds",
         "oracle.simultaneous.cuts", "oracle.sequential.cuts", "model.marginal.calls",
         "cli.bytes_written")


def _run(workload, trace, seed=7):
    _, result = run.run_benchmark(workload, seed, 0, trace, size="small", probes=2)
    return result


def _assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}


def test_benchmark_json_matches_the_code():
    assert NAMES == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracer.PER_LAYER


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_appears_with_its_unit_and_counts_repeat(workload):
    _assert_metrics(_run(workload, False), BENCH["end_to_end"])
    first, second = _run(workload, True), _run(workload, True)
    _assert_metrics(first, BENCH["per_layer"])
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_layer_self_times_add_up_to_each_operation(tmp_path):
    wl = workloads.Workload("lp-oracle", 7, tmp_path, "small")
    wl.prepare()
    tr = tracer.Tracer()
    with tracer.instrument(tr):
        results = [wl.run(op, tr.call) for op in wl.ops]
    roots = [i for i, s in enumerate(tr.spans) if s[4] < 0]
    table = tracer.op_layer_table(tr.spans, dict(zip(roots, (op.name for op in wl.ops))))
    for r in results:
        row = table[r.op.name]
        assert sum(row.get(layer, 0.0) for layer in tracer.LAYERS) == pytest.approx(row["wall"])
        assert row["wall"] <= r.seconds
    assert table["oracle"]["lp"] > 0 and table["exhaustive"]["lp"] > 0


def test_a_perturbed_reference_value_fails_the_check(tmp_path):
    with open(workloads.REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    bad = copy.deepcopy(ref)
    bad["small"]["solve"]["readme"]["revenue_direct"] *= 1 + 1e-7
    bad["small"]["oracle"]["readme"]["2"]["v_sequential"] *= 1 + 1e-7
    bad["small"]["exhaustive"] *= 1 + 1e-7
    wl = workloads.Workload("continuum-readme", 7, tmp_path / "a", "small", reference=bad)
    solve = wl.run(next(op for op in wl.ops if op.name == "solve"))
    assert solve.failed and "revenue_direct" in solve.problems[0]
    wl = workloads.Workload("lp-oracle", 7, tmp_path / "b", "small", reference=bad)
    results = {op.name: wl.run(op) for op in wl.ops}
    assert results["oracle"].failed and "v_sequential" in results["oracle"].problems[0]
    assert not results["oracle_logi"].failed
    assert results["exhaustive"].failed and "brute_force_value" in results["exhaustive"].problems[0]


def test_the_known_oracle_failure_is_accepted_only_where_it_occurs(tmp_path):
    wl = workloads.Workload("lp-oracle", 7, tmp_path, "small")
    op = wl.ops[1]
    out = tmp_path / "fail"
    out.mkdir()

    def dump(cells, error):
        grids = [[0.0] * cells, [0.0] * cells]
        (out / "instance_fail.json").write_text(
            json.dumps({"instance": {"theta_grids": grids}, "error": error}))

    dump(3, "no clean adapted separation within 200 rounds")
    assert wl.check_oracle(op, 4, out) == []
    dump(2, "no clean adapted separation within 200 rounds")
    assert wl.check_oracle(op, 4, out)
    assert wl.check_oracle(wl.ops[0], 4, out)
