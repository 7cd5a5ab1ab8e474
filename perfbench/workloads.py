"""Workloads of the screenforge benchmark: configs, timed operations, checks.

A workload is a fixed list of operations run one at a time in this
process (closed loop, one client, single thread).  An operation is either
a CLI verb, run through ``screenforge.cli.main`` exactly as the
``screenforge`` command runs it, or a call into the public oracle API.
Every operation's output is checked; a check that fails marks the output
incorrect and the operation failed.

Why these three workloads (each stresses layers the others bypass):

- ``continuum-logi``: smooth marginals send ``revenue_functional`` down the
  joint score-integral path; scalar per-type calls into ``model`` and
  ``copulas`` dominate.  No LP is solved, so an LP-engine change must show
  no change here.
- ``continuum-readme``: the moving support puts ``mech`` on its
  finite-difference rent path; the only workload that writes large reports
  (``sample``) and runs the ``model`` identity checkers.
- ``lp-oracle``: ``lp`` used two opposite ways, a growing cutting-plane
  program (``oracle``) and one fixed matrix with only the right-hand side
  moving (``brute_force_value``); ``mech`` does almost no work.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

FAMILIES = {
    "readme": {"name": "cl_uniform", "goods": 2, "copula": {"name": "clayton", "alpha": 2.0}},
    "logi": {"name": "logistic_shift", "goods": 2, "copula": {"name": "gaussian", "rho": 0.5}},
    # Clayton whose coupling drifts with the type: not invariant
    "drift": {"name": "cl_uniform", "goods": 2,
              "copula": {"name": "clayton", "alpha": 2.0, "alpha_slope": 1.0}},
}

# "full" is the benchmark; "small" is the same work shrunk for the self-test.
SIZES = {
    "full": {"solve_grid": 101, "audit_grid": 51, "cycles": 1000, "identity_points": 1000,
             "sample_count": 100_000, "ladder": [2, 3, 4, 5], "exhaustive": [2, 2]},
    "small": {"solve_grid": 11, "audit_grid": 11, "cycles": 50, "identity_points": 20,
              "sample_count": 2000, "ladder": [2, 3], "exhaustive": [2, 1]},
}
GAMMA_CELLS = 3
EXHAUSTIVE_GAMMA_CELLS = 2

# Tolerances of the acceptance gate (tests/test_acceptance.py).
TRIPLE_IDENTITY_REL = 1e-5
DRIFT_INVARIANCE_MIN = 1e-2
ORDERING_TOL = 1e-9
EXHAUSTIVE_TOL = 1e-8
# Agreement with the values recorded in reference.json.
REFERENCE_REL = 1e-9
# A Kolmogorov-Smirnov distance this far out has probability ~1e-8 for a
# correct sampler: a seed cannot trip it, a broken sampler does.
KS_SCALE = 3.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Op:
    """One timed operation: a CLI verb on a config, or the exhaustive oracle."""

    name: str        # metric stem: <name>_s
    verb: str        # CLI verb, or "exhaustive" for brute_force_value
    config: str      # key into FAMILIES
    known_failure: bool = False


WORKLOADS = {
    "continuum-logi": [Op("solve", "solve", "logi"), Op("audit", "audit", "logi")],
    "continuum-readme": [Op("solve", "solve", "readme"), Op("audit", "audit", "readme"),
                         Op("identity", "identity", "readme"),
                         Op("sample", "sample", "readme")],
    # The logistic ladder exhausts MAX_ROUNDS in the 3x5x5 sequential solve and
    # the verb exits 4; that failure is counted, not hidden.
    "lp-oracle": [Op("oracle", "oracle", "readme"),
                  Op("oracle_logi", "oracle", "logi", known_failure=True),
                  Op("exhaustive", "exhaustive", "readme")],
}


def config_seed(seed: int) -> int:
    """Map the benchmark seed to the positive seed a screenforge config needs."""
    return seed % (2 ** 31 - 1) + 1


def make_config(family: str, size: str, seed: int) -> dict:
    s = SIZES[size]
    return {
        "family": FAMILIES[family],
        "seed": config_seed(seed),
        "solve": {"gamma_grid": s["solve_grid"]},
        "audit": {"gamma_grid": s["audit_grid"], "cycles": s["cycles"], "cycle_length": 5},
        "identity": {"points": s["identity_points"],
                     "families": [FAMILIES["readme"], FAMILIES["logi"], FAMILIES["drift"]]},
        "oracle": {"gamma_cells": GAMMA_CELLS, "theta_cells": s["ladder"]},
        "sample": {"count": s["sample_count"], "gammas": [0.3], "corners": False},
    }


@dataclass
class OpResult:
    op: Op
    seconds: float
    exit_code: int
    problems: list       # failed output checks; non-empty means incorrect output
    out_bytes: int = 0

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def _check_reference(problems, label, value, ref):
    if value is None or abs(value - ref) > REFERENCE_REL * max(abs(ref), 1e-300):
        problems.append(f"{label} = {value!r}, reference {ref!r}")


def _load_json(path, problems):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"cannot read {path.name}: {exc}")
        return None


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


class Workload:
    """Inputs, operations and checks of one workload at one size and seed."""

    def __init__(self, name: str, seed: int, workdir: Path, size: str = "full",
                 reference: dict | None = None):
        import screenforge.cli
        import screenforge.model
        import screenforge.oracle

        self.cli = screenforge.cli
        self.model_mod = screenforge.model
        self.oracle_mod = screenforge.oracle
        self.name = name
        self.ops = WORKLOADS[name]
        self.size = size
        self.sizes = SIZES[size]
        self.workdir = Path(workdir)
        if reference is None:
            with open(REFERENCE_PATH, encoding="utf-8") as fh:
                reference = json.load(fh)
        self.ref = reference[size]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_paths = {}
        for family in sorted({op.config for op in self.ops}):
            path = self.workdir / f"config_{family}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(make_config(family, size, seed), fh, indent=1)
            self.config_paths[family] = path
        self._exhaustive = None

    def setup_config(self) -> tuple:
        """(config path, verb) that the set-up probe loads."""
        op = self.ops[0]
        return self.config_paths[op.config], op.verb

    def prepare(self):
        """Build the exhaustive oracle's input and its LP reference value.

        Done once, untimed: brute_force_value is timed alone.
        """
        if any(op.verb == "exhaustive" for op in self.ops) and self._exhaustive is None:
            model = self.model_mod.build_model(dict(FAMILIES["readme"]))
            inst = self.oracle_mod.discretize(model, EXHAUSTIVE_GAMMA_CELLS,
                                              self.sizes["exhaustive"])
            self._exhaustive = (inst, self.oracle_mod.solve_simultaneous(inst).value)

    def run(self, op: Op, call=None) -> OpResult:
        """Run one operation, timed, then check its output (untimed).

        ``call(name, fn, *args)`` runs a CLI verb; the tracer passes its own
        to open the verb's top-level span.
        """
        call = call or (lambda _name, fn, *args: fn(*args))
        if op.verb == "exhaustive":
            # looked up at call time: under the tracer this is its own span
            self.prepare()
            inst, lp_value = self._exhaustive
            t0 = perf_counter()
            value = self.oracle_mod.brute_force_value(inst)
            seconds = perf_counter() - t0
            return OpResult(op, seconds, 0, self.check_exhaustive(value, lp_value))
        out = self.workdir / f"out_{op.name}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argv = [op.verb, "--config", str(self.config_paths[op.config]),
                "--out", str(out), "--quiet"]
        t0 = perf_counter()
        try:
            code = call(f"cli.{op.verb}", self.cli.main, argv)
        except Exception as exc:  # noqa: BLE001 - a traceback is a failed operation
            seconds = perf_counter() - t0
            return OpResult(op, seconds, 1, [f"{op.verb} raised {type(exc).__name__}: {exc}"])
        seconds = perf_counter() - t0
        try:
            problems = getattr(self, f"check_{op.verb}")(op, code, out)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed {op.verb} output: {type(exc).__name__}: {exc}"]
        size = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        return OpResult(op, seconds, code, problems, size)

    # -- output checks: each returns a list of problems, empty when correct --

    def check_solve(self, op, code, out):
        problems = []
        if code != 0:
            return [f"solve exited {code}"]
        rev = _load_json(out / "revenue.json", problems)
        if rev is None:
            return problems
        ref = self.ref["solve"][op.config]
        for key, value in ref.items():
            _check_reference(problems, f"{op.config} {key}", rev.get(key), value)
        for key in ("residual_functional_rel", "residual_impulse_rel"):
            if key in rev and not rev[key] <= TRIPLE_IDENTITY_REL:
                problems.append(f"{op.config} {key} = {rev[key]!r} > {TRIPLE_IDENTITY_REL}")
        rows = _count_lines(out / "mechanism.csv") - 1
        if rows != self.sizes["solve_grid"]:
            problems.append(f"mechanism.csv has {rows} rows")
        return problems

    def check_audit(self, op, code, out):
        problems = []
        report = _load_json(out / "audit.json", problems)
        if report is not None and report.get("ok") is not True:
            problems.append(f"audit not ok: max_gain {report.get('max_gain')!r}")
        if code != 0:
            problems.append(f"audit exited {code}")
        return problems

    def check_identity(self, op, code, out):
        problems = []
        if code != 0:
            problems.append(f"identity exited {code}")
        report = _load_json(out / "identity.json", problems)
        if report is None:
            return problems
        rows = report.get("families", [])
        if len(rows) != 3:
            return problems + [f"identity.json has {len(rows)} families"]
        for row in rows[:2]:
            if not (row["invariant_flag"] and row["ok"]):
                problems.append(f"invariant family {row['family']} not ok")
        drift = rows[2]
        if drift["invariant_flag"] or not drift["invariance_residual"] > DRIFT_INVARIANCE_MIN:
            problems.append(f"drifting family invariance residual "
                            f"{drift['invariance_residual']!r} <= {DRIFT_INVARIANCE_MIN}")
        return problems

    def check_sample(self, op, code, out):
        if code != 0:
            return [f"sample exited {code}"]
        problems = []
        count = self.sizes["sample_count"]
        rows = _count_lines(out / "draws.csv") - 1
        if rows != count:
            problems.append(f"draws.csv has {rows} rows, expected {count}")
        ks = _load_json(out / "ks.json", problems)
        if ks is not None:
            worst = max(r["ks"] for r in ks["statistics"])
            if not worst <= KS_SCALE / math.sqrt(count):
                problems.append(f"KS distance {worst!r} > {KS_SCALE}/sqrt({count})")
        return problems

    def check_oracle(self, op, code, out):
        ref = self.ref["oracle"][op.config]
        if code == 4 and op.known_failure:
            return self._check_known_failure(out)
        if code != 0:
            return [f"oracle exited {code}"]
        problems = []
        report = _load_json(out / "oracle.json", problems)
        if report is None:
            return problems
        rows = report["refinements"]
        if [r["theta_cells"] for r in rows] != self.sizes["ladder"]:
            problems.append(f"ladder {[r['theta_cells'] for r in rows]}")
        for row in rows:
            k = str(row["theta_cells"])
            for key, value in ref.get(k, {}).items():
                _check_reference(problems, f"{op.config} k={k} {key}", row[key], value)
            worst = max(row["v_simultaneous"] - row["v_relaxed"],
                        row["v_separate"] - row["v_simultaneous"],
                        row["v_simultaneous"] - row["v_sequential"])
            if not worst <= ORDERING_TOL:
                problems.append(f"{op.config} k={k} ordering defect {worst!r}")
        return problems

    def _check_known_failure(self, out):
        """Exit 4 is accepted as correct output only where it is known to occur:
        the sequential solve of the largest ladder cell hitting MAX_ROUNDS."""
        problems = []
        dump = _load_json(out / "instance_fail.json", problems)
        if dump is None:
            return problems
        cells = [len(t) for t in dump["instance"]["theta_grids"]]
        expected = [self.sizes["ladder"][-1]] * len(cells)
        if cells != expected or "no clean adapted separation within" not in dump["error"]:
            problems.append(f"oracle failed at cells {cells}: {dump['error']}")
        return problems

    def check_exhaustive(self, value, lp_value):
        problems = []
        if not abs(value - lp_value) <= EXHAUSTIVE_TOL:
            problems.append(f"|LP - brute force| = {abs(value - lp_value)!r}")
        _check_reference(problems, "brute_force_value", value, self.ref["exhaustive"])
        return problems


def record_reference(size: str) -> dict:
    """Values the checks compare against, computed by the current code.

    Oracle values come from the same solver calls the ``oracle`` verb makes;
    a refinement whose solve fails records nothing.
    """
    import numpy as np
    import screenforge.mech as mech
    import screenforge.model as model_mod
    import screenforge.oracle as oracle
    from screenforge.errors import ScreenforgeError

    s = SIZES[size]
    ref = {"solve": {}, "oracle": {}}
    for family in ("readme", "logi"):
        model = model_mod.build_model(dict(FAMILIES[family]))
        grid = np.linspace(model.prior.lo, model.prior.hi, s["solve_grid"])
        solved = mech.upfront_t1(model, mech.solve_thresholds(model, grid))
        ref["solve"][family] = {
            "revenue_direct": mech.revenue_direct(model, solved),
            "revenue_functional": mech.revenue_functional(model, solved),
        }
        if model.invariant_flag:
            ref["solve"][family]["revenue_impulse"] = mech.revenue_impulse_form(model, solved)
        ref["oracle"][family] = {}
        for k in s["ladder"]:
            inst = oracle.discretize(model, GAMMA_CELLS, k)
            try:
                row = {"v_simultaneous": oracle.solve_simultaneous(inst).value,
                       "v_sequential": oracle.solve_sequential(inst).value,
                       "v_relaxed": oracle.solve_relaxed(inst).value,
                       "v_separate": oracle.separate_selling_value(inst)}
            except ScreenforgeError:
                continue
            ref["oracle"][family][str(k)] = row
    inst = oracle.discretize(model_mod.build_model(dict(FAMILIES["readme"])),
                             EXHAUSTIVE_GAMMA_CELLS, s["exhaustive"])
    ref["exhaustive"] = oracle.brute_force_value(inst)
    return ref
