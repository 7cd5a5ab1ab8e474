"""Batch command-line front end.

Verbs: solve | audit | identity | oracle | sample.  Every command reads
a JSON config, writes CSV/JSON reports into an output directory, and is
byte-reproducible given the config and seed.  Exit codes: 0 success,
2 config error, 3 tolerance or audit failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import __version__
from . import mech as mechmod
from . import model as modelmod
from .errors import ConfigError, RegularityError, ScreenforgeError
from .numerics import RngStream, gauss_rule, tensor_points, uniform_draws

_FLOAT_FMT = "%.17g"
_CSV_BLOCK_ROWS = 4096
# below this many fields a block's ~100 array calls cost more than %
_CSV_VECTOR_FIELDS = 1024
# fields per call of the array code: 32 KB per float64 temporary; at whole
# 4096 x 5 blocks (160 KB each) the allocator handed out fresh pages on
# every call, and a field took twice as long
_CSV_SLICE_FIELDS = 4096


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    out_dir: str
    seed: int
    quiet: bool
    config_hash: str = ""
    model: object = None
    section: dict = field(default_factory=dict)  # every key of the verb, defaults filled in

    @property
    def families(self) -> list:
        """The models that identity checks: identity.families, else the family."""
        return self.section.get("families") or [self.model]


def _hash_config(raw: dict, command: str, seed: int) -> str:
    canon = json.dumps({"config": raw, "command": command, "seed": seed},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# Size limits; the README's limits table gives the cost of a run at each.
# audit's cost grows about quadratically in its type grid: 2,000 points
# take about 20 s and 180 MB on the logistic family.  The revenue
# accountings integrate over the cells between grid points, so a grid
# needs at least two
MAX_GAMMA_GRID = 2000
MAX_SAMPLE_COUNT = 1_000_000     # rows of draws.csv, over all types
MAX_CYCLE_POINTS = 1_000_000     # audit.cycles * cycle_length
MAX_IDENTITY_POINTS = 100_000    # points per family
# rows of each oracle rung's simultaneous LP: 247,248 at 12 x 12 x 12
MAX_SIMULTANEOUS_ROWS = 250_000
# solve on a smooth family with an invariant dependent copula integrates
# rents on a joint grid of about 130**goods points: at 4 goods each
# grid-shaped array is 2.1 GiB, and a Gaussian or Clayton copula holds 3
# of them at once (a drifting copula takes the per-good score)
MAX_JOINT_SCORE_GOODS = 3
# the Philox key that numerics.RngStream builds from the seed is uint64
MAX_SEED = 2**64 - 1


def _rule(what: str, valid):
    """Check that a value is one for which ``valid`` holds: it must ``what``."""
    def check(name, value, cfg=None):
        if not valid(value):
            raise ConfigError(f"{name} must {what}, got {value!r}")
        return value
    return check


def _number(what: str, valid):
    return _rule(f"hold {what}", lambda v: isinstance(v, (int, float))
                 and not isinstance(v, bool) and valid(v))


def _upto(limit: int, name: str, least: int = 1):
    return _number(f"integers from {least} to {limit} (cli.{name})",
                   lambda v: isinstance(v, int) and least <= v <= limit)


_COUNT = _number("positive integers", lambda v: isinstance(v, int) and v >= 1)
_TOLERANCE = _number("finite numbers >= 0", lambda v: 0 <= v < np.inf)
_GRID = _upto(MAX_GAMMA_GRID, "MAX_GAMMA_GRID", least=2)
_FLAG = _rule("be true or false", lambda v: isinstance(v, bool))
_PATH = _rule("be a non-empty path", lambda v: isinstance(v, str) and v != "")
_FAMILY_LIST = _rule("be a non-empty list of family objects", lambda v: isinstance(v, list)
                     and v != [] and all(isinstance(f, dict) for f in v))


def _families(name, value, cfg):
    return [modelmod.build_model(dict(f)) for f in _FAMILY_LIST(name, value)]


def _types(count=None):
    """Check of a list of types in the prior support of each of ``cfg.families``;
    a list of ``count`` types must hold ``count`` different ones."""
    what = "types" if count is None else f"{count} types"

    def check(name, values, cfg):
        lo = max(m.prior.lo for m in cfg.families)
        hi = min(m.prior.hi for m in cfg.families)
        if not isinstance(values, list) or (count is not None and len(values) != count) or not all(
                isinstance(g, (int, float)) and not isinstance(g, bool) and lo <= g <= hi
                for g in values):
            raise ConfigError(f"{name} must list {what} in the prior support [{lo}, {hi}], "
                              f"got {values!r}")
        if count is not None and len(set(values)) < count:
            raise ConfigError(f"{name} must list {count} different types, got {values!r}")
        return values
    return check


def _rungs(name, ladder, cfg):
    """A rung (one count, or one count per good) or a list of them, as a list."""
    rungs = ladder if isinstance(ladder, list) else [ladder]
    if not rungs:
        raise ConfigError(f"{name} must list at least one rung")
    counts = []
    for entry in rungs:
        if isinstance(entry, list) and len(entry) != cfg.model.n:
            raise ConfigError(f"{name} entry {entry!r} needs {cfg.model.n} counts")
        counts += entry if isinstance(entry, list) else [entry]
    for k in counts:
        _COUNT(name, k)
    return rungs


# every key of each verb's section: (default, check).  A check takes
# (name, given value, cfg), raises ConfigError on a malformed value and
# returns what the verb reads; it may read the keys above its own.  A
# default of None is worked out from the family where the verb uses it
_VERB_KEYS = {
    "solve": {"gamma_grid": (101, _GRID)},
    "audit": {"gamma_grid": (51, _GRID), "cycles": (1000, _COUNT), "cycle_length": (5, _COUNT),
              "tolerance_gain_rel": (1e-6, _TOLERANCE), "ir_tol": (1e-8, _TOLERANCE),
              "mechanism_csv": (None, _PATH)},  # None: audit solves its own menu
    "identity": {"points": (100, _upto(MAX_IDENTITY_POINTS, "MAX_IDENTITY_POINTS")),
                 "divergence_tol": (1e-4, _TOLERANCE), "boundary_tol": (1e-6, _TOLERANCE),
                 "invariance_tol": (1e-8, _TOLERANCE), "families": (None, _families),
                 "gamma_pair": (None, _types(count=2))},
    "oracle": {"gamma_cells": (3, _COUNT), "theta_cells": ([2, 3, 4], _rungs)},
    "sample": {"count": (1000, _upto(MAX_SAMPLE_COUNT, "MAX_SAMPLE_COUNT")),
               "gammas": (None, _types()), "corners": (False, _FLAG)},
}


def load_config(path: str, command: str, out_override=None, seed_override=None,
                quiet: bool = False) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("family"), dict):
        raise ConfigError("config must be a JSON object with a 'family' object")
    seed = seed_override if seed_override is not None else raw.get("seed", 20240101)
    out_dir = str(out_override if out_override is not None else raw.get("out", "screenforge_out"))
    section = raw.get(command, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{command}' must be a JSON object, got {section!r}")
    cfg = RunConfig(out_dir=out_dir, seed=seed, quiet=quiet,
                    config_hash=_hash_config(raw, command, seed))
    cfg.model = modelmod.build_model(dict(raw["family"]))
    keys = _VERB_KEYS[command]
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown key {command}.{key}; {command} reads {', '.join(keys)}")
    _upto(MAX_SEED, "MAX_SEED")("seed", seed)
    cfg.section = {key: default for key, (default, _) in keys.items()}
    for key, (_, check) in keys.items():
        if key in section:
            cfg.section[key] = check(f"{command}.{key}", section[key], cfg)
    _size_checks(command, cfg.section, cfg.model)
    return cfg


def _size_checks(command: str, sec: dict, model):
    """Check each size that several keys or the family set together, on a
    section whose keys passed their own checks."""
    if command == "audit":
        _upto(MAX_CYCLE_POINTS, "MAX_CYCLE_POINTS")(
            "audit.cycles * audit.cycle_length", sec["cycles"] * sec["cycle_length"])
    elif command == "oracle":
        types = sec["gamma_cells"]
        for entry in sec["theta_cells"]:
            cells = math.prod(entry) if isinstance(entry, list) else entry ** model.n
            _upto(MAX_SIMULTANEOUS_ROWS, "MAX_SIMULTANEOUS_ROWS")(
                f"oracle.theta_cells {entry!r}: simultaneous LP rows",
                types * cells * (cells - 1) + types * types)
    elif command == "sample":
        types = 1 if sec["gammas"] is None else len(sec["gammas"])
        corners = 2 ** model.n if sec["corners"] else 0
        _upto(MAX_SAMPLE_COUNT, "MAX_SAMPLE_COUNT")(
            "len(sample.gammas) * (sample.count + corner rows)", types * (sec["count"] + corners))
    elif command == "solve" and mechmod.uses_joint_score(model):
        _upto(MAX_JOINT_SCORE_GOODS, "MAX_JOINT_SCORE_GOODS")(
            "family.goods of a smooth family with an invariant dependent copula", model.n)


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------


def _write_csv(path: str, header, rows):
    """Write a 2-D float array in blocks of ``_CSV_BLOCK_ROWS`` rows, one
    write per block, each field as ``_FLOAT_FMT`` writes it.

    A block of ``_CSV_VECTOR_FIELDS`` fields or more is formatted by array
    code, with the same bytes as ``%.17g``.  For 1e-4 <= |x| < 1e16,
    ``%.17g`` writes in fixed notation the 17-digit N * 10**(X - 16)
    nearest to x, ties to even.  The array code takes |x| * 10**(16 - X)
    exactly, as a double plus its rounding error (Dekker's two-product;
    10**k is exact for k <= 22), and rounds N half to even from the two.
    Every other field (0, -0, nan, inf, subnormal, |x| < 1e-4,
    |x| >= 1e16) goes through ``%`` itself, one at a time, and so does
    every field of a smaller block.
    """
    row_fmt = ",".join([_FLOAT_FMT] * len(header)) + "\n"
    step = max(1, _CSV_SLICE_FIELDS // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = np.asarray(rows[start:start + _CSV_BLOCK_ROWS], dtype=float)
            if block.size < _CSV_VECTOR_FIELDS:
                fh.write(((row_fmt * len(block)) % tuple(block.ravel().tolist())).encode())
            else:
                fh.write(b"".join([_csv_text(block[i:i + step])
                                   for i in range(0, len(block), step)]))


# Array code for _FLOAT_FMT.  Each field is built in four little-endian
# 64-bit words: bytes 0-30 hold its text padded with NUL bytes, byte 31
# its separator, and the NULs are dropped at the end.  A field in fixed
# notation has its sign at byte 0, a "0.000" prefix at bytes 1-5, and its
# digits (with the point) from byte 6.

_WORD = np.dtype("<u8")
_VELTKAMP = 2.0 ** 27 + 1


def _veltkamp(a):
    """a = hi + lo exactly, with hi and lo on 26 bits each."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI, _POW10_LO = _veltkamp(_POW10)


# built by the first block that the array code writes, like _layout_table
@lru_cache(maxsize=None)
def _quad_table() -> np.ndarray:
    """Word of the text "0000".."9999" at index 0..9999, and at 10000 + i
    the text of i with its trailing zeros as NUL bytes."""
    i = np.arange(10000, dtype=np.int16)[:, None]
    text = (i // np.array([1000, 100, 10, 1], np.int16) % 10 + 48).astype(np.uint8)
    kept = np.logical_or.accumulate((text != 48)[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([text, text * kept]).view("<u4").ravel().astype(_WORD)


@lru_cache(maxsize=None)
def _layout_table() -> np.ndarray:
    """Row 21 * negative + X + 4, for X in [-4, 16], of 9 words: bytes
    0-23 of the digits that stay in place (all for X < 0, else the
    integer digits), the bytes added (sign, then the "0.000" prefix or a
    '0' under each integer digit) and the decimal point after the integer
    digits; the fraction digits move up one byte, behind the point."""
    tab = np.zeros((42, 3, 24), np.uint8)
    for neg in (0, 1):
        for x in range(-4, 17):
            keep, add, point = tab[21 * neg + x + 4]
            add[0] = ord("-") * neg
            if x < 0:
                keep[6:23] = 255
                add[1:2 - x] = np.frombuffer(b"0." + b"0" * (-x - 1), np.uint8)
            else:
                keep[6:7 + x] = 255
                add[6:7 + x] = ord("0")
                if x < 16:
                    point[7 + x] = ord(".")
    return np.ascontiguousarray(tab.view(_WORD).reshape(42, 9).T)


def _times_pow10(a, k):
    """a * 10**k as the double p plus its exact rounding error."""
    p = a * _POW10.take(k)
    ah, al = _veltkamp(a)
    bh, bl = _POW10_HI.take(k), _POW10_LO.take(k)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _csv_text(block) -> bytes:
    """The CSV text of the rows of a float block."""
    x = block.ravel()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e16)
    a[~fixed] = 2.0  # a stand-in off every decade; % writes these fields
    # decimal exponent X, then N = round(|x| * 10**(16 - X)) in [10**16, 10**17)
    e = np.floor(np.log10(a)).astype(np.int64)
    p, err = _times_pow10(a, 16 - e)
    edge = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    while len(edge):  # log10 rounded across a decade: step X and redo
        pe, ee = p[edge], err[edge]
        step = (((pe > 1e17) | ((pe == 1e17) & (ee >= 0))).astype(np.int64)
                - ((pe < 1e16) | ((pe == 1e16) & (ee < 0))))
        edge = edge[step != 0]
        e[edge] += step[step != 0]
        p[edge], err[edge] = _times_pow10(a[edge], 16 - e[edge])
    # p >= 2**53 is an even integer, so rint's ties to even on err are N's.
    # N never rounds up to 10**17: that takes a double within 5e-18 below
    # a power of ten, and the one double below each of 1e-3 .. 1e16 that
    # could be is further off (tests/test_cli.py writes each of them)
    n = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # N = lead digit and four 4-digit groups; a group with only zero groups
    # after it takes its text with trailing zeros as NUL
    hi9 = n // 10 ** 8
    lead = hi9 // 10 ** 8
    hi8, lo8 = hi9 - lead * 10 ** 8, n - hi9 * 10 ** 8
    g1, g3 = hi8 // 10 ** 4, lo8 // 10 ** 4
    g2, g4 = hi8 - g1 * 10 ** 4, lo8 - g3 * 10 ** 4
    t3 = g4 == 0
    t2 = t3 & (g3 == 0)
    t1 = t2 & (g2 == 0)
    quads = _quad_table()
    q1 = quads.take(g1 + 10000 * t1)
    q2 = quads.take(g2 + 10000 * t2)
    q3 = quads.take(g3 + 10000 * t3)
    q4 = quads.take(g4 + 10000)
    w0 = ((lead.astype(_WORD) + 48) << 48) | (q1 << 56)
    w1 = (q1 >> 8) | (q2 << 24) | (q3 << 56)
    w2 = (q3 >> 8) | (q4 << 24)
    form = e + 4 + 21 * (x < 0)
    keep0, keep1, keep2, add0, add1, add2, pt0, pt1, pt2 = (
        row.take(form) for row in _layout_table())
    lo0, lo1, lo2 = w0 & keep0, w1 & keep1, w2 & keep2
    w0 ^= lo0  # what is left of w0..w2 are the fraction digits
    w1 ^= lo1
    w2 ^= lo2
    point = ((w0 | w1 | w2) != 0).astype(_WORD) * 0xFFFFFFFFFFFFFFFF
    words = np.empty((len(x), 4), _WORD)
    words[:, 0] = lo0 | add0 | (w0 << 8) | (pt0 & point)
    words[:, 1] = lo1 | add1 | (w1 << 8) | (w0 >> 56) | (pt1 & point)
    words[:, 2] = lo2 | add2 | (w2 << 8) | (w1 >> 56) | (pt2 & point)
    seps = words.reshape(block.shape + (4,))[:, :, 3]
    seps[:] = ord(",") << 56
    seps[:, -1] = ord("\n") << 56
    slow = np.flatnonzero(~fixed)
    if len(slow):
        text = "".join([(_FLOAT_FMT % v).ljust(31, "\0") for v in x[slow].tolist()])
        words.view(np.uint8)[slow, :31] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 31)
    return words.tobytes().translate(None, b"\0")


def _write_json(path: str, payload: dict, cfg: RunConfig):
    payload = dict(payload)
    payload["config_hash"] = cfg.config_hash
    payload["version"] = __version__
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_mechanism_csv(path: str, mech: mechmod.ThresholdMechanism):
    n = mech.n_goods
    header = ["gamma", "t1"] + [f"p_{j + 1}" for j in range(n)]
    fees = mech.upfront if mech.upfront is not None else np.full(len(mech.gamma_grid), np.nan)
    _write_csv(path, header, np.column_stack([mech.gamma_grid, fees, mech.strikes]))


def read_mechanism_csv(path: str, goods: int, box_top=None) -> mechmod.ThresholdMechanism:
    """The menu table at ``path`` for a family of ``goods`` goods.  The
    table is outside input: another goods count, a non-finite entry or a
    gamma column that is not strictly increasing raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            data = [list(map(float, line.strip().split(","))) for line in fh if line.strip()]
        arr = np.asarray(data, dtype=float).reshape(len(data), len(header))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read mechanism table {path}: {exc}") from exc
    if header[:2] != ["gamma", "t1"] or not data:
        raise ConfigError(f"{path} is not a mechanism table")
    if len(header) - 2 != goods:
        raise ConfigError(f"{path} prices {len(header) - 2} goods; the family has {goods}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path} holds a non-finite entry")
    if np.any(np.diff(arr[:, 0]) <= 0.0):
        raise ConfigError(f"{path}: the gamma column must be strictly increasing")
    return mechmod.ThresholdMechanism(
        gamma_grid=arr[:, 0], strikes=arr[:, 2:], upfront=arr[:, 1], box_top=box_top
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _solved_mechanism(cfg: RunConfig):
    grid = np.linspace(cfg.model.prior.lo, cfg.model.prior.hi, cfg.section["gamma_grid"])
    mech = mechmod.solve_thresholds(cfg.model, grid)
    return mechmod.upfront_t1(cfg.model, mech)


def cmd_solve(cfg: RunConfig) -> int:
    report = mechmod.regularity_report(cfg.model)
    _write_json(os.path.join(cfg.out_dir, "regularity.json"), {
        "ok": report.ok,
        "worst_f_gamma": report.worst_f_gamma,
        "worst_gamma_monotonicity": report.worst_gamma_monotonicity,
        "crossing_violations": report.crossing_violations,
        "locations": report.locations,
    }, cfg)
    if not report.ok:
        _say(cfg, f"regularity violated; see {cfg.out_dir}/regularity.json")
        return 3
    mech = _solved_mechanism(cfg)
    write_mechanism_csv(os.path.join(cfg.out_dir, "mechanism.csv"), mech)
    direct = mechmod.revenue_direct(cfg.model, mech)
    functional = mechmod.revenue_functional(cfg.model, mech)
    impulse = mechmod.revenue_impulse_form(cfg.model, mech)
    payload = {
        "revenue_direct": direct,
        "revenue_functional": functional,
        "residual_functional_rel": abs(functional - direct) / max(abs(direct), 1e-300),
        "revenue_impulse": impulse,
        "residual_impulse_rel": abs(impulse - direct) / max(abs(direct), 1e-300),
        "gamma_grid": cfg.section["gamma_grid"],
        "family": cfg.model.label,
    }
    _write_json(os.path.join(cfg.out_dir, "revenue.json"), payload, cfg)
    _say(cfg, f"revenue {direct:.9g}; files in {cfg.out_dir}")
    return 0


def cmd_audit(cfg: RunConfig) -> int:
    sec = cfg.section
    if sec["mechanism_csv"] is not None:
        box_top = np.array([m.support[1] for m in cfg.model.marginals])
        mech = read_mechanism_csv(sec["mechanism_csv"], cfg.model.n, box_top=box_top)
    else:
        mech = _solved_mechanism(cfg)
    audit = mechmod.ic_audit(cfg.model, mech)
    surplus = _continuum_surplus(cfg.model)
    gain_tol = sec["tolerance_gain_rel"] * max(surplus, 1e-12)
    stream = RngStream(seed=cfg.seed, stream_id=2)
    cycles = mechmod.random_cycles(cfg.model.box, sec["cycles"], sec["cycle_length"], stream)
    gammas = mech.gamma_grid[:: max(1, len(mech.gamma_grid) // 8)]
    cycle_max = max(mechmod.cyclic_monotonicity_check(mech, float(g), cycles) for g in gammas)
    bottom = float(audit.curve.values[0])
    nondecreasing = bool(np.all(np.diff(audit.curve.values) >= -1e-8))
    ok = bool(
        audit.max_gain <= gain_tol
        and audit.ir_slack >= -sec["ir_tol"]
        and abs(bottom) <= 1e-8
        and nondecreasing
        and cycle_max <= 1e-10
    )
    _write_json(os.path.join(cfg.out_dir, "audit.json"), {
        "max_gain": audit.max_gain,
        "gain_argmax": list(audit.gain_argmax),
        "ir_slack": audit.ir_slack,
        "rent_at_bottom": bottom,
        "rent_nondecreasing": nondecreasing,
        "cycle_max": float(cycle_max),
        "gain_tolerance": gain_tol,
        "scale": surplus,
        "ok": ok,
    }, cfg)
    _write_csv(os.path.join(cfg.out_dir, "u_curve.csv"), ["gamma", "U"],
               np.column_stack([audit.curve.gamma_grid, audit.curve.values]))
    _say(cfg, f"max gain {audit.max_gain:.3g} (tol {gain_tol:.3g}); ok={ok}")
    return 0 if ok else 3


def _continuum_surplus(model) -> float:
    """Expected efficient surplus, used as the audit scale."""
    grule = gauss_rule(64, model.prior.lo, model.prior.hi)
    dens = np.asarray(model.prior.pdf(grule.nodes), dtype=float)
    rule = mechmod.PercentileRule(model, grule.nodes, np.zeros((64, model.n)), 64)
    return float(np.sum(grule.weights * dens * rule.integrate(rule.q)))


def cmd_identity(cfg: RunConfig) -> int:
    sec = cfg.section
    div_tol = float(sec["divergence_tol"])
    bnd_tol = float(sec["boundary_tol"])
    inv_tol = float(sec["invariance_tol"])
    pair = sec["gamma_pair"]
    rows = []
    for mdl in cfg.families:
        lo, hi = mdl.prior.lo, mdl.prior.hi
        gpair = tuple(pair) if pair else (lo, hi)
        stream = RngStream(seed=cfg.seed, stream_id=7)
        draws = uniform_draws(stream, sec["points"], mdl.n + 1)
        types = lo + (0.1 + 0.8 * draws[:, 0]) * (hi - lo)
        theta = modelmod.sample_theta(mdl, types, 0.1 + 0.8 * draws[:, 1:])
        resids = modelmod.divergence_residual(mdl, types, theta)
        gammas = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 9)
        bnd = max(modelmod.boundary_residual(mdl, float(g)) for g in gammas)
        inv = modelmod.invariance_residual(mdl, 9, gpair)
        ok = bool(
            (not mdl.invariant_flag)
            or (resids.max() <= div_tol and bnd <= bnd_tol and inv <= inv_tol)
        )
        rows.append({
            "family": mdl.label,
            "invariant_flag": mdl.invariant_flag,
            "divergence_max": float(resids.max()),
            "divergence_mean": float(resids.mean()),
            "boundary_max": float(bnd),
            "invariance_residual": float(inv),
            "ok": ok,
        })
    _write_json(os.path.join(cfg.out_dir, "identity.json"), {
        "families": rows,
        "tolerances": {"divergence": div_tol, "boundary": bnd_tol, "invariance": inv_tol},
    }, cfg)
    failed = not all(row["ok"] for row in rows)
    _say(cfg, f"{len(rows)} families checked; ok={not failed}")
    return 3 if failed else 0


def cmd_oracle(cfg: RunConfig) -> int:
    from . import oracle as oraclemod  # loads HiGHS; no other verb needs it

    gcells = cfg.section["gamma_cells"]
    table = []
    inst = None
    try:
        for cells in cfg.section["theta_cells"]:
            inst = oraclemod.discretize(cfg.model, gcells, cells)
            row = oraclemod.regime_row(inst)
            for regime, rep in row.reports.items():
                _write_mech_table(
                    os.path.join(cfg.out_dir, f"mech_{regime}_k{cells}.csv"),
                    inst, rep.mechanism,
                )
            table.append({
                "theta_cells": cells,
                "gamma_cells": gcells,
                "iterations": {k: r.iterations for k, r in row.reports.items()},
                "lp_size": {k: {"rows": r.rows, "cols": r.cols, "nnz": r.nnz}
                            for k, r in row.reports.items()},
                "v_simultaneous": row.v_simultaneous,
                "v_sequential": row.v_sequential,
                "v_relaxed": row.v_relaxed,
                "v_separate": row.v_separate,
                "full_surplus": row.surplus,
                "gap_separate": row.gap_separate,
                "gap_sequential": row.gap_sequential,
                "gap_relaxed": row.gap_relaxed,
            })
    except ScreenforgeError as exc:
        # dump the instance that failed so the run can be replayed
        if inst is not None:
            _write_json(os.path.join(cfg.out_dir, "instance_fail.json"),
                        {"instance": inst.to_jsonable(), "error": str(exc)}, cfg)
        _say(cfg, f"oracle failure: {exc}")
        return 4
    _write_json(os.path.join(cfg.out_dir, "oracle.json"), {"refinements": table}, cfg)
    _say(cfg, f"{len(table)} refinements solved")
    return 0


def _write_mech_table(path: str, inst, mech):
    n = inst.n_goods
    header = (["gamma"] + [f"theta_{j + 1}" for j in range(n)]
              + [f"q_{j + 1}" for j in range(n)] + ["t2", "t1"])
    cells = inst.n_cells
    _write_csv(path, header, np.column_stack([
        np.repeat(inst.gamma_values, cells), np.tile(inst.cell_values, (inst.n_types, 1)),
        mech.q.reshape(-1, n), mech.t2.reshape(-1), np.repeat(mech.t1, cells),
    ]))


def cmd_sample(cfg: RunConfig) -> int:
    count, gammas, corners = (cfg.section[key] for key in ("count", "gammas", "corners"))
    if gammas is None:  # the prior midpoint
        gammas = [0.5 * (cfg.model.prior.lo + cfg.model.prior.hi)]
    n = cfg.model.n
    rows = None
    ks_rows = []
    for gi, g in enumerate(gammas):
        stream = RngStream(seed=cfg.seed, stream_id=100 + gi)
        z = uniform_draws(stream, count, n)
        if corners:
            z = np.vstack([tensor_points([[0.0, 1.0]] * n), z])
        theta = modelmod.sample_theta(cfg.model, float(g), z)
        if rows is None:
            # after the first sampling: taken before it, the array pushed the
            # sampling temporaries onto fresh pages (3.4 MB more peak memory
            # from the second 100,000-draw run in a process)
            rows = np.empty((len(gammas) * len(z), 1 + 2 * n))
        block = rows[gi * len(z):(gi + 1) * len(z)]
        block[:, 0] = float(g)
        block[:, 1:1 + n] = z
        block[:, 1 + n:] = theta
        for j in range(n):
            ks_rows.append({
                "gamma": float(g),
                "good": j + 1,
                "ks": _ks_stat(cfg.model.marginals[j], float(g), theta[:, j]),
            })
    header = (["gamma"] + [f"z_{j + 1}" for j in range(n)]
              + [f"theta_{j + 1}" for j in range(n)])
    _write_csv(os.path.join(cfg.out_dir, "draws.csv"), header, rows)
    _write_json(os.path.join(cfg.out_dir, "ks.json"),
                {"count": count, "statistics": ks_rows}, cfg)
    worst = max(r["ks"] for r in ks_rows)
    _say(cfg, f"{len(rows)} draws written; worst KS {worst:.4f}")
    return 0


def _ks_stat(marginal, gamma: float, sample: np.ndarray) -> float:
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    cdf = np.asarray(marginal.cdf(x, gamma), dtype=float)
    hi = np.max(np.arange(1, n + 1) / n - cdf)
    lo = np.max(cdf - np.arange(0, n) / n)
    return float(max(hi, lo))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "solve": cmd_solve,
    "audit": cmd_audit,
    "identity": cmd_identity,
    "oracle": cmd_oracle,
    "sample": cmd_sample,
}


def _say(cfg: RunConfig, message: str):
    if not cfg.quiet:
        print(message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="screenforge",
        description="Option-contract solver and verifier for sequential screening",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, args.out, args.seed, args.quiet)
        os.makedirs(cfg.out_dir, exist_ok=True)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RegularityError as exc:
        print(f"regularity failure: {exc}", file=sys.stderr)
        return 3
    except ScreenforgeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
