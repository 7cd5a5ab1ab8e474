"""Deterministic numerical primitives: quadrature, root finding and
counter-based random streams.

Everything here is a pure function of its inputs.  In particular the
random streams are keyed by ``(seed, stream_id)``, so a draw depends on
its key alone and never on what was drawn before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import BracketError, InvalidIntervalError

DEFAULT_ROOT_TOL = 1e-10
DEFAULT_FD_STEP_FRACTION = 1e-5


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on a closed interval."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape != self.weights.shape:
            raise InvalidIntervalError("nodes and weights must have the same length")


@lru_cache(maxsize=64)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(int(order))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_rule(order: int, lo, hi) -> QuadratureRule:
    """Gauss-Legendre rule with ``order`` points mapped to [lo, hi].

    Exact for polynomials of degree <= 2*order - 1.  Array ``lo``/``hi``
    broadcast together and give one rule per interval, with nodes and
    weights of shape (..., order).
    """
    if order < 1:
        raise InvalidIntervalError(f"order must be >= 1, got {order}")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not np.all(lo < hi):
        raise InvalidIntervalError(f"need lo < hi, got [{lo}, {hi}]")
    x, w = _leggauss(int(order))
    half = 0.5 * (hi - lo)[..., None]
    return QuadratureRule(nodes=lo[..., None] + half * (x + 1.0), weights=half * w)


def composite_rule(lo: float, hi: float, order: int, breaks=()) -> QuadratureRule:
    """Piecewise Gauss-Legendre rule split at the interior ``breaks``.

    Breakpoints outside (lo, hi) are discarded; duplicates are merged.
    Used to keep integrands smooth on each panel (kinks at option strike
    prices and at the edges of moving supports).
    """
    if not lo < hi:
        raise InvalidIntervalError(f"need lo < hi, got [{lo}, {hi}]")
    breaks = np.atleast_1d(np.asarray(breaks, dtype=float))
    edges = np.unique(np.concatenate([[lo, hi], breaks[(breaks > lo) & (breaks < hi)]]))
    a, b = edges[:-1], edges[1:]
    keep = b - a >= 1e-15 * np.maximum(1.0, np.abs(a))
    panels = gauss_rule(order, a[keep], b[keep])
    return QuadratureRule(panels.nodes.ravel(), panels.weights.ravel())


def geometric_breaks(depth: int = 6, coarse=(0.1, 0.5, 0.9)) -> np.ndarray:
    """Breakpoints on (0, 1) geometrically graded toward both endpoints.

    Suitable for integrands with integrable power singularities at the
    corners of the unit cube (e.g. copula densities).
    """
    fine = [10.0 ** (-k) for k in range(2, depth + 2)]
    pts = sorted(set(fine) | {1.0 - f for f in fine} | set(coarse))
    return np.asarray(pts, dtype=float)


def tensor_points(axes) -> np.ndarray:
    """Tensor product of the 1-D arrays ``axes`` as points of shape (N, d),
    in C order (the last axis varies fastest)."""
    return np.stack(np.broadcast_arrays(*np.ix_(*axes)), axis=-1).reshape(-1, len(axes))


def outer_sum(axes) -> np.ndarray:
    """sum_j axes[j][a_j] on the tensor grid of the 1-D arrays ``axes``,
    in grid shape (summed from the first axis)."""
    return reduce(np.add.outer, axes)


def bisect_root(g, lo, hi, tol: float = DEFAULT_ROOT_TOL):
    """Deterministic bisection for a sign change of ``g`` on [lo, hi].

    Accepts an exact root at either endpoint.  Raises
    :class:`BracketError` when both endpoints have the same strict sign.
    Stops when g is exactly zero or the bracket width falls below tol.

    ``lo``/``hi`` broadcast to an array of brackets, bisected at once:
    ``g`` maps an array of points (one per bracket) to their values, and
    each bracket follows exactly the steps it would take alone.
    """
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    if not np.all(a < b):
        raise InvalidIntervalError(f"need lo < hi, got [{lo}, {hi}]")
    ga, gb = (np.asarray(g(v), dtype=float) for v in (a, b))
    done = (ga == 0.0) | (gb == 0.0)
    root = np.where(ga == 0.0, a, b)
    if np.any(~done & (ga * gb > 0.0)):
        k = np.argmax(~done & (ga * gb > 0.0))
        raise BracketError(f"g({a.flat[k]})={ga.flat[k]} and g({b.flat[k]})={gb.flat[k]} "
                           "have the same sign")
    live = ~done & (b - a > tol)
    while np.any(live):
        m = 0.5 * (a + b)
        gm = np.asarray(g(m), dtype=float)
        hit = live & (gm == 0.0)
        root, done = np.where(hit, m, root), done | hit
        left = live & ~hit & (ga * gm < 0.0)
        right = live & ~hit & ~left
        b = np.where(left, m, b)
        a, ga = np.where(right, m, a), np.where(right, gm, ga)
        live = ~done & (b - a > tol)
    return np.where(done, root, 0.5 * (a + b))


@dataclass(frozen=True)
class RngStream:
    """Counter-based (Philox) random stream keyed by (seed, stream_id).

    The output is a pure function of the key, so distinct stream ids give
    each caller its own reproducible draws with no shared state.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        bg = np.random.Philox(
            key=np.array([self.seed, self.stream_id], dtype=np.uint64)
        )
        return np.random.Generator(bg)


def uniform_draws(stream: RngStream, count: int, dim: int) -> np.ndarray:
    """Reproducible U([0,1]^dim) draws; returns an array of shape (count, dim)."""
    if count < 1 or dim < 1:
        raise InvalidIntervalError("count and dim must be positive")
    return stream.generator().random((int(count), int(dim)))
