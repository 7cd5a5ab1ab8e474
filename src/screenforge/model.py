"""Primitives of the screening environment.

A :class:`JointModel` bundles the prior over the pre-contract type
``gamma``, one conditional marginal per good for the valuation vector
``theta``, and a copula coupling percentile ranks across goods.  The
joint density factorizes as

    f(theta | gamma) = c(F^1(theta^1|gamma), ..., F^n(theta^n|gamma))
                       * prod_j f^j(theta^j|gamma)

One good has nothing to couple: its copula is the 1-D independence
copula, so c = 1 when n = 1.

Marginals with moving supports are embedded in a fixed enclosing box
with the density extended by zero, so every conditional cdf is pinned
at 0/1 on the box boundary for all gamma.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import copulas
from .errors import ConfigError, DensityZeroError, InvalidIntervalError
from .numerics import DEFAULT_FD_STEP_FRACTION, tensor_points


# ---------------------------------------------------------------------------
# prior over the pre-contract type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaPrior:
    """Distribution of the pre-contract type on [lo, hi]."""

    lo: float
    hi: float
    cdf: Callable
    pdf: Callable

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidIntervalError("prior support is degenerate")


def uniform_prior(lo: float = 0.0, hi: float = 1.0) -> GammaPrior:
    width = hi - lo

    def cdf(g):
        return np.clip((np.asarray(g, dtype=float) - lo) / width, 0.0, 1.0)

    def pdf(g):
        g = np.asarray(g, dtype=float)
        return np.where((g >= lo) & (g <= hi), 1.0 / width, 0.0)

    return GammaPrior(lo, hi, cdf, pdf)


def hazard(prior: GammaPrior, gamma):
    """Inverse hazard rate (1 - G(gamma)) / g(gamma) of the type prior,
    elementwise over an array ``gamma``; zero where no mass is left."""
    g = np.asarray(prior.pdf(gamma), dtype=float)
    surv = 1.0 - np.asarray(prior.cdf(gamma), dtype=float)
    dead = g <= 0.0
    if np.any(dead & (surv > 0.0)):
        raise DensityZeroError(f"prior density vanishes at gamma={gamma}")
    out = np.where(dead, 0.0, surv / np.where(dead, 1.0, g))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# conditional marginals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalMarginal:
    """One good's valuation distribution conditional on the type.

    ``cdf``, ``pdf``, ``quantile_fn`` and the type-derivatives
    ``dcdf_dgamma`` and ``dpdf_dgamma`` take ``(theta, gamma)``
    (``(p, gamma)`` for the quantile) and broadcast: ``gamma`` may be an
    array of types shaped to broadcast against ``theta``, e.g. (T, 1)
    against (T, K) or (K,).  ``impulse_fn`` supplies the impulse
    dcdf_dgamma / pdf extended continuously to the whole box (needed
    where the density vanishes off a moving support).
    """

    support: tuple
    cdf: Callable
    pdf: Callable
    quantile_fn: Callable
    dcdf_dgamma: Callable
    dpdf_dgamma: Callable
    effective_fn: Optional[Callable] = None
    impulse_fn: Optional[Callable] = None

    def __post_init__(self):
        lo, hi = self.support
        if not lo < hi:
            raise InvalidIntervalError("marginal support is degenerate")

    def effective_support(self, gamma) -> tuple:
        """Interval where the conditional density is positive."""
        if self.effective_fn is None:
            return self.support
        return self.effective_fn(gamma)

    @property
    def smooth_in_gamma(self) -> bool:
        """Whether the density is differentiable in gamma pointwise on the
        whole box: a moving support concentrates the derivative on its
        edges, so score-based integrals must be avoided."""
        return self.effective_fn is None

    def impulse(self, theta, gamma):
        """dcdf_dgamma / pdf, the valuation response to a type shift."""
        if self.impulse_fn is not None:
            return self.impulse_fn(theta, gamma)
        dens = np.asarray(self.pdf(theta, gamma), dtype=float)
        if np.any(dens <= 0.0):
            raise DensityZeroError("impulse requested where the density vanishes")
        return np.asarray(self.dcdf_dgamma(theta, gamma), dtype=float) / dens

    def quantile(self, p, gamma):
        """Inverse conditional cdf; p = 0/1 map to the box endpoints."""
        p = np.asarray(p, dtype=float)
        lo, hi = self.support
        interior = self.quantile_fn(np.clip(p, 1e-300, 1.0 - 1e-16), gamma)
        out = np.where(p <= 0.0, lo, np.where(p >= 1.0, hi, interior))
        return out if out.ndim else float(out)


def _zeros(t, g):
    return np.zeros(np.broadcast(np.asarray(t, dtype=float), np.asarray(g)).shape)


def shifted_uniform_marginal(width: float = 1.0) -> ConditionalMarginal:
    """Valuation uniform on [gamma, gamma + width], embedded in the box
    [0, 2]; a width in (0, 1] keeps it inside for every type in [0, 1]."""
    if not 0.0 < width <= 1.0:
        raise InvalidIntervalError(f"width must lie in (0, 1], got {width!r}")

    def cdf(t, g):
        return np.clip((np.asarray(t, dtype=float) - g) / width, 0.0, 1.0)

    def pdf(t, g):
        t = np.asarray(t, dtype=float)
        return np.where((t >= g) & (t <= g + width), 1.0 / width, 0.0)

    def dcdf(t, g):
        t = np.asarray(t, dtype=float)
        return np.where((t >= g) & (t <= g + width), -1.0 / width, 0.0)

    def quant(p, g):
        return g + width * np.asarray(p, dtype=float)

    return ConditionalMarginal(support=(0.0, 2.0), cdf=cdf, pdf=pdf, quantile_fn=quant,
                               dcdf_dgamma=dcdf, dpdf_dgamma=_zeros,
                               effective_fn=lambda g: (g, g + width),
                               impulse_fn=lambda t, g: _zeros(t, g) - 1.0)


def fixed_uniform_marginal(box: tuple = (0.0, 1.0)) -> ConditionalMarginal:
    """Type-independent uniform valuation on ``box``."""
    lo, hi = box
    width = hi - lo

    def cdf(t, g):
        return np.clip((np.asarray(t, dtype=float) - lo) / width + _zeros(t, g), 0.0, 1.0)

    def pdf(t, g):
        t = np.asarray(t, dtype=float) + _zeros(t, g)
        return np.where((t >= lo) & (t <= hi), 1.0 / width, 0.0)

    return ConditionalMarginal(
        support=(lo, hi), cdf=cdf, pdf=pdf, dcdf_dgamma=_zeros, dpdf_dgamma=_zeros,
        quantile_fn=lambda p, g: lo + width * np.asarray(p, dtype=float) + _zeros(p, g),
        impulse_fn=_zeros)


def truncated_logistic_marginal(box: tuple = (-4.0, 5.0), loc: float = 0.0, shift: float = 1.0,
                                scale: float = 0.7) -> ConditionalMarginal:
    """Logistic-shaped cdf with location loc + shift*gamma, renormalized
    to ``box`` so the cdf is exactly 0/1 at the box edges for every type.

    Smooth in both arguments; the canonical family for derivative tests.
    With s the sigmoid at (theta - mu) / scale and c = 1 - s from the same
    exp, the slope is q = s c, and each difference of sigmoids is taken
    by ``_rise``; so the density and its derivatives keep their relative
    accuracy in both tails.
    """
    a, b = box
    if scale <= 0:
        raise InvalidIntervalError("scale must be positive")
    rate = shift / scale  # every (. - mu) / scale falls at this rate in gamma

    def _parts(g):
        """mu, then s and c at both box ends, and d = sb - sa."""
        mu = loc + shift * g
        (sa, sb), (ca, cb) = _sigmoid(np.stack([a - mu, b - mu]) / scale)
        return mu, sa, sb, ca, cb, _rise(sb, sa, cb, ca)

    def _at(t, g):  # s and c at t, then what _parts gives after mu
        mu, *ends = _parts(g)
        return (*_sigmoid((np.asarray(t, dtype=float) - mu) / scale), *ends)

    def cdf(t, g):
        s, c, sa, _, ca, _, d = _at(t, g)
        return np.clip(_rise(s, sa, c, ca) / d, 0.0, 1.0)

    def pdf(t, g):
        s, c, *_, d = _at(t, g)
        return s * c / (scale * d)

    def dcdf(t, g):  # -d^2 / rate times it is q d - (sb - s) qa - (s - sa) qb
        s, c, sa, sb, ca, cb, d = _at(t, g)
        num = _rise(sb, s, cb, c) * (sa * ca) + _rise(s, sa, c, ca) * (sb * cb) - s * c * d
        return rate * num / (d * d)

    def dpdf(t, g):  # q = s c has the type derivative -rate (1 - 2s) q
        s, c, sa, sb, ca, cb, d = _at(t, g)
        return rate * s * c * ((sb * cb - sa * ca) - (1.0 - 2.0 * s) * d) / (scale * d * d)

    def quant(p, g):  # s = sa + p d and 1 - s = cb + (1 - p) d, both sums
        mu, sa, _, _, cb, d = _parts(g)
        p = np.asarray(p, dtype=float)
        return mu + scale * np.log((sa + p * d) / (cb + (1.0 - p) * d))

    return ConditionalMarginal(support=box, cdf=cdf, pdf=pdf, quantile_fn=quant,
                               dcdf_dgamma=dcdf, dpdf_dgamma=dpdf)


def _rise(s_hi, s_lo, c_hi, c_lo):
    """s_hi - s_lo for sigmoids s_hi >= s_lo with complements c_hi, c_lo,
    as c_lo - c_hi where s_lo >= 1/2, so neither form loses digits."""
    upper = s_lo >= 0.5
    if not upper.any():
        return s_hi - s_lo
    return np.where(upper, c_lo - c_hi, s_hi - s_lo)


def _sigmoid(x):
    """s = 1 / (1 + exp(-x)) and c = 1 - s, both from one e = exp(-|x|)
    per point and each to an ulp relative, so the slope s c = e / (1 + e)^2
    keeps its digits too.  Later steps write into the arrays of earlier
    ones: at 16k points a fresh temporary costs more than its arithmetic."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:  # numpy hands back scalars, which take no out=
        return tuple(v[0] for v in _sigmoid(x[None]))
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    d = e + 1.0
    one = 1.0 / d
    ex = np.divide(e, d, out=d)
    up = x >= 0
    s = np.where(up, one, ex)
    np.copyto(one, ex, where=up)
    return s, one


# ---------------------------------------------------------------------------
# the joint model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointModel:
    """Immutable environment: type prior, per-good marginals, copula."""

    prior: GammaPrior
    marginals: tuple
    copula: object
    label: str = ""
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if self.copula.dim != len(self.marginals):
            raise ConfigError("copula dimension must match the number of goods")

    @property
    def n(self) -> int:
        return len(self.marginals)

    @property
    def invariant_flag(self) -> bool:
        return bool(self.copula.is_gamma_invariant)

    @property
    def box(self):
        return [m.support for m in self.marginals]

    def percentiles(self, gamma: float, theta) -> np.ndarray:
        """Stack of per-good conditional cdf values, shape (..., n)."""
        theta = np.asarray(theta, dtype=float)
        return np.stack(
            [np.asarray(m.cdf(theta[..., j], gamma), dtype=float)
             for j, m in enumerate(self.marginals)],
            axis=-1,
        )


def joint_density(model: JointModel, gamma: float, theta) -> np.ndarray:
    """f(theta|gamma); zero outside the support."""
    theta = np.asarray(theta, dtype=float)
    dens = np.ones(theta.shape[:-1], dtype=float)
    for j, m in enumerate(model.marginals):
        dens = dens * np.asarray(m.pdf(theta[..., j], gamma), dtype=float)
    pos = dens > 0.0
    if np.any(pos):
        u = model.percentiles(gamma, theta)
        cvals = np.asarray(model.copula.density(u, gamma), dtype=float)
        dens = np.where(pos, dens * np.where(pos, cvals, 1.0), 0.0)
    return dens


def sample_theta(model: JointModel, gamma, z) -> np.ndarray:
    """Push uniform draws z in [0,1]^n through the conditional-quantile
    chain of the copula and then the marginal quantiles.

    The pushforward of the uniform cube equals F(.|gamma); components of
    z at exactly 0/1 land on the enclosing box corners for every gamma.
    ``gamma`` may also hold one type per draw: shape (N,) with z (N, n).
    """
    z = np.asarray(z, dtype=float)
    u = model.copula.conditional_chain(z, gamma)
    cols = [
        np.asarray(model.marginals[j].quantile(u[..., j], gamma), dtype=float)
        for j in range(model.n)
    ]
    return np.stack(cols, axis=-1)


def invariance_residual(model: JointModel, grid: int, gamma_pair) -> float:
    """Max copula-density discrepancy between two types over the tensor
    grid of ``grid`` percentiles per good, evenly spaced on [0.1, 0.9].

    Zero (up to roundoff) exactly when the dependency structure does not
    drift between the two types on the grid.
    """
    g1, g2 = gamma_pair
    pts = tensor_points([np.linspace(0.1, 0.9, grid)] * model.n)
    c1 = np.asarray(model.copula.density(pts, g1), dtype=float)
    c2 = np.asarray(model.copula.density(pts, g2), dtype=float)
    return float(np.max(np.abs(c1 - c2)))


def divergence_residual(model: JointModel, gamma, theta):
    """Continuity-equation defect: a float at one point, N residuals for
    gamma of shape (N,) and theta of shape (N, n).

    Compares div_theta(V f) against f_gamma, both by central differences,
    where V is the per-good impulse response.  Small residuals certify
    that rewriting rents through V is legitimate at these points.
    """
    theta = np.asarray(theta, dtype=float)

    def vf_component(j, t):
        pt = theta.copy()
        pt[..., j] = t
        v = np.asarray(model.marginals[j].impulse(t, gamma), dtype=float)
        return v * joint_density(model, gamma, pt)

    div = 0.0
    for j, m in enumerate(model.marginals):
        lo, hi = m.effective_support(gamma)
        h = DEFAULT_FD_STEP_FRACTION * (m.support[1] - m.support[0])
        tj = theta[..., j]
        if np.any((tj - h < lo) | (tj + h > hi)):
            raise InvalidIntervalError("divergence stencil leaves the support interior")
        div += (vf_component(j, tj + h) - vf_component(j, tj - h)) / (2.0 * h)
    hg = DEFAULT_FD_STEP_FRACTION * (model.prior.hi - model.prior.lo)
    f_up = joint_density(model, gamma + hg, theta)
    f_dn = joint_density(model, gamma - hg, theta)
    out = np.abs(div - (f_up - f_dn) / (2.0 * hg))
    return out if out.ndim else float(out)


def boundary_residual(model: JointModel, gamma: float) -> float:
    """Max |dcdf_dgamma| over the box faces; must vanish for the
    divergence rewriting to drop its boundary term."""
    return max(abs(float(m.dcdf_dgamma(edge, gamma)))
               for m in model.marginals for edge in m.support)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# name -> (factory, the keys its block may set besides the name); each
# factory's signature holds its defaults, and a copula's takes the number
# of goods first
FAMILIES = {
    "cl_uniform": (shifted_uniform_marginal, ("width",)),
    "uniform_iid": (fixed_uniform_marginal, ("box",)),
    "logistic_shift": (truncated_logistic_marginal, ("box", "loc", "shift", "scale")),
}
COPULAS = {
    "independence": (copulas.IndependenceCopula, ()),
    "clayton": (copulas.ClaytonCopula, ("alpha", "alpha_slope")),
    "gaussian": (copulas.GaussianCopula, ("rho", "rho_slope")),
}
# identity's invariance check builds a 9**goods tensor grid: 140 MB at 6 goods
MAX_GOODS = 6
_FLOAT_MAX = sys.float_info.max


def _finite(value, name: str) -> float:
    """``value`` as a float; ConfigError unless it is a finite number (an
    int is compared exactly, so one past the float range is refused)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _FLOAT_MAX:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _factory(table: dict, where: str, block: dict) -> tuple:
    """The factory that the block's ``name`` picks from ``table``, and the
    block's other keys as its checked arguments; a key that the factory
    does not read is a ConfigError, as an unread verb key is."""
    name = block.get("name")
    if not isinstance(name, str) or name.lower() not in table:
        raise ConfigError(f"{where}.name must be one of {', '.join(table)}, got {name!r}")
    factory, keys = table[name.lower()]
    args = {key: value for key, value in block.items() if key != "name"}
    for key, value in args.items():
        if key not in keys:
            raise ConfigError(f"unknown key {where}.{key}; {name.lower()} reads "
                              f"{', '.join(keys) or 'no other key'}")
        args[key] = (tuple(_finite(v, f"each {where}.box entry") for v in value)
                     if key == "box" and isinstance(value, (list, tuple))
                     else _finite(value, f"{where}.{key}"))
    return factory, args


def build_model(config: dict) -> JointModel:
    """Construct a registered family from a configuration mapping: a
    ``name`` from ``FAMILIES`` with the keys it reads, ``goods`` and an
    optional ``copula`` block, a ``name`` from ``COPULAS`` with its keys
    (independence when the block or its name is left out)."""
    goods = config.get("goods", 1)
    if isinstance(goods, bool) or not isinstance(goods, int) or not 1 <= goods <= MAX_GOODS:
        raise ConfigError(f"goods must be an integer from 1 to {MAX_GOODS}, got {goods!r}")
    block = config.get("copula", {})
    if not isinstance(block, dict):
        raise ConfigError(f"family.copula must be a JSON object, got {block!r}")
    block = {"name": "independence", **block}
    marginal, marginal_args = _factory(FAMILIES, "family", {
        key: value for key, value in config.items() if key not in ("goods", "copula")})
    copula_class, copula_args = _factory(COPULAS, "family.copula", block)
    prior = uniform_prior(0.0, 1.0)
    try:
        # checked as for two goods, so one good refuses the same blocks
        copula = copula_class(max(goods, 2), **copula_args)
        copula.check_path(prior.lo, prior.hi)
        marg = marginal(**marginal_args)
    except (TypeError, ValueError) as exc:  # a box of 3 numbers, a width of 2
        raise ConfigError(f"bad family config: {exc}") from exc
    if goods == 1:
        copula = copulas.IndependenceCopula(1)
    # finite parameters can still overflow the marginal's arithmetic (a
    # logistic location far outside its box) and turn every report to NaN
    probe = (np.linspace(*marg.support, 9), np.array([[prior.lo], [prior.hi]]))
    with np.errstate(all="ignore"):
        if not all(np.all(np.isfinite(fn(*probe)))
                   for fn in (marg.cdf, marg.pdf, marg.dcdf_dgamma, marg.dpdf_dgamma)):
            raise ConfigError("bad family config: the marginal overflows on its box "
                              "at an end of the type range")
    name = config["name"].lower()
    return JointModel(prior=prior, marginals=(marg,) * goods, copula=copula,
                      label=f"{name}/{goods}g/{block['name']}",
                      config={**config, "name": name, "goods": goods, "copula": block})
