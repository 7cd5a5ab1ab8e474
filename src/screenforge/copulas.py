"""Copula families coupling percentile ranks across goods.

Each copula exposes, for a pre-contract type ``gamma``:

* ``cdf(u, gamma)``        joint distribution on the unit cube (the
  Gaussian one by a single one-factor integral at every number of goods),
* ``density(u, gamma)``    its density,
* ``partial_log_density``  componentwise d ln c / d u_j,
* ``conditional_chain``    the inverse Rosenblatt map z -> u used for
  sequential sampling (z uniform on the cube gives u distributed as the
  copula),
* ``axis_terms(u, gamma)`` and ``link(t, gamma)``  the dependent
  copulas' log density in the form ln c(u) = sum_j lambda(u_j) +
  g(sum_j tau(u_j)): ``axis_terms`` gives lambda, d lambda / du, tau and
  d tau / du at every percentile of ``u`` (elementwise), and ``link``
  gives g and g' at every point of ``t``, for one type.  So on a tensor
  grid the density is one exponential of outer sums of per-axis terms,
  and d ln c / d u_j = lambda'(u_j) + tau'(u_j) g'(t).

Parameters may drift with ``gamma`` through a linear path ``base +
slope * gamma``; a copula is invariant exactly when every slope is zero.
``density``, ``partial_log_density`` and ``conditional_chain`` also take
one type per point, a ``gamma`` array of shape ``u.shape[:-1]``.
Exact 0/1 components of ``z`` are mapped to 0/1 components of ``u`` so
corner draws stay at corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidIntervalError
from .numerics import composite_rule

_Z_CLIP = 1e-15
_CDF_CHUNK = 1 << 18  # points x nodes of one chunk of the Gaussian cdf


def _goods_axis(param):
    """A per-point parameter array shaped to broadcast against (..., n)."""
    return param[..., None] if np.ndim(param) else param


@dataclass(frozen=True)
class ParamPath:
    """Copula parameter base + slope * gamma; just ``base`` when invariant."""

    base: float
    slope: float = 0.0

    def __call__(self, gamma):
        if self.slope == 0.0:
            return self.base
        return self.base + self.slope * np.asarray(gamma, dtype=float)

    @property
    def invariant(self) -> bool:
        return self.slope == 0.0


class _Copula:
    """Shared parameter-path check; see the module docstring."""

    def check_path(self, lo: float, hi: float) -> None:
        """Raise InvalidIntervalError unless the parameter path is valid for
        every type in [lo, hi]; paths are linear and every valid set is an
        interval, so the two ends decide."""


class IndependenceCopula(_Copula):
    """Product copula: percentiles are independent across goods."""

    def __init__(self, dim: int):
        if dim < 1:
            raise InvalidIntervalError("dim must be >= 1")
        self.dim = int(dim)

    name = "independence"
    is_gamma_invariant = True

    def cdf(self, u, gamma: float = 0.0):
        u = np.asarray(u, dtype=float)
        return np.prod(np.clip(u, 0.0, 1.0), axis=-1)

    def density(self, u, gamma: float = 0.0):
        u = np.asarray(u, dtype=float)
        return np.ones(u.shape[:-1], dtype=float)

    def partial_log_density(self, u, gamma: float = 0.0):
        u = np.asarray(u, dtype=float)
        return np.zeros_like(u)

    def conditional_chain(self, z, gamma: float = 0.0):
        return np.asarray(z, dtype=float).copy()


class ClaytonCopula(_Copula):
    """Clayton copula with lower-tail dependence, alpha > 0.

    C(u) = (sum_j u_j^-alpha - n + 1)^(-1/alpha)
    c(u) = prod_{k=1}^{n-1}(k*alpha + 1) * (prod_j u_j)^-(alpha+1)
           * (sum_j u_j^-alpha - n + 1)^-(n + 1/alpha)
    """

    name = "clayton"

    def __init__(self, dim: int, alpha: float = 1.0, alpha_slope: float = 0.0):
        if dim < 2:
            raise InvalidIntervalError("clayton copula needs dim >= 2")
        self.dim = int(dim)
        self.alpha = ParamPath(float(alpha), float(alpha_slope))

    @property
    def is_gamma_invariant(self) -> bool:
        return self.alpha.invariant

    def _alpha(self, gamma):
        a = self.alpha(gamma)
        if np.any(a <= 0):
            raise InvalidIntervalError(f"clayton alpha must be positive, got {a}")
        return a

    def check_path(self, lo, hi):
        self._alpha(np.array([lo, hi], dtype=float))

    def cdf(self, u, gamma: float = 0.0):
        a = self._alpha(gamma)
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            s = np.sum(u ** (-a), axis=-1) - self.dim + 1.0
            out = np.where(np.isfinite(s), np.maximum(s, 1.0) ** (-1.0 / a), 0.0)
        return out

    def density(self, u, gamma=0.0):
        a = self._alpha(gamma)
        u = np.asarray(u, dtype=float)
        n = self.dim
        lead = math.prod(k * a + 1.0 for k in range(1, n))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            s = np.sum(u ** (-_goods_axis(a)), axis=-1) - n + 1.0
            out = lead * np.prod(u, axis=-1) ** (-(a + 1.0)) * s ** (-(n + 1.0 / a))
        return out

    def partial_log_density(self, u, gamma=0.0):
        a = _goods_axis(self._alpha(gamma))
        u = np.asarray(u, dtype=float)
        n = self.dim
        s = np.sum(u ** (-a), axis=-1, keepdims=True) - n + 1.0
        return -(a + 1.0) / u + a * (n + 1.0 / a) * u ** (-(a + 1.0)) / s

    def axis_terms(self, u, gamma=0.0):
        """lambda = -(alpha+1) ln u and tau = u^-alpha with their
        derivatives; ``gamma`` broadcasts against ``u``."""
        a = self._alpha(gamma)
        u = np.asarray(u, dtype=float)
        tau = u ** -a
        return -(a + 1.0) * np.log(u), -(a + 1.0) / u, tau, -a * tau / u

    def link(self, t, gamma=0.0):
        """g(t) = ln prod_k (k alpha + 1) - (n + 1/alpha) ln(t - n + 1) and
        g'(t), for one type."""
        a, n = self._alpha(gamma), self.dim
        s = t - (n - 1.0)
        power = n + 1.0 / a
        slope = -power / s
        g = np.log(s, out=s)
        g *= -power
        g += sum(math.log(k * a + 1.0) for k in range(1, n))
        return g, slope

    def conditional_chain(self, z, gamma=0.0):
        a = self._alpha(gamma)
        z = np.asarray(z, dtype=float)
        zc = np.clip(z, _Z_CLIP, 1.0 - _Z_CLIP)
        u = np.empty_like(zc)
        u[..., 0] = zc[..., 0]
        t = u[..., 0] ** (-a)  # running sum_j u_j^-a - (k-1) + 1
        for k in range(1, self.dim):
            expo = -a / (1.0 + a * k)
            u[..., k] = (t * (zc[..., k] ** expo - 1.0) + 1.0) ** (-1.0 / a)
            t = t + u[..., k] ** (-a) - 1.0
        corner = (z <= 0.0) | (z >= 1.0)
        return np.where(corner, np.clip(z, 0.0, 1.0), u)


def _normal_scores(u):
    from scipy.special import ndtri

    return ndtri(np.clip(np.asarray(u, dtype=float), _Z_CLIP, 1.0 - _Z_CLIP))


class GaussianCopula(_Copula):
    """Gaussian copula with an equicorrelated matrix, |rho| < 1.

    For dim n the correlation matrix is (1-rho) I + rho J; rho may drift
    with gamma through a linear path.  The cdf is the one-factor integral
    at every number of goods (see ``cdf``).
    """

    name = "gaussian"

    def __init__(self, dim: int, rho: float = 0.0, rho_slope: float = 0.0):
        if dim < 2:
            raise InvalidIntervalError("gaussian copula needs dim >= 2")
        self.dim = int(dim)
        self.rho = ParamPath(float(rho), float(rho_slope))

    @property
    def is_gamma_invariant(self) -> bool:
        return self.rho.invariant

    def _rho(self, gamma):
        r = self.rho(gamma)
        n = self.dim
        if not np.all((-1.0 / (n - 1) < r) & (r < 1.0)):
            raise InvalidIntervalError(f"equicorrelation rho {r} invalid for dim {n}")
        return r

    def check_path(self, lo, hi):
        self._rho(np.array([lo, hi], dtype=float))

    def _rinv(self, x, r):
        """R^-1 x for normal scores x, by the closed form for
        equicorrelation; row sums as products with ones, far faster than
        numpy's reduction over a short last axis."""
        n = self.dim
        srow = (x @ np.ones(n))[..., None]
        r = _goods_axis(r)
        return (x - r / (1.0 + (n - 1) * r) * srow) / (1.0 - r)

    def density(self, u, gamma=0.0):
        x, r, n = _normal_scores(u), self._rho(gamma), self.dim
        det = (1.0 - r) ** (n - 1) * (1.0 + (n - 1) * r)
        quad = (x * (self._rinv(x, r) - x)) @ np.ones(n)
        return np.exp(-0.5 * quad) / np.sqrt(det)

    def partial_log_density(self, u, gamma=0.0):
        x = _normal_scores(u)
        phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return -(self._rinv(x, self._rho(gamma)) - x) / phi

    def axis_terms(self, u, gamma=0.0):
        """From the normal score x of u: lambda = -b x^2 / 2 and tau = x,
        with tau' = 1 / phi(x) and b = rho / (1 - rho); ``gamma``
        broadcasts against ``u``."""
        r = self._rho(gamma)
        b = r / (1.0 - r)
        x = _normal_scores(u)
        dtau = math.sqrt(2.0 * math.pi) * np.exp(0.5 * x * x)
        return -0.5 * b * x * x, -b * x * dtau, x, dtau

    def link(self, t, gamma=0.0):
        """g(t) = kappa t^2 / 2 - ln(det R) / 2 and g'(t) = kappa t, with
        kappa = b / (1 + (n-1) rho), for one type."""
        r, n = self._rho(gamma), self.dim
        kappa = r / (1.0 - r) / (1.0 + (n - 1) * r)
        g = t * t
        g *= 0.5 * kappa
        g -= 0.5 * ((n - 1) * math.log(1.0 - r) + math.log(1.0 + (n - 1) * r))
        return g, kappa * t

    def _cholesky(self, gamma) -> np.ndarray:
        r = np.asarray(self._rho(gamma), dtype=float)[..., None, None]
        corr = np.where(np.eye(self.dim, dtype=bool), 1.0, r)
        return np.linalg.cholesky(corr)

    def conditional_chain(self, z, gamma=0.0):
        from scipy.special import ndtr

        z = np.asarray(z, dtype=float)
        chol = self._cholesky(gamma)
        xi = _normal_scores(z)
        x = xi @ chol.T if chol.ndim == 2 else (chol @ xi[..., None])[..., 0]
        u = ndtr(x)
        corner = (z <= 0.0) | (z >= 1.0)
        return np.where(corner, np.clip(z, 0.0, 1.0), u)

    def cdf(self, u, gamma: float = 0.0):
        """P(X <= x) at the normal scores x of u is the integral of phi(t)
        prod_j Phi((x_j - l t) / sqrt(1 - r)) dt, with loading l =
        sqrt(r), or i sqrt(-r) when r < 0 (Genz & Bretz 2009).
        It decays like exp(-kappa t^2 / 2), kappa > 0 on exactly the valid
        range of r, and is cut at exp(-40); each factor turns over a width
        sqrt((1 - r) / r) in t (panels of 8 were 4e-13 off at six goods)."""
        from scipy.special import erfcx, ndtr, ndtri

        r, n = self._rho(gamma), self.dim
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        flat = u.reshape(-1, n)
        out = np.prod(flat, axis=-1)  # exact with a coordinate at 0 or at most one below 1
        rows = np.flatnonzero((np.sum(flat < 1.0, axis=-1) > 1) & (out > 0.0))
        x = ndtri(flat[rows])  # inf where u_j = 1
        half = math.sqrt(80.0 * (1.0 + abs(r)) / (1.0 - (n - 1) * max(-r, 0.0)))
        width = 6.0 * math.sqrt((1.0 - r) / r) if r > 0.5 else 6.0
        rule = composite_rule(-half, half, 32,
                              np.linspace(-half, half, math.ceil(2.0 * half / width) + 1))
        t, scale = rule.nodes, math.sqrt(1.0 - r)
        if r >= 0.0:
            load, share = math.sqrt(r), 0.0
        else:  # each factor takes its share of phi(t), so none can overflow
            load, share = 1j * math.sqrt(-r), -0.5 * t * t / n
        wts = rule.weights * np.exp(-0.5 * t * t - n * share) / math.sqrt(2.0 * math.pi)
        step = max(1, _CDF_CHUNK // len(t))
        for lo in range(0, len(rows), step):
            acc = wts
            for xj in x[lo:lo + step, :, None].transpose(1, 0, 2):
                top = np.isinf(xj)
                z = (np.where(top, 0.0, xj) - load * t) / scale
                f = (ndtr(z) if r >= 0.0
                     else 0.5 * erfcx(-z / math.sqrt(2.0)) * np.exp(share - 0.5 * z * z))
                acc = acc * np.where(top, np.exp(share), f)
            out[rows[lo:lo + step]] = np.clip(acc.sum(axis=-1).real, 0.0, 1.0)
        return out.reshape(u.shape[:-1])

