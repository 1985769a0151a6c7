"""Normalized infinitely divisible distributions on the simplex.

A model is a shared base exponent plus a positive concentration vector
``alpha``; coordinate i of the unnormalized vector z has exponent
``alpha[i] * psi``.  The simplex vector is h = z / sum(z).

Moments of h up to third order are computed exactly by univariate
quadrature: E[prod h_i^{r_i}] is an integral of exp(-alpha0 * psi(u))
against a product of complete Bell polynomials in the derivatives of the
per-coordinate exponents.  Sampling uses exact per-family samplers, and the
density (for the three families that have closed-form marginals) comes from
the one-dimensional mixing integral over the common scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .families import (
    CUSTOM, GAMMA, INVGAUSS, STABLE,
    DomainError, IDFamily, psi, psi_deriv, stable_constant,
)
from .quadrature import QuadResult, integrate_semi_infinite

# exp(-a0 * psi) below this is treated as zero when choosing the cutoff
_LOG_FLOOR = math.log(1e-30)


class SamplerError(RuntimeError):
    """Sampling produced nonpositive or nonfinite draws beyond the retry budget."""


class UnsupportedFamilyError(ValueError):
    """Operation needs structure the family does not expose."""


@dataclass(frozen=True)
class NIDModel:
    """Shared-exponent NID model: base family plus concentration vector."""

    family: IDFamily
    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        if alpha.ndim != 1 or alpha.size < 2:
            raise ValueError("alpha must be a vector with at least two entries")
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise ValueError("all concentration entries must be positive and finite")
        if self.family.drift != 0.0:
            raise ValueError("NID models require a driftless family")

    @property
    def k(self) -> int:
        return self.alpha.size

    @property
    def alpha0(self) -> float:
        return float(self.alpha.sum())


def check_simplex(h, atol: float = 1e-12) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or np.any(h < 0.0) or abs(h.sum() - 1.0) > atol:
        raise ValueError("not a point on the probability simplex")
    return h


def bell_complete(x: Sequence[float], order: int):
    """Complete Bell polynomial Y_order of the leading entries of ``x``.

    Satisfies d^r/du^r exp(g(u)) = exp(g) * Y_r(g', g'', g''').
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    if len(x) < order:
        raise ValueError("need at least `order` arguments")
    if order == 1:
        return x[0]
    if order == 2:
        return x[0] * x[0] + x[1]
    return x[0] ** 3 + 3.0 * x[0] * x[1] + x[2]


def tail_cutoff(family: IDFamily, alpha0: float) -> float | None:
    """Point past which exp(-alpha0 * psi) is negligible, or None if unreached."""
    target = -_LOG_FLOOR / alpha0
    u = 1.0
    for _ in range(60):
        if psi(family, u) >= target:
            return float(u)
        u *= 4.0
        if u > 1e15:
            break
    return None


def _validate_multi_index(model: NIDModel, r) -> np.ndarray:
    r = np.asarray(r)
    if r.shape != (model.k,) or not np.issubdtype(r.dtype, np.integer):
        if r.shape == (model.k,) and np.all(r == np.round(r)):
            r = r.astype(int)
        else:
            raise ValueError("multi-index must be an integer vector of length k")
    if np.any(r < 0):
        raise ValueError("multi-index entries must be nonnegative")
    order = int(r.sum())
    if not 1 <= order <= 3:
        raise ValueError(f"moment order must be in 1..3, got {order}")
    return r


def moment_result(model: NIDModel, r) -> QuadResult:
    """Exact moment E[prod_i h_i^{r_i}] with its quadrature error estimate."""
    r = _validate_multi_index(model, r)
    order = int(r.sum())
    family, alpha, alpha0 = model.family, model.alpha, model.alpha0
    active = [(int(j), int(r[j])) for j in np.nonzero(r)[0]]
    max_rj = max(rj for _, rj in active)
    norm = math.gamma(order)

    def integrand(u):
        out = np.exp(-alpha0 * psi(family, u)) * u ** (order - 1) / norm
        d1 = psi_deriv(family, u, 1)
        d2 = psi_deriv(family, u, 2) if max_rj >= 2 else None
        d3 = psi_deriv(family, u, 3) if max_rj >= 3 else None
        for j, rj in active:
            a = alpha[j]
            if rj == 1:
                b = a * d1
            elif rj == 2:
                b = bell_complete((a * d1, -a * d2), 2)
            else:
                b = bell_complete((a * d1, -a * d2, a * d3), 3)
            out = out * b
        return out

    return integrate_semi_infinite(
        integrand,
        u_max=tail_cutoff(family, alpha0),
        singular_origin=family.singular_at_zero,
    )


def moment(model: NIDModel, r) -> float:
    return moment_result(model, r).value


def moment_vector(model: NIDModel) -> np.ndarray:
    """E[h]; equals alpha / alpha0 for every shared-exponent model."""
    k = model.k
    out = np.empty(k)
    for i in range(k):
        r = np.zeros(k, dtype=int)
        r[i] = 1
        out[i] = moment(model, r)
    return out


def moment_matrix(model: NIDModel) -> np.ndarray:
    """E[h ⊗ h] by quadrature."""
    k = model.k
    out = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            r = np.zeros(k, dtype=int)
            r[i] += 1
            r[j] += 1
            out[i, j] = out[j, i] = moment(model, r)
    return out


def moment_tensor(model: NIDModel) -> np.ndarray:
    """E[h ⊗ h ⊗ h] by quadrature (entries cached per index multiset)."""
    k = model.k
    cache: dict[tuple, float] = {}
    out = np.empty((k, k, k))
    for i in range(k):
        for j in range(k):
            for l in range(k):
                key = tuple(sorted((i, j, l)))
                if key not in cache:
                    r = np.zeros(k, dtype=int)
                    for idx in key:
                        r[idx] += 1
                    cache[key] = moment(model, r)
                out[i, j, l] = cache[key]
    return out


def centered_moment_matrix(model: NIDModel, weights) -> np.ndarray:
    """E[h⊗h] + v E[h]⊗E[h]; diagonal when the weights are correct."""
    m1 = moment_vector(model)
    return moment_matrix(model) + weights.v * np.outer(m1, m1)


def centered_moment_tensor(model: NIDModel, weights) -> np.ndarray:
    """Third-order combination that is diagonal under the correct weights."""
    m1 = moment_vector(model)
    m2 = moment_matrix(model)
    t3 = moment_tensor(model)
    out = t3 + weights.v2 * np.einsum("i,j,l->ijl", m1, m1, m1)
    out += weights.v1 * (np.einsum("ij,l->ijl", m2, m1)
                         + np.einsum("il,j->ijl", m2, m1)
                         + np.einsum("jl,i->ijl", m2, m1))
    return out


# ---------------------------------------------------------------------------
# sampling


def _positive_stable(rng: np.random.Generator, gam: float, shape) -> np.ndarray:
    """Draws with Laplace transform exp(-u**gam) (Kanter's representation)."""
    u = rng.uniform(0.0, np.pi, shape)
    e = rng.standard_exponential(shape)
    a = (np.sin(gam * u) ** gam * np.sin((1.0 - gam) * u) ** (1.0 - gam)) / np.sin(u)
    return (a ** (1.0 / (1.0 - gam)) / e) ** ((1.0 - gam) / gam)


def _draw_unnormalized(family: IDFamily, alpha: np.ndarray,
                       rng: np.random.Generator, n: int) -> np.ndarray:
    if family.kind == GAMMA:
        return rng.gamma(shape=alpha, scale=1.0 / family.param, size=(n, alpha.size))
    if family.kind == INVGAUSS:
        lam = family.param
        return rng.wald(alpha / lam, alpha**2, size=(n, alpha.size))
    if family.kind == STABLE:
        gam = family.param
        scale = (alpha * stable_constant(gam)) ** (1.0 / gam)
        return scale * _positive_stable(rng, gam, (n, alpha.size))
    raise UnsupportedFamilyError("no sampler for custom families (exponent-only spec)")


_MAX_RETRIES = 50


def sample(model: NIDModel, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Simplex draws; shape (k,) for size=None, else (size, k)."""
    n = 1 if size is None else int(size)
    z = _draw_unnormalized(model.family, model.alpha, rng, n)
    bad = ~np.isfinite(z) | (z <= 0.0)
    tries = 0
    alpha_full = np.broadcast_to(model.alpha, z.shape)
    while np.any(bad):
        tries += 1
        if tries > _MAX_RETRIES:
            raise SamplerError(f"{bad.sum()} draws stayed nonpositive/nonfinite "
                               f"after {_MAX_RETRIES} retries")
        idx = np.nonzero(bad)
        redraw = _draw_unnormalized(model.family, alpha_full[idx], rng, 1)
        z[idx] = redraw[0]
        bad = ~np.isfinite(z) | (z <= 0.0)
    h = z / z.sum(axis=1, keepdims=True)
    return h[0] if size is None else h


# ---------------------------------------------------------------------------
# density via the mixing integral


def _log_marginal(family: IDFamily, a: float, z: np.ndarray) -> np.ndarray:
    """Log density of one unnormalized coordinate with concentration ``a``."""
    if family.kind == GAMMA:
        lam = family.param
        return a * math.log(lam) + (a - 1.0) * np.log(z) - lam * z - gammaln(a)
    if family.kind == INVGAUSS:
        lam = family.param
        return (math.log(a) - 0.5 * math.log(2.0 * math.pi) - 1.5 * np.log(z)
                + a * lam - 0.5 * (a * a / z + lam * lam * z))
    if family.kind == STABLE:
        # closed form exists only at index 1/2 (the one-sided Levy law)
        return (math.log(a) - 0.5 * math.log(2.0 * math.pi) - 1.5 * np.log(z)
                - a * a / (2.0 * z))
    raise UnsupportedFamilyError("density needs a closed-form marginal")


def _density_supported(family: IDFamily) -> bool:
    if family.kind in (GAMMA, INVGAUSS):
        return True
    return family.kind == STABLE and abs(family.param - 0.5) < 1e-12


def density(model: NIDModel, h) -> float:
    """Density of h (with respect to Lebesgue measure on the first k-1 coords)."""
    if not _density_supported(model.family):
        raise UnsupportedFamilyError(
            f"no closed-form marginals for {model.family.spec()}; "
            "supported: gamma, invgauss, stable:0.5")
    h = check_simplex(h)
    if h.size != model.k:
        raise ValueError("dimension mismatch between h and model")
    if np.any(h <= 0.0):
        raise DomainError("density requires a strictly interior point")

    family, alpha, k = model.family, model.alpha, model.k

    def log_integrand(s):
        out = (k - 1.0) * np.log(s)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i in range(k):
                out = out + _log_marginal(family, alpha[i], h[i] * s)
        # h_i * s can underflow to 0, where a marginal that vanishes at the
        # origin (invgauss, stable:0.5) reads inf - inf = nan; the integrand
        # is 0 there.  Mapped once per evaluation, not per coordinate: the
        # marginals are the inner loop of run_chain's prior density.
        return np.fmax(out, -np.inf, out=out)

    # normalize in log space so the quadrature never overflows
    probe = np.logspace(-6, 6, 61)
    shift = float(np.max(log_integrand(probe)))
    if shift == -np.inf:     # every h_i * s underflowed: the density is 0 here
        return 0.0
    res = integrate_semi_infinite(
        lambda s: np.exp(np.clip(log_integrand(s) - shift, -745.0, 50.0)),
        singular_origin=True,
    )
    return float(res.value * math.exp(shift))


# ---------------------------------------------------------------------------
# correlation structure


def _corr_from_first_two(e1: np.ndarray, e2: np.ndarray):
    cov = e2 - np.outer(e1, e1)
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    np.fill_diagonal(corr, 1.0)
    iu = np.triu_indices(e1.size, 1)
    return corr, float(np.mean(cov[iu] > 0.0))


def correlation_profile(model: NIDModel):
    """Pairwise correlations of h, and the fraction of positive pairs.

    For shared-exponent models every pairwise covariance carries the same
    sign factor, and the sum constraint forces it negative, so the fraction
    is always 0; it is reported anyway for sweep outputs.
    """
    e1 = moment_vector(model)
    e2 = moment_matrix(model)
    return _corr_from_first_two(e1, e2)


def ig_mean_correlation_profile(alpha, lam: float):
    """Correlation profile of the normalized inverse Gaussian with
    per-coordinate means.

    Coordinate i is drawn from an inverse Gaussian with mean alpha[i] and
    common shape lam, so the coordinates do not share one base exponent and
    positive pairwise correlations become possible.  Computed exactly by
    quadrature over the per-coordinate exponents.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0.0) or lam <= 0.0:
        raise ValueError("means and shape must be positive")
    k = alpha.size

    def phi_total(u):
        out = 0.0
        for a in alpha:
            out = out + (lam / a) * (np.sqrt(1.0 + 2.0 * a * a * u / lam) - 1.0)
        return out

    def dphi(u, a):
        return a / np.sqrt(1.0 + 2.0 * a * a * u / lam)

    def d2phi(u, a):
        return -(a**3 / lam) * (1.0 + 2.0 * a * a * u / lam) ** -1.5

    target = -_LOG_FLOOR
    u_max = 1.0
    for _ in range(60):
        if phi_total(u_max) >= target:
            break
        u_max *= 4.0
    else:
        u_max = None

    def integ(f):
        return integrate_semi_infinite(
            lambda u: f(u) * np.exp(-phi_total(u)), u_max=u_max).value

    e1 = np.array([integ(lambda u, a=a: dphi(u, a)) for a in alpha])
    e2 = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            if i == j:
                val = integ(lambda u, a=alpha[i]: u * (dphi(u, a) ** 2 - d2phi(u, a)))
            else:
                val = integ(lambda u, ai=alpha[i], aj=alpha[j]:
                            u * dphi(u, ai) * dphi(u, aj))
            e2[i, j] = e2[j, i] = val
    return _corr_from_first_two(e1, e2)
