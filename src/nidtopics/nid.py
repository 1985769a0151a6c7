"""Normalized infinitely divisible distributions on the simplex.

A model is a shared base exponent plus a positive concentration vector
``alpha``; coordinate i of the unnormalized vector z has exponent
``alpha[i] * psi``.  The simplex vector is h = z / sum(z).

Moments of h up to third order are exact: E[prod h_i^{r_i}] is an integral
of exp(-alpha0 * psi(u)) against a product of complete Bell polynomials in
the derivatives of the per-coordinate exponents alpha_i * psi.  Because the
exponents share psi, that product multiplies out into the omega integrals
of ``weights``; with n = sum(r),

    (n-1)! E[prod h_i^{r_i}] = omega(n-1,1,n-1) prod alpha^r
                               - omega(n-1,2,n-2) sum_j C(r_j,2) alpha^r / alpha_j
                               + omega(2,3,0) sum_j [r_j = 3] alpha_j,

so E[h], E[h⊗h] and E[h⊗h⊗h] take the six closed-form omega integrals of
``weights`` in all, whatever k.  A Laplace exponent has psi', psi''' > 0 >
psi'', so every term is nonnegative and nothing cancels.  Sampling uses
exact per-family samplers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .families import GAMMA, INVGAUSS, STABLE, IDFamily, stable_constant
from .weights import omega


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

    @property
    def k(self) -> int:
        return self.alpha.size

    @property
    def alpha0(self) -> float:
        return float(self.alpha.sum())


def _omega(model: NIDModel, m: int, n: int, p: int) -> float:
    return omega(model.family, model.alpha0, (m, n, p))


def moment_vector(model: NIDModel) -> np.ndarray:
    """E[h] = omega(0,1,0) alpha, which is alpha / alpha0 for every family."""
    return _omega(model, 0, 1, 0) * model.alpha


def moment_matrix(model: NIDModel) -> np.ndarray:
    """E[h ⊗ h] = omega(1,1,1) alpha alpha^T - omega(1,2,0) diag(alpha)."""
    alpha = model.alpha
    return (_omega(model, 1, 1, 1) * np.outer(alpha, alpha)
            - _omega(model, 1, 2, 0) * np.diag(alpha))


def moment_tensor(model: NIDModel) -> np.ndarray:
    """E[h ⊗ h ⊗ h] = (omega(2,1,2) alpha⊗alpha⊗alpha - omega(2,2,1) P
    + omega(2,3,0) superdiag(alpha)) / 2, where P holds alpha_i alpha_l at
    each of (i, i, l), (i, l, i) and (l, i, i)."""
    alpha = model.alpha
    idx = np.arange(model.k)
    out = _omega(model, 2, 1, 2) * np.einsum("i,j,l->ijl", alpha, alpha, alpha)
    pair = _omega(model, 2, 2, 1) * np.outer(alpha, alpha)
    out[idx, idx, :] -= pair
    out[idx, :, idx] -= pair
    out[:, idx, idx] -= pair
    out[idx, idx, idx] += _omega(model, 2, 3, 0) * alpha
    return 0.5 * out


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
    gam = family.param
    scale = (alpha * stable_constant(gam)) ** (1.0 / gam)
    return scale * _positive_stable(rng, gam, (n, alpha.size))


# Candidates drawn per entry in one rejection pass of ``_gig``.  Devroye's
# hat accepts about 85% of candidates at the chain's parameters, so three
# leave about 0.3% of entries unaccepted and one pass serves most k = 20 draws.
_GIG_CANDIDATES = 3
# Row 0 of the hat's (2, n) arrays is the right tangent point t, row 1 the
# left one s.  The log-density drops by alpha (cosh 1 - 1) + lam * _DROP_LAM
# from its mode to y = +1 and y = -1; where that drop is steep (above 2) the
# tangent points are sqrt(_STEEP_NUM / (alpha * _STEEP_ALPHA + lam)).
_COSH1 = math.cosh(1.0)
_DROP_LAM = np.array([[math.e - 2.0], [1.0 / math.e]])
_STEEP_NUM = np.array([[2.0], [4.0]])
_STEEP_ALPHA = np.array([[1.0], [_COSH1]])
_RIGHT_LEFT = np.array([[1.0], [-1.0]])


def _log_kernel(y, alpha, lam):
    """The log-density of y = log(x / mode scale), 0 at its mode y = 0."""
    return -alpha * (np.cosh(y) - 1.0) - lam * (np.expm1(y) - y)


def _gig(p, a, b, rng: np.random.Generator) -> np.ndarray:
    """One GIG(p, a, b) draw per entry of the 1-d ``p``; ``a`` and ``b`` are
    scalars or of p's shape.

    GIG(p, a, b) has density proportional to x^(p-1) exp(-(a x + b / x) / 2)
    with a, b > 0.  Devroye's rejection sampler (Stat. Comput. 2014): with
    lam = |p| and omega = sqrt(a b), the log-density of y = log(x / mode
    scale) is the concave ``_log_kernel``, bounded by 0 between two tangent
    points t and -s and by the tangent lines outside them.  The hat is built
    once per call, the two tangent points as the two rows of one array.  Each
    pass draws ``_GIG_CANDIDATES`` candidates per entry and keeps the first
    accepted one; the entries with none accepted get further passes.  That is
    one run of iid rejection trials cut into blocks, and the first success in
    such a run has exactly the target law, so every draw is exact.  Negative
    p uses GIG(p, a, b) = 1 / GIG(-p, b, a).
    """
    p = np.asarray(p, dtype=float)
    lam = np.abs(p)
    ab = a * b
    root = np.sqrt(lam * lam + ab) + lam
    alpha = ab / root                     # sqrt(lam^2 + omega^2) - lam
    drop = alpha * (_COSH1 - 1.0) + lam * _DROP_LAM
    shallow = np.empty_like(drop)
    with np.errstate(divide="ignore", over="ignore"):   # in branches np.where drops
        steep = np.sqrt(_STEEP_NUM / (alpha * _STEEP_ALPHA + lam))
        np.log(4.0 / (alpha + 2.0 * lam), out=shallow[0])
        inv_alpha = 1.0 / alpha
        np.minimum(1.0 / lam, np.log1p(inv_alpha + np.sqrt(inv_alpha * (inv_alpha + 2.0))),
                   out=shallow[1])
    ts = _RIGHT_LEFT * np.where(drop > 2.0, steep, np.where(drop < 0.5, shallow, 1.0))  # t, -s
    # minus 1 / the log-density's slope at t and -s, and where each tangent
    # line there reaches the hat's flat level 0
    inv_slope = 1.0 / (alpha * np.sinh(ts) + lam * np.expm1(ts))   # r, -pl
    ends = ts + _log_kernel(ts, alpha, lam) * inv_slope              # t_in, -s_in
    t_in, s_in = ends[0], -ends[1]        # the hat is 1 on [-s_in, t_in]
    r, pl = inv_slope[0], -inv_slope[1]   # masses of the right and left tails
    q = t_in + s_in
    hat = (alpha, lam, t_in, s_in, r, pl, q, q + r)

    y, ok = _gig_pass(hat, rng)
    todo = (~ok).nonzero()[0]
    while todo.size:
        y[todo], ok = _gig_pass([x[todo] for x in hat], rng)
        todo = todo[~ok]
    # the mode scale of GIG(|p|, a, b) is root / a; of its inverse, b / root
    x = root * np.exp(y)
    return np.where(p < 0.0, b / x, x / a)


def _gig_pass(hat, rng: np.random.Generator):
    """``_GIG_CANDIDATES`` candidates per entry from Devroye's hat: the first
    accepted one of each entry, and whether there was one."""
    alpha, lam, t_in, s_in, r, pl, q, qr = hat
    u, v, w = rng.random((3, _GIG_CANDIDATES, q.size))
    u *= qr + pl
    log_v = np.log(v)
    flat = u < q                          # and then u is uniform on [0, q)
    cand = np.where(flat, u - s_in, np.where(u < qr, t_in - r * log_v, pl * log_v - s_in))
    # the log-hat is 0 on the flat part and log v at a tail candidate
    ok = np.log(w) + np.where(flat, 0.0, log_v) <= _log_kernel(cand, alpha, lam)
    first = ok.argmax(axis=0)
    cols = np.arange(q.size)
    return cand[first, cols], ok[first, cols]


def _tilted_sampler(family: IDFamily, alpha: np.ndarray) -> Callable:
    """``draw(n, U, rng)``: one unnormalized vector z with z_i drawn from its
    prior law tilted to density proportional to z^{n_i} exp(-U z) f_i(z).

    These are the laws of z given word-topic counts n and the latent U of the
    normalized-random-measure augmentation; with n = 0 and U = 0 they are the
    prior.  Defined for the families with closed-form marginals.  The terms
    that depend only on the prior (alpha^2, lam^2) are computed here, once.
    """
    _require_closed_form(family)
    if family.kind == GAMMA:
        rate = family.param
        tilted = lambda n, U, rng: rng.gamma(alpha + n, 1.0 / (rate + U))
    else:
        b = alpha * alpha
        a0 = family.param ** 2 if family.kind == INVGAUSS else 0.0
        tilted = lambda n, U, rng: _gig(n - 0.5, 2.0 * U + a0, b, rng)

    def draw(n, U, rng):
        # no words: a prior draw, redrawn as ``sample`` does where a small
        # alpha underflows it to 0; stable:0.5 would need GIG with a = 0
        if U == 0.0:
            return _draw_positive(family, alpha, rng, 1)[0]
        return tilted(n, U, rng)
    return draw


_MAX_RETRIES = 50


def _draw_positive(family: IDFamily, alpha: np.ndarray,
                   rng: np.random.Generator, n: int) -> np.ndarray:
    """n unnormalized prior draws, shape (n, k), with every nonpositive or
    nonfinite entry redrawn."""
    z = _draw_unnormalized(family, alpha, rng, n)
    tries = 0
    # two reductions settle the common, all-valid case; NaN fails both
    while z.size and not (np.minimum.reduce(z, axis=None) > 0.0
                          and np.maximum.reduce(z, axis=None) < np.inf):
        bad = ~np.isfinite(z) | (z <= 0.0)
        tries += 1
        if tries > _MAX_RETRIES:
            raise SamplerError(f"{bad.sum()} draws stayed nonpositive/nonfinite "
                               f"after {_MAX_RETRIES} retries")
        idx = np.nonzero(bad)
        alpha_full = np.broadcast_to(alpha, z.shape)
        redraw = _draw_unnormalized(family, alpha_full[idx], rng, 1)
        z[idx] = redraw[0]
    return z


def sample(model: NIDModel, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Simplex draws; shape (k,) for size=None, else (size, k)."""
    n = 1 if size is None else int(size)
    z = _draw_positive(model.family, model.alpha, rng, n)
    h = z / np.add.reduce(z, axis=1, keepdims=True)
    return h[0] if size is None else h


def _require_closed_form(family: IDFamily) -> None:
    if family.kind in (GAMMA, INVGAUSS) or (
            family.kind == STABLE and abs(family.param - 0.5) < 1e-12):
        return
    raise UnsupportedFamilyError(
        f"no closed-form marginals for {family.spec()}; "
        "supported: gamma, invgauss, stable:0.5")


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
    positive pairwise correlations become possible.  E[h] and E[h⊗h] are
    computed as one vector quadrature over the per-coordinate exponents.
    """
    # imported here so that importing the package does not load scipy.integrate
    from scipy.integrate import quad_vec

    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0.0) or lam <= 0.0:
        raise ValueError("means and shape must be positive")
    k = alpha.size
    diag = np.arange(k)
    upper = np.triu_indices(k)

    def integrands(u):
        # coordinate i has exponent (lam / a_i) (r_i - 1): first derivative
        # a_i / r_i, second -(a_i^3 / lam) / r_i^3
        r = np.sqrt(1.0 + 2.0 * alpha * alpha * u / lam)
        d1 = alpha / r
        pair = u * np.outer(d1, d1)
        pair[diag, diag] += u * alpha**3 / (lam * r**3)
        weight = math.exp(-float(np.sum(lam / alpha * (r - 1.0))))
        return weight * np.concatenate([d1, pair[upper]])

    vals = quad_vec(integrands, 0.0, np.inf)[0]
    e2 = np.empty((k, k))
    e2[upper] = vals[k:]
    e2.T[upper] = vals[k:]
    return _corr_from_first_two(vals[:k], e2)
