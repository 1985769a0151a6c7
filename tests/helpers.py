"""Shared test utilities: finite-difference, moment, weight and density
oracles, the centred moments of h, tensor masks.

The moment and density oracles integrate with ``quadrature.py`` (in this
directory), an integrator the package itself does not use."""
import math

import numpy as np
from scipy.special import gammaln

from nidtopics import (
    NIDModel, Weights, moment_matrix, moment_tensor, moment_vector, psi, psi_deriv,
)
from nidtopics.families import GAMMA, INVGAUSS, STABLE, DomainError
from nidtopics.moments import build_m2, build_whitened_m3, exact_moment_set, project_moments
from nidtopics.nid import UnsupportedFamilyError, _require_closed_form

from quadrature import integrate_semi_infinite

# exp(-a0 * psi) below this is treated as zero when choosing the cutoff
_LOG_FLOOR = math.log(1e-30)


def _length_scale(family, u):
    """Scale over which the exponent varies, for step-size selection."""
    if family.kind == "gamma":
        return u + family.param
    if family.kind == "invgauss":
        return u + family.param**2 / 2.0
    return u  # stable exponents are scale-free


def fd_derivative(family, u, order, scale=None):
    """Central finite difference of the exponent, step scaled per order."""
    L = scale if scale is not None else _length_scale(family, u)
    h = L * {1: 6e-6, 2: 1e-4, 3: 6e-4}[order]
    h = min(h, 0.45 * u)  # keep the widest stencil inside the domain
    f = lambda x: psi(family, x)
    if order == 1:
        return (f(u + h) - f(u - h)) / (2 * h)
    if order == 2:
        return (f(u + h) - 2 * f(u) + f(u - h)) / h**2
    return (f(u + 2 * h) - 2 * f(u + h) + 2 * f(u - h) - f(u - 2 * h)) / (2 * h**3)


def offdiag_matrix(m):
    m = np.asarray(m)
    return m[~np.eye(m.shape[0], dtype=bool)]


def offdiag_tensor(t):
    t = np.asarray(t)
    k = t.shape[0]
    mask = np.ones((k, k, k), dtype=bool)
    for i in range(k):
        mask[i, i, i] = False
    return t[mask]


def centred_moments(model, weights):
    """Centred pair and triple moments of h under ``weights``, (k, k) and (k, k, k).

    Built by the centring ``learn`` runs: the exact moments of a topic model
    whose topics are the unit vectors (A = I_k, so the word moments are the
    moments of h), projected through I_k and centred by ``build_m2`` and
    ``build_whitened_m3`` with the identity whitener.  Correct weights make
    both diagonal.
    """
    I = np.eye(model.k)
    p = project_moments(exact_moment_set(model, I), I)
    return build_m2(p, weights), build_whitened_m3(p, weights, I)


def moment(model, r):
    """Exact E[prod h_i^{r_i}] of order 1..3: one entry of the package's moment arrays."""
    arrays = (moment_vector, moment_matrix, moment_tensor)
    return float(arrays[sum(r) - 1](model)[tuple(np.repeat(np.arange(model.k), r))])


def gamma_closed_form(alpha0):
    """The centring weights of the gamma (Dirichlet) family in closed form."""
    v = -alpha0 / (alpha0 + 1.0)
    v1 = -alpha0 / (alpha0 + 2.0)
    v2 = 2.0 * alpha0**2 / ((alpha0 + 2.0) * (alpha0 + 1.0))
    return Weights(v, v1, v2)


def half_stable_closed_form():
    """The centring weights of the 1/2-stable family, the same at every alpha0."""
    return Weights(-0.5, -0.25, 0.125)


def dirichlet_moment(alpha, r):
    """Closed-form Dirichlet moment E[prod h_i^{r_i}] via rising factorials."""
    alpha = np.asarray(alpha, dtype=float)
    r = np.asarray(r, dtype=int)
    num = 1.0
    for a, ri in zip(alpha, r):
        for s in range(ri):
            num *= a + s
    den = 1.0
    a0 = alpha.sum()
    for s in range(int(r.sum())):
        den *= a0 + s
    return num / den


def tail_cutoff(family, alpha0):
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


def reference_moment(model, r):
    """E[prod h_i^{r_i}] by its own quadrature, one integral per multi-index.

    The integrand is exp(-alpha0 psi) u^{n-1} / (n-1)! times, for each
    coordinate, the complete Bell polynomial Y_{r_i} of the derivatives of
    -alpha_i psi with sign (-1)^{r_i}: independent of the omega expansion
    the library uses, so it serves as an oracle for it.
    """
    family, alpha, alpha0 = model.family, model.alpha, model.alpha0
    r = np.asarray(r, dtype=int)
    order = int(r.sum())
    norm = math.gamma(order)

    def integrand(u):
        out = np.exp(-alpha0 * psi(family, u)) * u ** (order - 1) / norm
        d = {n: psi_deriv(family, u, n) for n in (1, 2, 3)}
        for a, rj in zip(alpha, r):
            x1, x2, x3 = a * d[1], -a * d[2], a * d[3]
            out = out * {0: 1.0, 1: x1, 2: x1 * x1 + x2,
                         3: x1**3 + 3.0 * x1 * x2 + x3}[int(rj)]
        return out

    return integrate_semi_infinite(
        integrand, u_max=tail_cutoff(family, alpha0),
        singular_origin=family.kind == STABLE).value


def check_simplex(h, atol=1e-12):
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or np.any(h < 0.0) or abs(h.sum() - 1.0) > atol:
        raise ValueError("not a point on the probability simplex")
    return h


def _log_marginal(family, a, z):
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


def density(model, h):
    """Density of h (with respect to Lebesgue measure on the first k-1 coords)
    by the one-dimensional mixing integral over the common scale."""
    _require_closed_form(model.family)
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
        # is 0 there
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


def dirichlet_logpdf(x, conc):
    if np.any(x <= 0.0):
        return -np.inf
    return float(gammaln(conc.sum()) - gammaln(conc).sum()
                 + ((conc - 1.0) * np.log(x)).sum())


def log_posterior(h, zeta, doc, model):
    """Unnormalized log posterior of (h, zeta) for one document of a
    TopicModel; the prior term of invgauss and stable:0.5 is ``density``."""
    h = np.asarray(h, dtype=float)
    zeta = np.asarray(zeta, dtype=int)
    doc = np.asarray(doc, dtype=int)
    if doc.size != zeta.size:
        raise ValueError("zeta must assign one topic per word")
    if np.any(h <= 0.0):
        raise ValueError("log_posterior requires strictly interior h")
    if np.any(h >= 1.0):
        prior = -np.inf
    elif model.family.kind == GAMMA:
        # normalizing by the sum of gammas is the Dirichlet for any scale
        prior = dirichlet_logpdf(h, model.alpha)
    else:
        val = density(NIDModel(model.family, model.alpha), h)
        prior = float(np.log(val)) if val > 0.0 else -np.inf
    n_i = np.bincount(zeta, minlength=model.k)
    word_term = float(np.log(model.A[doc, zeta]).sum()) if doc.size else 0.0
    return prior + float((n_i * np.log(h)).sum()) + word_term
