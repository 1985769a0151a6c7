"""Shared test utilities: finite-difference and moment oracles, tensor masks."""
import math

import numpy as np

from nidtopics import psi, psi_deriv
from nidtopics.quadrature import integrate_semi_infinite
from nidtopics.weights import tail_cutoff


def _length_scale(family, u):
    """Scale over which the exponent varies, for step-size selection."""
    if family.kind == "gamma":
        return u + family.param
    if family.kind == "invgauss":
        return u + family.param**2 / 2.0
    return u  # stable and custom exponents are (near) scale-free


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
        singular_origin=family.singular_at_zero).value
