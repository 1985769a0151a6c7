"""Moment-combination weights from univariate integrals of the exponent.

The second- and third-order word moments become orthogonally decomposable
in the topic basis after centering with three scalars (v, v1, v2).  Each is
a ratio of integrals

    omega(m, n, p) = int_0^inf u^m psi^{(n)}(u) (psi'(u))^p exp(-a0 psi(u)) du,

so the whole computation is one-dimensional regardless of vocabulary or
topic dimension.  The combinations are fixed by requiring every off-diagonal
entry of the centered simplex moments to vanish:

    E[h_i h_j]          + v  E[h_i] E[h_j]                       = 0
    E[h_i^2 h_l] ... and E[h_i h_j h_l] cross terms with v1, v2  = 0

which gives

    v  = -omega(1,1,1) / omega(0,1,0)^2
    v1 = -omega(2,2,1) / (2 omega(1,2,0) omega(0,1,0))
    v2 = -(0.5 omega(2,1,2) + 3 v1 omega(1,1,1) omega(0,1,0)) / omega(0,1,0)^3

Closed forms for reference: the gamma family gives v = -a0/(a0+1),
v1 = -a0/(a0+2), v2 = 2 a0^2 / ((a0+2)(a0+1)); the 1/2-stable family gives
(v, v1, v2) = (-1/2, -1/4, 1/8) for every a0.

The same integrals give every exact moment of h of order n <= 3 (``nid``):

    (n-1)! E[prod h_i^{r_i}] = omega(n-1,1,n-1) prod alpha^r
                               - omega(n-1,2,n-2) sum_j C(r_j,2) alpha^r / alpha_j
                               + omega(2,3,0) sum_j [r_j = 3] alpha_j,

so (2, 3, 0), which enters only E[h_i^3], is the one triple the weights skip.

Every omega is a closed form in ``scipy.special``.  Write c_n for the
constant factor of psi^{(n)}:

* gamma:lam, psi^{(n)} = c_n (lam + u)^-n:
  omega = c_n lam^(m+1-n-p) B(m+1, n+p+a0-m-1);
* stable:gam, psi^{(n)} = c_n u^(gam-n) and psi' = C gam u^(gam-1):
  omega = c_n (C gam)^p Gamma(x) / (gam (a0 C)^x), x = (m+gam-n+p(gam-1)+1)/gam;
* invgauss:lam, psi^{(n)} = c_n s^(1-2n) with s = sqrt(2u + lam^2), so that
  u = (s^2 - lam^2) / 2 and du = s ds:
  omega = c_n 2^-m lam^(2m+1+q) S(a0 lam) with q = 2 - 2n - p, where S is
  the binomial sum over (s^2 - lam^2)^m of generalised exponential
  integrals e^x E_{-q-2j}(x) (``expn``, or ``gammaincc`` for negative
  index).  The sum alternates in sign and its terms need e^x, so past
  x = a0 lam = ``_HYPERU_FROM`` it is taken in t = s - lam instead, as
  m! sum_i C(m, i) U(m+1, m+2+q+i, x), every term positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import GAMMA, STABLE, IDFamily, stable_constant

# the (m, n, p) triples the weight formulas and the moments of h need
ACCEPTED_SPECS = ((0, 1, 0), (1, 1, 1), (2, 2, 1), (1, 2, 0), (2, 1, 2), (2, 3, 0))

# the five the centering triple needs, in the order ``compute_weights`` reads them
_WEIGHT_SPECS = ACCEPTED_SPECS[:5]

# c_n of the gamma and invgauss derivatives psi', psi'', psi'''
_GAMMA_C = (1.0, -1.0, 2.0)
_INVGAUSS_C = (1.0, -1.0, 3.0)

# a0 * lam past which the invgauss sum is taken in hyperu terms.  The
# alternating sum loses about 6e-12 relative at x = 100 and 1.6e-10 at 300
# (its e^x overflows near 700); hyperu is off by 1e-8 at x = 10 and within
# 1e-15 from x = 100 up.
_HYPERU_FROM = 100.0


@dataclass(frozen=True)
class Weights:
    v: float
    v1: float
    v2: float

    def __post_init__(self):
        if not all(np.isfinite([self.v, self.v1, self.v2])):
            raise ValueError("weights must be finite")


def _scaled_expn(r: int, x: float) -> float:
    """e^x E_r(x) for any integer r, with E_r(x) = Gamma(1-r, x) / x^(1-r) for r < 0."""
    from scipy.special import expn, gamma, gammaincc

    if r >= 0:
        return math.exp(x) * float(expn(r, x))
    return math.exp(x) * float(gamma(1 - r) * gammaincc(1 - r, x)) / x ** (1 - r)


def _invgauss_sum(m: int, q: int, x: float) -> float:
    """S(x) of the invgauss omega: the integral over s > lam of
    (s^2 - lam^2)^m s^q exp(-a0 (s - lam)), divided by lam^(2m+1+q)."""
    from scipy.special import hyperu

    if x <= _HYPERU_FROM:
        return sum(math.comb(m, j) * (-1) ** (m - j) * _scaled_expn(-q - 2 * j, x)
                   for j in range(m + 1))
    return math.factorial(m) * sum(math.comb(m, i) * float(hyperu(m + 1, m + 2 + q + i, x))
                                   for i in range(m + 1))


def omega(family: IDFamily, alpha0: float, spec) -> float:
    """omega(m, n, p) of ``family`` at total concentration ``alpha0``, in closed form."""
    spec = tuple(spec)
    if spec not in ACCEPTED_SPECS:
        raise ValueError(f"unsupported omega spec {spec}; accepted: {ACCEPTED_SPECS}")
    if alpha0 <= 0 or not np.isfinite(alpha0):
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    m, n, p = spec
    if family.kind == GAMMA:
        # B(m+1, b) = m! / (b (b+1) ... (b+m)), with b's integer part added last
        b = alpha0 + (n + p - m - 1)
        return (_GAMMA_C[n - 1] * family.param ** (m + 1 - n - p)
                * math.factorial(m) / math.prod(b + i for i in range(m + 1)))
    if family.kind == STABLE:
        from scipy.special import gamma

        g = family.param
        c = stable_constant(g)
        c_n = c * math.prod(g - i for i in range(n))
        x = (m + g - n + p * (g - 1.0) + 1.0) / g
        return c_n * (c * g) ** p * float(gamma(x)) / (g * (alpha0 * c) ** x)
    lam = family.param
    q = 2 - 2 * n - p
    return (_INVGAUSS_C[n - 1] * 0.5**m * lam ** (2 * m + 1 + q)
            * _invgauss_sum(m, q, alpha0 * lam))


def compute_weights(family: IDFamily, alpha0: float) -> Weights:
    """The centering triple (v, v1, v2) for one family at total concentration a0."""
    w0, w111, w221, w120, w212 = (omega(family, alpha0, s) for s in _WEIGHT_SPECS)
    v = -w111 / w0**2
    v1 = -w221 / (2.0 * w120 * w0)
    v2 = -(0.5 * w212 + 3.0 * v1 * w111 * w0) / w0**3
    return Weights(float(v), float(v1), float(v2))
