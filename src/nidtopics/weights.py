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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .families import IDFamily, psi, psi_deriv
from .quadrature import QuadResult, integrate_semi_infinite

# the (m, n, p) triples the weight formulas and the moments of h need
ACCEPTED_SPECS = ((0, 1, 0), (1, 1, 1), (2, 2, 1), (1, 2, 0), (2, 1, 2), (2, 3, 0))

# exp(-a0 * psi) below this is treated as zero when choosing the cutoff
_LOG_FLOOR = math.log(1e-30)


@dataclass(frozen=True)
class OmegaSpec:
    m: int
    n: int
    p: int

    def __post_init__(self):
        if (self.m, self.n, self.p) not in ACCEPTED_SPECS:
            raise ValueError(
                f"unsupported omega spec {(self.m, self.n, self.p)}; "
                f"accepted: {ACCEPTED_SPECS}")

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.m, self.n, self.p)


@dataclass(frozen=True)
class Weights:
    v: float
    v1: float
    v2: float
    err: Optional[Tuple[float, float, float]] = None

    def __post_init__(self):
        if not all(np.isfinite([self.v, self.v1, self.v2])):
            raise ValueError("weights must be finite")


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


def omega_result(family: IDFamily, alpha0: float, spec) -> QuadResult:
    """Adaptive quadrature of one omega integral, with error estimate."""
    if not isinstance(spec, OmegaSpec):
        spec = OmegaSpec(*spec)
    if alpha0 <= 0 or not np.isfinite(alpha0):
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    m, n, p = spec.as_tuple()

    def integrand(u):
        out = np.exp(-alpha0 * psi(family, u)) * psi_deriv(family, u, n)
        if m:
            out = out * u**m
        if p:
            out = out * psi_deriv(family, u, 1) ** p
        return out

    return integrate_semi_infinite(
        integrand,
        u_max=tail_cutoff(family, alpha0),
        singular_origin=family.singular_at_zero,
    )


def omega(family: IDFamily, alpha0: float, spec) -> float:
    return omega_result(family, alpha0, spec).value


def compute_weights(family: IDFamily, alpha0: float) -> Weights:
    """The centering triple (v, v1, v2) for one family at total concentration a0."""
    r010 = omega_result(family, alpha0, (0, 1, 0))
    r111 = omega_result(family, alpha0, (1, 1, 1))
    r221 = omega_result(family, alpha0, (2, 2, 1))
    r120 = omega_result(family, alpha0, (1, 2, 0))
    r212 = omega_result(family, alpha0, (2, 1, 2))

    w0, w111, w221, w120, w212 = (r.value for r in (r010, r111, r221, r120, r212))
    v = -w111 / w0**2
    v1 = -w221 / (2.0 * w120 * w0)
    v2 = -(0.5 * w212 + 3.0 * v1 * w111 * w0) / w0**3

    # first-order propagation of the quadrature error estimates
    def rel(r):
        return r.error / abs(r.value) if r.value else r.error

    e0 = rel(r010)
    v_err = abs(v) * (rel(r111) + 2 * e0)
    v1_err = abs(v1) * (rel(r221) + rel(r120) + e0)
    v2_err = (0.5 * r212.error + 3.0 * (v1_err * abs(w111 * w0)
              + abs(v1) * (r111.error * abs(w0) + abs(w111) * r010.error))) / abs(w0) ** 3 \
        + abs(v2) * 3 * e0
    return Weights(float(v), float(v1), float(v2),
                   err=(float(v_err), float(v1_err), float(v2_err)))


def gamma_closed_form(alpha0: float) -> Weights:
    """Known closed form for the gamma (Dirichlet) family."""
    v = -alpha0 / (alpha0 + 1.0)
    v1 = -alpha0 / (alpha0 + 2.0)
    v2 = 2.0 * alpha0**2 / ((alpha0 + 2.0) * (alpha0 + 1.0))
    return Weights(v, v1, v2)


def half_stable_closed_form() -> Weights:
    """Exact triple for the 1/2-stable family (independent of alpha0)."""
    return Weights(-0.5, -0.25, 0.125)
