"""Laplace exponents of positive infinitely divisible families.

Every distribution in this toolkit is represented by the base exponent
``psi`` with ``E[exp(-u z)] = exp(-a * psi(u))`` for a coordinate with
concentration ``a``.  The concentration multiplier is always applied by the
caller; the functions here return the base exponent and its first three
derivatives in closed form.  The three families below are the only ones:
each has exact samplers (``nid``) and closed-form omega integrals
(``weights``).

Built-in families:

* ``gamma`` with scale ``lam``:            psi(u) = log(1 + u / lam)
* ``stable`` with index ``gam`` in (0,1):  psi(u) = C(gam) * u**gam
* ``invgauss`` with shape ``lam``:         psi(u) = sqrt(2u + lam^2) - lam

The stable constant ``C(gam) = Gamma(1-gam) / (sqrt(2*pi) * gam)`` is an
unusual normalization, kept because every downstream quantity we compute is
invariant under a positive rescaling of psi (the rescaling is equivalent to
rescaling the z's, which the normalized vector never sees).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAMMA = "gamma"
STABLE = "stable"
INVGAUSS = "invgauss"

_KINDS = (GAMMA, STABLE, INVGAUSS)


class FamilyError(ValueError):
    """Invalid family parameters."""


class DomainError(ValueError):
    """Evaluation outside the exponent's domain."""


@dataclass(frozen=True)
class IDFamily:
    """A positive infinitely divisible law, described only through its exponent.

    ``param`` is the scale ``lam`` for gamma, the index ``gam`` for stable and
    the shape ``lam`` for inverse Gaussian.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == GAMMA or self.kind == INVGAUSS:
            if self.param is None or self.param <= 0 or not np.isfinite(self.param):
                raise FamilyError(f"{self.kind} requires lam > 0, got {self.param}")
        elif self.kind == STABLE:
            if self.param is None or not 0.0 < self.param < 1.0:
                raise FamilyError(f"stable index must lie in (0, 1), got {self.param}")
        else:
            raise FamilyError(f"unknown family kind {self.kind!r}")

    def spec(self) -> str:
        """Config-string form, e.g. ``gamma:1.0``."""
        return f"{self.kind}:{self.param:g}"


def gamma_family(lam: float = 1.0) -> IDFamily:
    return IDFamily(GAMMA, float(lam))


def stable_family(gam: float) -> IDFamily:
    return IDFamily(STABLE, float(gam))


def invgauss_family(lam: float) -> IDFamily:
    return IDFamily(INVGAUSS, float(lam))


def stable_constant(gam: float) -> float:
    """Normalization constant of the stable exponent."""
    # scipy's gamma, not math.gamma: the two differ in the last bit at most
    # arguments, and this constant enters every stable weight
    from scipy.special import gamma

    return gamma(1.0 - gam) / (math.sqrt(2.0 * math.pi) * gam)


def parse_family(text: str) -> IDFamily:
    """Parse a ``kind:param`` config string into a family."""
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if name not in _KINDS:
        raise FamilyError(f"unknown family {name!r}; expected one of {_KINDS}")
    if not sep or not rest.strip():
        raise FamilyError(f"family spec {text!r} is missing its parameter")
    try:
        value = float(rest)
    except ValueError as exc:
        raise FamilyError(f"bad parameter in family spec {text!r}") from exc
    if name == GAMMA:
        return gamma_family(value)
    if name == STABLE:
        return stable_family(value)
    return invgauss_family(value)


def _check_u(family: IDFamily, u: np.ndarray, positive: bool) -> None:
    if positive and family.kind == STABLE:
        if np.any(u <= 0.0):
            raise DomainError("derivative evaluation requires u > 0 for this family")
    elif np.any(u < 0.0):
        raise DomainError("exponent defined on u >= 0 only")


def psi(family: IDFamily, u) -> np.ndarray:
    """Base Laplace exponent at ``u`` (scalar or array)."""
    u = np.asarray(u, dtype=float)
    _check_u(family, u, positive=False)
    if family.kind == GAMMA:
        return np.log1p(u / family.param)
    elif family.kind == STABLE:
        return stable_constant(family.param) * np.power(u, family.param)
    else:
        # algebraically sqrt(2u + lam^2) - lam, in a form without cancellation
        lam = family.param
        return 2.0 * u / (np.sqrt(2.0 * u + lam * lam) + lam)


def psi_deriv(family: IDFamily, u, order: int) -> np.ndarray:
    """Closed-form derivative of the base exponent, ``order`` in 1..3."""
    if order not in (1, 2, 3):
        raise DomainError(f"derivative order must be 1, 2 or 3, got {order}")
    u = np.asarray(u, dtype=float)
    _check_u(family, u, positive=True)
    if family.kind == GAMMA:
        s = family.param + u
        return {1: 1.0 / s, 2: -1.0 / s**2, 3: 2.0 / s**3}[order]
    elif family.kind == STABLE:
        g = family.param
        c = stable_constant(g)
        if order == 1:
            return c * g * np.power(u, g - 1.0)
        elif order == 2:
            return c * g * (g - 1.0) * np.power(u, g - 2.0)
        else:
            return c * g * (g - 1.0) * (g - 2.0) * np.power(u, g - 3.0)
    else:
        s = 2.0 * u + family.param**2
        return {1: s**-0.5, 2: -(s**-1.5), 3: 3.0 * s**-2.5}[order]
