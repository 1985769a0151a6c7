import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidtopics import (
    gamma_family, invgauss_family, parse_family, psi,
    psi_deriv, stable_family,
)
from nidtopics.families import DomainError, FamilyError, stable_constant

from helpers import fd_derivative

ALL_FAMILIES = [
    gamma_family(1.0), gamma_family(0.5), gamma_family(3.0),
    stable_family(0.3), stable_family(0.5), stable_family(0.75),
    invgauss_family(0.5), invgauss_family(2.0), invgauss_family(4.0),
]

U_GRID = np.logspace(-3, 3, 13)


def test_gamma_psi_log_form():
    assert psi(gamma_family(1.0), 1.0) == pytest.approx(math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_psi_zero_is_zero(family):
    assert psi(family, 0.0) == 0.0


def test_invgauss_closed_form():
    # sqrt(12 + 4) - 2 = 2
    assert psi(invgauss_family(2.0), 6.0) == pytest.approx(2.0, abs=1e-12)


def test_gamma_first_derivative():
    assert psi_deriv(gamma_family(1.0), 1.0, 1) == pytest.approx(0.5, abs=1e-12)


def test_gamma_second_derivative_matches_fd():
    fam = gamma_family(1.0)
    exact = psi_deriv(fam, 0.5, 2)
    assert exact == pytest.approx(-1.0 / 1.5**2, abs=1e-10)
    assert exact == pytest.approx(fd_derivative(fam, 0.5, 2), abs=1e-6)


def test_stable_first_derivative_closed_form():
    fam = stable_family(0.5)
    c = stable_constant(0.5)
    assert psi_deriv(fam, 4.0, 1) == pytest.approx(c * 0.5 * 4.0**-0.5, rel=1e-12)
    assert psi_deriv(fam, 4.0, 1) == pytest.approx(fd_derivative(fam, 4.0, 1), rel=1e-7)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivatives_match_finite_differences(family, order):
    for u in U_GRID:
        exact = psi_deriv(family, u, order)
        approx = fd_derivative(family, u, order)
        assert exact == pytest.approx(approx, rel=1e-5, abs=1e-12)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_monotone_and_concave(family):
    vals = psi(family, U_GRID)
    assert np.all(np.diff(vals) >= 0)
    assert np.all(psi_deriv(family, U_GRID, 1) > 0)
    assert np.all(psi_deriv(family, U_GRID, 2) <= 0)


@given(lam=st.floats(0.1, 10.0), u=st.floats(1e-2, 1e2))
@settings(max_examples=50, deadline=None)
def test_gamma_fd_property(lam, u):
    fam = gamma_family(lam)
    for order in (1, 2, 3):
        assert psi_deriv(fam, u, order) == pytest.approx(
            fd_derivative(fam, u, order), rel=1e-4, abs=1e-12)


@given(gam=st.floats(0.15, 0.9), u=st.floats(1e-2, 1e2))
@settings(max_examples=50, deadline=None)
def test_stable_fd_property(gam, u):
    fam = stable_family(gam)
    for order in (1, 2, 3):
        assert psi_deriv(fam, u, order) == pytest.approx(
            fd_derivative(fam, u, order), rel=1e-4)


def test_parameter_validation():
    with pytest.raises(FamilyError):
        gamma_family(-1.0)
    with pytest.raises(FamilyError):
        stable_family(1.0)
    with pytest.raises(FamilyError):
        stable_family(0.0)
    with pytest.raises(FamilyError):
        invgauss_family(0.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        psi(gamma_family(1.0), -0.5)
    with pytest.raises(DomainError):
        psi_deriv(stable_family(0.5), 0.0, 1)
    with pytest.raises(DomainError):
        psi_deriv(gamma_family(1.0), 1.0, 4)


def test_parse_family_round_trip():
    for text in ("gamma:1.5", "stable:0.4", "invgauss:2"):
        fam = parse_family(text)
        assert parse_family(fam.spec()).param == pytest.approx(fam.param)
    with pytest.raises(FamilyError):
        parse_family("weibull:1")
    with pytest.raises(FamilyError):
        parse_family("gamma")
