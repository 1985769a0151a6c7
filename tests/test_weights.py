import numpy as np
import pytest

from nidtopics import (
    NIDModel, Weights, compute_weights, gamma_family,
    invgauss_family, omega, psi, psi_deriv, stable_family,
)
from nidtopics.weights import ACCEPTED_SPECS

from helpers import (
    centred_moments, gamma_closed_form, half_stable_closed_form, offdiag_matrix, offdiag_tensor,
)

FAMILIES = [gamma_family(1.0), invgauss_family(2.0), stable_family(0.6)]


def test_omega_spec_validation():
    omega(gamma_family(1.0), 1.0, (0, 1, 0))
    with pytest.raises(ValueError, match="unsupported omega spec"):
        omega(gamma_family(1.0), 1.0, (3, 1, 0))
    with pytest.raises(ValueError, match="unsupported omega spec"):
        omega(gamma_family(1.0), 1.0, (1, 1, 0))


def test_weights_must_be_finite():
    with pytest.raises(ValueError):
        Weights(float("nan"), 0.0, 0.0)


def test_gamma_omega_010_analytic():
    # int (1+u)^(-a0-1) du = 1/a0
    assert omega(gamma_family(1.0), 1.0, (0, 1, 0)) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("alpha0", [0.5, 1.0, 3.0])
def test_omega_010_is_reciprocal_alpha0(family, alpha0):
    # d/du [-exp(-a0 psi)/a0] integrates to 1/a0 for every exponent
    assert omega(family, alpha0, (0, 1, 0)) == pytest.approx(1.0 / alpha0, rel=1e-7)


def test_gamma_omega_111_against_brute_force():
    # dense log-grid trapezoid as an independent oracle
    a0 = 2.0
    u = np.geomspace(1e-10, 1e8, 1_000_000)
    integrand = u * (1.0 + u) ** (-a0 - 2.0)
    oracle = np.trapezoid(integrand, u)
    assert omega(gamma_family(1.0), a0, (1, 1, 1)) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("lam", [0.01, 4.0, 10.0, 300.0])
@pytest.mark.parametrize("alpha0", [0.1, 1.0, 30.0])
def test_invgauss_omega_matches_scipy_quad(lam, alpha0):
    # a0 * lam runs from 1e-3 to 9000, across the switch to the hyperu sum
    from scipy.integrate import quad
    family = invgauss_family(lam)
    # psi' turns at u ~ lam^2 / 2 and a0 psi reaches 1 at u = c
    c = ((lam + 1.0 / alpha0) ** 2 - lam**2) / 2.0
    edges = [0.0] + sorted({lam * lam / 2.0, c}) + [np.inf]
    for m, n, p in ACCEPTED_SPECS:
        def f(u):
            return (u**m * psi_deriv(family, u, n) * psi_deriv(family, u, 1) ** p
                    * np.exp(-alpha0 * psi(family, u)))
        expected = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                       for a, b in zip(edges[:-1], edges[1:]))
        assert omega(family, alpha0, (m, n, p)) == pytest.approx(expected, rel=1e-9), (m, n, p)


@pytest.mark.parametrize("alpha0", [0.5, 1.0, 2.0, 5.0, 1e-3, 0.1, 0.3, 1e4])
def test_gamma_weights_match_closed_form(alpha0):
    w = compute_weights(gamma_family(1.0), alpha0)
    expected = gamma_closed_form(alpha0)
    assert w.v == pytest.approx(expected.v, abs=1e-6)
    assert w.v1 == pytest.approx(expected.v1, abs=1e-6)
    assert w.v2 == pytest.approx(expected.v2, abs=1e-6)


def test_gamma_weight_examples():
    w = compute_weights(gamma_family(1.0), 1.0)
    assert w.v == pytest.approx(-0.5, abs=1e-6)
    assert w.v1 == pytest.approx(-1.0 / 3.0, abs=1e-6)
    assert w.v2 == pytest.approx(1.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize("alpha0", [0.5, 1.0, 2.0, 1e-8, 1e4])
def test_half_stable_weights_are_alpha0_free(alpha0):
    w = compute_weights(stable_family(0.5), alpha0)
    expected = half_stable_closed_form()
    assert w.v == pytest.approx(expected.v, abs=1e-6)
    assert w.v1 == pytest.approx(expected.v1, abs=1e-6)
    assert w.v2 == pytest.approx(expected.v2, abs=1e-6)


def test_weights_scale_free_in_exponent_argument():
    # u -> s*u leaves the normalized vector's law unchanged; gamma:0.2 is
    # the gamma:1 exponent at argument 5u
    w = compute_weights(gamma_family(0.2), 2.0)
    base = compute_weights(gamma_family(1.0), 2.0)
    assert w.v == pytest.approx(base.v, rel=1e-6)
    assert w.v1 == pytest.approx(base.v1, rel=1e-6)
    assert w.v2 == pytest.approx(base.v2, rel=1e-6)


@pytest.mark.parametrize("family", [
    gamma_family(0.5), gamma_family(1.0), gamma_family(4.0),
    invgauss_family(0.5), invgauss_family(4.0),
    stable_family(0.3), stable_family(0.5), stable_family(0.75),
])
@pytest.mark.parametrize("alpha0", [0.5, 1.0, 8.0])
def test_v1_negative_everywhere_tested(family, alpha0):
    assert compute_weights(family, alpha0).v1 < 0


def test_gamma_v_matches_pair_vanishing_condition():
    # v must equal -E[h_i h_j] / (E[h_i] E[h_j]) = -a0/(a0+1) for Dirichlet
    assert compute_weights(gamma_family(1.0), 1.0).v == pytest.approx(-0.5, abs=1e-6)


@pytest.mark.parametrize("family", [
    gamma_family(1.0), invgauss_family(4.0), stable_family(0.5)])
def test_pair_moment_diagonalizes(family):
    alpha = np.array([2.0, 2.0, 4.0])
    model = NIDModel(family, alpha)
    w = compute_weights(family, model.alpha0)
    m2 = centred_moments(model, w)[0]
    assert np.max(np.abs(offdiag_matrix(m2))) < 1e-6


def test_positive_pair_sign_fails_to_diagonalize():
    # flipping the sign of v (as a naive reading of the formula would) leaves
    # off-diagonal mass two orders of magnitude above the passing threshold
    alpha = np.array([2.0, 2.0, 4.0])
    model = NIDModel(gamma_family(1.0), alpha)
    w = compute_weights(gamma_family(1.0), model.alpha0)
    wrong = Weights(-w.v, w.v1, w.v2)
    m2 = centred_moments(model, wrong)[0]
    assert np.max(np.abs(offdiag_matrix(m2))) > 1e-2


@pytest.mark.parametrize("family", [
    gamma_family(1.0), invgauss_family(0.5), stable_family(0.75)])
def test_triple_moment_diagonalizes(family):
    alpha = np.array([2.0, 2.0, 4.0])
    model = NIDModel(family, alpha)
    w = compute_weights(family, model.alpha0)
    m3 = centred_moments(model, w)[1]
    assert np.max(np.abs(offdiag_tensor(m3))) < 1e-6


def test_alpha0_validation():
    with pytest.raises(ValueError):
        omega(gamma_family(1.0), 0.0, (0, 1, 0))
    with pytest.raises(ValueError):
        omega(gamma_family(1.0), -1.0, (0, 1, 0))
