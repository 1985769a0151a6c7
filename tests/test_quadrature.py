import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from quadrature import QuadratureError, integrate_semi_infinite


def test_exponential_integral():
    res = integrate_semi_infinite(lambda u: np.exp(-u))
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.error <= 1e-7


def test_first_moment_of_exponential():
    res = integrate_semi_infinite(lambda u: u * np.exp(-u))
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_polynomial_tail():
    # int_0^inf (1+u)^-3 du = 1/2, slow decay exercises the t -> 1 end
    res = integrate_semi_infinite(lambda u: (1.0 + u) ** -3)
    assert res.value == pytest.approx(0.5, abs=1e-9)


def test_integrable_singularity_at_origin():
    # int u^(a-1) e^-u du = Gamma(a) for a = 0.4: head behaves like u^-0.6
    res = integrate_semi_infinite(lambda u: u**-0.6 * np.exp(-u), singular_origin=True)
    assert res.value == pytest.approx(gamma_fn(0.4), rel=1e-8)


def test_sharper_singularity():
    res = integrate_semi_infinite(lambda u: u**-0.8 * np.exp(-u), singular_origin=True)
    assert res.value == pytest.approx(gamma_fn(0.2), rel=1e-7)


def test_u_max_truncation():
    res = integrate_semi_infinite(lambda u: np.exp(-u), u_max=80.0)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_error_estimate_is_reported():
    res = integrate_semi_infinite(lambda u: np.exp(-((u - 3.0) ** 2)))
    expected = math.sqrt(math.pi) / 2.0 * (1.0 + math.erf(3.0))
    assert res.value == pytest.approx(expected, rel=1e-7)
    assert res.error >= 0.0
    assert res.n_panels > 10


def test_budget_exhaustion_reports_achieved_tolerance():
    # absurdly tight tolerance with a tiny budget must fail loudly
    with pytest.raises(QuadratureError) as exc:
        integrate_semi_infinite(lambda u: np.exp(-u) * np.cos(50.0 * u),
                                abs_tol=1e-16, rel_tol=1e-16, max_panels=40)
    assert "achieved error" in str(exc.value)


def test_nonfinite_integrand_rejected():
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(lambda u: np.full_like(u, np.nan))
