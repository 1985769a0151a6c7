import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import dirichlet as sp_dirichlet

from nidtopics import (
    NIDModel, bell_complete, correlation_profile, custom_family, density,
    gamma_family, ig_mean_correlation_profile, invgauss_family, moment,
    moment_vector, psi, psi_deriv, sample, stable_family,
)
from nidtopics.families import DomainError
from nidtopics.nid import UnsupportedFamilyError, moment_result

from helpers import dirichlet_moment

FIG3_ALPHA = np.array([0.77, 0.70, 0.97, 0.46, 0.02, 0.44, 0.90, 0.33, 0.97, 0.45])


# ---------------------------------------------------------------------------
# Bell polynomials


def test_bell_first_order():
    assert bell_complete((3.7,), 1) == 3.7


def test_bell_second_order():
    assert bell_complete((2.0, 1.0), 2) == 5.0


def test_bell_third_order():
    assert bell_complete((1.0, 1.0, 1.0), 3) == 5.0


def _series_exp_derivative(x, order):
    """r! * [t^r] exp(x1 t + x2 t^2/2 + x3 t^3/6), an independent oracle."""
    g = np.zeros(order + 1)
    coeffs = [0.0, x[0], x[1] / 2.0, x[2] / 6.0]
    g[:min(order, 3) + 1] = coeffs[:min(order, 3) + 1]
    series = np.zeros(order + 1)
    series[0] = 1.0
    term = np.array(series)
    for n in range(1, order + 1):
        term = np.convolve(term, g)[:order + 1] / n
        series = series + term
    return series[order] * math.factorial(order)


@given(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)),
       st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_bell_matches_exponential_series(x, order):
    assert bell_complete(x, order) == pytest.approx(
        _series_exp_derivative(x, order), rel=1e-9, abs=1e-9)


def test_bell_rejects_bad_order():
    with pytest.raises(ValueError):
        bell_complete((1.0, 2.0), 4)
    with pytest.raises(ValueError):
        bell_complete((1.0,), 2)


# ---------------------------------------------------------------------------
# model validation


def test_model_requires_positive_alpha():
    with pytest.raises(ValueError):
        NIDModel(gamma_family(1.0), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        NIDModel(gamma_family(1.0), np.array([2.0]))


def test_model_rejects_drift():
    fam = custom_family(lambda u: np.log1p(u), lambda u: 1 / (1 + u),
                        lambda u: -(1 + u) ** -2.0, lambda u: 2 * (1 + u) ** -3.0,
                        drift=0.1)
    with pytest.raises(ValueError):
        NIDModel(fam, np.array([1.0, 1.0]))


# ---------------------------------------------------------------------------
# exact moments


def test_first_moments_are_mean_proportions():
    model = NIDModel(gamma_family(1.0), np.array([2.0, 3.0, 5.0]))
    for j, expected in enumerate([0.2, 0.3, 0.5]):
        r = np.zeros(3, dtype=int)
        r[j] = 1
        assert moment(model, r) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("family", [
    gamma_family(2.0), invgauss_family(1.0), stable_family(0.6)])
def test_first_moments_sum_to_one(family):
    model = NIDModel(family, np.array([0.7, 1.3, 2.0]))
    assert moment_vector(model).sum() == pytest.approx(1.0, abs=1e-7)


def test_dirichlet_second_moment():
    model = NIDModel(gamma_family(1.0), np.array([1.0, 1.0]))
    assert moment(model, [2, 0]) == pytest.approx(1.0 / 3.0, abs=1e-8)


@pytest.mark.parametrize("r", [[1, 1, 0], [2, 0, 1], [1, 1, 1], [0, 0, 3]])
def test_dirichlet_moments_closed_form(r):
    alpha = np.array([2.0, 2.0, 4.0])
    model = NIDModel(gamma_family(1.0), alpha)
    assert moment(model, r) == pytest.approx(dirichlet_moment(alpha, r), rel=1e-7)


def test_moment_order_validation():
    model = NIDModel(gamma_family(1.0), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        moment(model, [2, 2])
    with pytest.raises(ValueError):
        moment(model, [0, 0])
    with pytest.raises(ValueError):
        moment(model, [1, -1])


def test_moment_reports_error_estimate():
    model = NIDModel(stable_family(0.4), np.array([2.0, 2.0, 4.0]))
    res = moment_result(model, [1, 1, 1])
    assert res.error < 1e-7
    assert res.value > 0


@pytest.mark.parametrize("family,seed", [
    (gamma_family(1.0), 0), (invgauss_family(1.0), 1), (stable_family(0.5), 2)])
def test_moments_match_monte_carlo(family, seed):
    alpha = np.array([2.0, 2.0, 4.0])
    model = NIDModel(family, alpha)
    rng = np.random.default_rng(seed)
    draws = sample(model, rng, size=200_000)
    for r in ([1, 0, 0], [1, 1, 0], [2, 0, 0], [1, 1, 1], [2, 1, 0], [0, 0, 3]):
        vals = np.prod(draws ** np.asarray(r)[None, :], axis=1)
        mc, se = vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(moment(model, r) - mc) < 3.0 * se + 1e-12


def _multi_indices_up_to_three(k):
    out = []
    for i in range(k):
        for j in range(i, k):
            for l in range(j, k):
                r = np.zeros(k, dtype=int)
                r[i] += 1
                r[j] += 1
                r[l] += 1
                out.append(r)
        r = np.zeros(k, dtype=int)
        r[i] = 1
        out.append(r)
    for i in range(k):
        for j in range(i, k):
            r = np.zeros(k, dtype=int)
            r[i] += 1
            r[j] += 1
            out.append(r)
    return out


@pytest.mark.parametrize("family", [
    gamma_family(1.0), invgauss_family(2.0), stable_family(0.5)])
def test_all_pair_moments_match_monte_carlo(family):
    # every multi-index of order <= 3 at k = 2
    alpha = np.array([0.8, 1.7])
    model = NIDModel(family, alpha)
    draws = sample(model, np.random.default_rng(12), size=150_000)
    for r in _multi_indices_up_to_three(2):
        vals = np.prod(draws ** r[None, :], axis=1)
        mc, se = vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(moment(model, r) - mc) < 3.0 * se + 1e-12


def test_moments_match_monte_carlo_k5():
    k = 5
    rng = np.random.default_rng(15)
    alpha = rng.uniform(0.5, 2.0, size=k)
    model = NIDModel(invgauss_family(2.0), alpha)
    draws = sample(model, rng, size=150_000)
    for r in ([1, 2, 0, 0, 0], [1, 1, 1, 0, 0], [0, 0, 0, 3, 0], [0, 1, 0, 0, 1]):
        r = np.asarray(r)
        vals = np.prod(draws ** r[None, :], axis=1)
        mc, se = vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(moment(model, r) - mc) < 3.0 * se


def test_moment_invariant_under_argument_scaling():
    # z -> s*z leaves h unchanged; at the exponent level psi(u) -> psi(s*u)
    s = 7.0
    scaled = custom_family(
        lambda u: np.log1p(s * u),
        lambda u: s / (1.0 + s * u),
        lambda u: -(s**2) * (1.0 + s * u) ** -2.0,
        lambda u: 2.0 * s**3 * (1.0 + s * u) ** -3.0,
        label="gamma-arg-scaled",
    )
    alpha = np.array([1.5, 2.5])
    base = NIDModel(gamma_family(1.0), alpha)
    model = NIDModel(scaled, alpha)
    for r in ([1, 0], [1, 1], [2, 1]):
        assert moment(model, r) == pytest.approx(moment(base, r), rel=1e-7)


def test_gamma_moments_do_not_depend_on_scale():
    alpha = np.array([2.0, 2.0, 4.0])
    for lam in (0.5, 1.0, 8.0):
        model = NIDModel(gamma_family(lam), alpha)
        assert moment(model, [1, 1, 0]) == pytest.approx(
            dirichlet_moment(alpha, [1, 1, 0]), rel=1e-7)


def test_value_scaling_equals_concentration_scaling():
    # (c * psi, alpha) describes the same law as (psi, c * alpha)
    c = 3.0
    scaled = custom_family(
        lambda u: c * np.log1p(u),
        lambda u: c / (1.0 + u),
        lambda u: -c * (1.0 + u) ** -2.0,
        lambda u: 2.0 * c * (1.0 + u) ** -3.0,
        label="gamma-value-scaled",
    )
    alpha = np.array([1.0, 2.0])
    lhs = NIDModel(scaled, alpha)
    rhs = NIDModel(gamma_family(1.0), c * alpha)
    for r in ([1, 0], [2, 0], [1, 1], [2, 1]):
        assert moment(lhs, r) == pytest.approx(moment(rhs, r), rel=1e-7)


# ---------------------------------------------------------------------------
# sampling


def test_gamma_sample_mean():
    model = NIDModel(gamma_family(1.0), np.array([2.0, 2.0, 4.0]))
    draws = sample(model, np.random.default_rng(0), size=1_000_000)
    se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - [0.25, 0.25, 0.5]) < 3 * se)


@pytest.mark.parametrize("family", [
    gamma_family(1.0), invgauss_family(2.0), stable_family(0.5)])
def test_symmetric_pair_has_half_mean(family):
    model = NIDModel(family, np.array([1.0, 1.0]))
    draws = sample(model, np.random.default_rng(1), size=100_000)
    se = draws[:, 0].std(ddof=1) / math.sqrt(draws.shape[0])
    assert draws[:, 0].mean() == pytest.approx(0.5, abs=4 * se)


def test_samples_live_on_simplex():
    for family in (gamma_family(0.5), invgauss_family(0.25), stable_family(0.35)):
        draws = sample(NIDModel(family, np.array([0.3, 0.7, 1.1])),
                       np.random.default_rng(2), size=5_000)
        assert np.all(draws >= 0)
        assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-12)


def test_sample_deterministic_given_seed():
    model = NIDModel(stable_family(0.5), np.array([2.0, 2.0, 4.0]))
    a = sample(model, np.random.default_rng(7), size=100)
    b = sample(model, np.random.default_rng(7), size=100)
    assert np.array_equal(a, b)


def test_small_shape_invgauss_concentrates_on_vertices():
    alpha = np.array([2.0, 2.0, 4.0])
    rng = np.random.default_rng(3)
    ig = sample(NIDModel(invgauss_family(0.01), alpha), rng, size=50_000)
    ga = sample(NIDModel(gamma_family(1.0), alpha), rng, size=50_000)
    near_vertex_ig = (ig.max(axis=1) > 0.95).mean()
    near_vertex_ga = (ga.max(axis=1) > 0.95).mean()
    assert near_vertex_ig > 10 * max(near_vertex_ga, 1e-4)


def test_dirichlet_covariance_reproduced():
    alpha = np.array([2.0, 2.0, 4.0])
    a0 = alpha.sum()
    draws = sample(NIDModel(gamma_family(1.0), alpha),
                   np.random.default_rng(4), size=400_000)
    cov = np.cov(draws.T)
    for i in range(3):
        for j in range(i + 1, 3):
            expected = -alpha[i] * alpha[j] / (a0**2 * (a0 + 1.0))
            assert cov[i, j] == pytest.approx(expected, abs=4e-5)


def test_custom_family_has_no_sampler():
    fam = custom_family(lambda u: np.log1p(u), lambda u: 1 / (1 + u),
                        lambda u: -(1 + u) ** -2.0, lambda u: 2 * (1 + u) ** -3.0)
    with pytest.raises(UnsupportedFamilyError):
        sample(NIDModel(fam, np.array([1.0, 1.0])), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# density


def test_flat_dirichlet_density_is_one():
    model = NIDModel(gamma_family(1.0), np.array([1.0, 1.0]))
    assert density(model, np.array([0.3, 0.7])) == pytest.approx(1.0, rel=1e-7)


def test_gamma_density_matches_dirichlet_pdf():
    alpha = np.array([2.0, 2.0, 4.0])
    h = np.array([0.25, 0.25, 0.5])
    for lam in (1.0, 3.0):
        model = NIDModel(gamma_family(lam), alpha)
        assert density(model, h) == pytest.approx(
            sp_dirichlet(alpha).pdf(h), rel=1e-7)


def test_half_stable_density_integrates_to_one():
    # h = (1 - cos(pi t))/2 compresses the grid near the endpoints, where the
    # density has integrable spikes a uniform grid would miss
    model = NIDModel(stable_family(0.5), np.array([1.0, 2.0]))
    t = np.linspace(1e-6, 1.0 - 1e-6, 1500)
    h = 0.5 * (1.0 - np.cos(np.pi * t))
    jac = 0.5 * np.pi * np.sin(np.pi * t)
    vals = np.array([density(model, np.array([x, 1.0 - x])) for x in h])
    assert np.trapezoid(vals * jac, t) == pytest.approx(1.0, rel=1e-2)


def test_half_stable_density_matches_monte_carlo():
    model = NIDModel(stable_family(0.5), np.array([1.0, 2.0]))
    draws = sample(model, np.random.default_rng(6), size=200_000)
    hist, edges = np.histogram(draws[:, 0], bins=20, range=(0.0, 1.0),
                               density=True)
    bulk = slice(2, 18)
    centers = 0.5 * (edges[:-1] + edges[1:])
    quad = np.array([density(model, np.array([c, 1.0 - c]))
                     for c in centers[bulk]])
    assert np.max(np.abs(hist[bulk] - quad) / quad) < 0.05


def test_invgauss_density_integrates_to_one_on_simplex():
    model = NIDModel(invgauss_family(4.0), np.array([2.0, 2.0, 4.0]))
    n = 60
    step = 1.0 / n
    total = 0.0
    for i in range(n):
        for j in range(n - i):
            h1 = (i + 0.5) * step
            h2 = (j + 0.5) * step
            h3 = 1.0 - h1 - h2
            if h3 <= 0:
                continue
            total += density(model, np.array([h1, h2, h3])) * step * step
    assert total == pytest.approx(1.0, rel=1e-2)


def test_density_rejects_unsupported_and_boundary():
    model = NIDModel(stable_family(0.4), np.array([1.0, 1.0]))
    with pytest.raises(UnsupportedFamilyError):
        density(model, np.array([0.5, 0.5]))
    model = NIDModel(gamma_family(1.0), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        density(model, np.array([0.0, 1.0]))


def test_density_with_underflowing_coordinate_is_finite():
    # h_1 * s underflows to 0 near the origin of the mixing integral; the
    # inverse Gaussian marginal must read -inf there, not inf - inf = nan
    model = NIDModel(invgauss_family(4.0), np.array([1.0, 1.0, 1.0]))
    value = density(model, np.array([1e-238, 0.5, 0.5 - 1e-238]))
    assert np.isfinite(value)
    # gamma at a_i = 1 reads 0 * log(0) there; the flat Dirichlet density is 2
    model = NIDModel(gamma_family(1.0), np.array([1.0, 1.0, 1.0]))
    assert density(model, np.array([1e-320, 0.5, 0.5])) == pytest.approx(2.0, rel=1e-7)


# ---------------------------------------------------------------------------
# correlation structure


def test_gamma_correlations_all_negative():
    for lam in (0.1, 1.0, 10.0):
        model = NIDModel(gamma_family(lam), FIG3_ALPHA)
        corr, prop = correlation_profile(model)
        assert prop == 0.0
        iu = np.triu_indices(FIG3_ALPHA.size, 1)
        assert np.all(corr[iu] < 0)


def test_two_coordinates_are_perfectly_anticorrelated():
    model = NIDModel(invgauss_family(2.0), np.array([1.0, 2.0]))
    corr, prop = correlation_profile(model)
    assert corr[0, 1] == pytest.approx(-1.0, abs=1e-6)
    assert prop == 0.0


def test_shared_exponent_invgauss_stays_negative():
    # with one shared exponent every pairwise covariance has the same
    # (negative) sign; positive pairs require per-coordinate exponents
    model = NIDModel(invgauss_family(4.0), FIG3_ALPHA)
    _, prop = correlation_profile(model)
    assert prop == 0.0


def test_mean_parameterized_invgauss_shows_positive_pairs():
    _, prop = ig_mean_correlation_profile(FIG3_ALPHA, 10.0)
    assert prop > 0.0
    _, prop_small = ig_mean_correlation_profile(FIG3_ALPHA, 0.01)
    assert prop_small == 0.0


def test_mean_parameterized_profile_matches_monte_carlo():
    rng = np.random.default_rng(5)
    lam = 4.0
    z = rng.wald(FIG3_ALPHA, lam, size=(200_000, FIG3_ALPHA.size))
    h = z / z.sum(axis=1, keepdims=True)
    mc_corr = np.corrcoef(h.T)
    corr, _ = ig_mean_correlation_profile(FIG3_ALPHA, lam)
    iu = np.triu_indices(FIG3_ALPHA.size, 1)
    assert np.max(np.abs(corr[iu] - mc_corr[iu])) < 0.02
