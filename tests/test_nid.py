import itertools
import math

import numpy as np
import pytest
from scipy.stats import dirichlet as sp_dirichlet

from nidtopics import (
    NIDModel, compute_weights, correlation_profile,
    exact_moment_set, gamma_family,
    ig_mean_correlation_profile, invgauss_family, moment_matrix,
    moment_tensor, moment_vector, sample, stable_family,
)
from nidtopics.families import DomainError
from nidtopics import nid, weights
from nidtopics.nid import SamplerError, UnsupportedFamilyError, _gig

from helpers import centred_moments, density, dirichlet_moment, moment, reference_moment

FIG3_ALPHA = np.array([0.77, 0.70, 0.97, 0.46, 0.02, 0.44, 0.90, 0.33, 0.97, 0.45])


# ---------------------------------------------------------------------------
# model validation


def test_model_requires_positive_alpha():
    with pytest.raises(ValueError):
        NIDModel(gamma_family(1.0), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        NIDModel(gamma_family(1.0), np.array([2.0]))


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


ORACLE_ALPHA = np.array([0.3, 1.1, 2.0, 0.02, 4.0])


# gamma:1/7 is the gamma:1 exponent at argument 7u
GAMMA_ARG_SCALED = pytest.param(gamma_family(1 / 7), id="gamma-arg-scaled")


@pytest.fixture(scope="module", params=[
    gamma_family(1.0), invgauss_family(0.5), stable_family(0.4), stable_family(0.75),
    GAMMA_ARG_SCALED], ids=lambda f: f.spec())
def oracle_moments(request):
    """A k=5 model and its reference E[h], E[h⊗h], E[h⊗h⊗h], one
    quadrature per multi-index."""
    model = NIDModel(request.param, ORACLE_ALPHA)
    k = model.k
    ref = {}
    for idx in itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(k), n) for n in (1, 2, 3)):
        r = np.bincount(idx, minlength=k)
        ref[idx] = reference_moment(model, r)
    m1 = np.array([ref[(i,)] for i in range(k)])
    m2 = np.array([[ref[tuple(sorted((i, j)))] for j in range(k)] for i in range(k)])
    m3 = np.array([ref[tuple(sorted(ijl))] for ijl in itertools.product(range(k), repeat=3)])
    return model, ref, m1, m2, m3.reshape(k, k, k)


def test_moment_matches_reference_quadrature(oracle_moments):
    model, ref, *_ = oracle_moments
    for idx, expected in ref.items():
        r = np.bincount(idx, minlength=model.k)
        assert moment(model, r) == pytest.approx(expected, rel=1e-6), idx


def test_moment_arrays_match_reference_quadrature(oracle_moments):
    model, _, m1, m2, m3 = oracle_moments
    np.testing.assert_allclose(moment_vector(model), m1, rtol=1e-6, atol=0)
    np.testing.assert_allclose(moment_matrix(model), m2, rtol=1e-6, atol=0)
    np.testing.assert_allclose(moment_tensor(model), m3, rtol=1e-6, atol=0)


@pytest.mark.parametrize("family", [
    gamma_family(1.0), invgauss_family(0.5), stable_family(0.4), GAMMA_ARG_SCALED],
    ids=lambda f: f.spec())
def test_centered_pair_diagonal_is_one_omega(family):
    # E[h_j^2] + v E[h_j]^2 = -alpha_j omega(1,2,0): the alpha0 fit's identity
    model = NIDModel(family, ORACLE_ALPHA)
    kappa = np.diag(centred_moments(model, compute_weights(family, model.alpha0))[0])
    expected = -ORACLE_ALPHA * weights.omega(family, model.alpha0, (1, 2, 0))
    np.testing.assert_allclose(kappa, expected, rtol=1e-6, atol=0)


def test_exact_moment_set_makes_six_quadratures(monkeypatch):
    # every exact moment of h comes from the six shared omega integrals,
    # whatever k; one integral per multi-index would be 285 at k = 10
    calls = []
    inner = nid.omega

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(nid, "omega", counted)
    k = 10
    model = NIDModel(invgauss_family(2.0), np.linspace(0.5, 2.0, k))
    exact_moment_set(model, np.eye(k))
    assert 0 < len(calls) <= 6


def test_gamma_moments_do_not_depend_on_scale():
    alpha = np.array([2.0, 2.0, 4.0])
    for lam in (0.5, 1.0, 8.0):
        model = NIDModel(gamma_family(lam), alpha)
        assert moment(model, [1, 1, 0]) == pytest.approx(
            dirichlet_moment(alpha, [1, 1, 0]), rel=1e-7)


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


def test_sample_redraws_only_bad_coordinates_with_their_alpha(monkeypatch):
    # a zero or non-finite coordinate is redrawn alone, with its own alpha
    calls = []
    first = np.array([[2.0, 0.0, np.inf], [1.0, 3.0, 4.0]])

    def fake(family, alpha, rng, n):
        calls.append(np.array(alpha))
        return first.copy() if len(calls) == 1 else np.full((n, alpha.size), 5.0)

    monkeypatch.setattr(nid, "_draw_unnormalized", fake)
    model = NIDModel(gamma_family(1.0), np.array([0.5, 1.5, 2.5]))
    h = sample(model, np.random.default_rng(0), size=2)
    assert np.array_equal(calls[1], [1.5, 2.5])
    assert np.allclose(h, [[2 / 12, 5 / 12, 5 / 12], [1 / 8, 3 / 8, 4 / 8]])

    monkeypatch.setattr(nid, "_draw_unnormalized",
                        lambda family, alpha, rng, n: np.zeros((n, alpha.size)))
    with pytest.raises(SamplerError):
        sample(model, np.random.default_rng(0))


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


@pytest.mark.parametrize("p", [-0.5, 0.5, 1.5, 49.5])
@pytest.mark.parametrize("a, b", [(2.0, 3.0), (16.0, 1e-4)])
def test_gig_sampler_matches_scipy_geninvgauss(p, a, b):
    # a = 16, b = 1e-4 is the small omega = sqrt(a b) corner, close to a gamma law
    from scipy.stats import geninvgauss, kstest
    x = _gig(np.full(20_000, p), a, b, np.random.default_rng(7))
    ref = geninvgauss(p, math.sqrt(a * b), scale=math.sqrt(b / a))
    assert kstest(x, ref.cdf).pvalue > 1e-3


def test_gig_sampler_matches_scipy_draws_where_its_cdf_fails():
    # at small a b scipy's geninvgauss cdf is wrong, so compare with its draws
    from scipy.stats import geninvgauss, ks_2samp
    p, a, b = -0.5, 1e-3, 1e-3
    x = _gig(np.full(20_000, p), a, b, np.random.default_rng(7))
    ref = geninvgauss(p, math.sqrt(a * b), scale=math.sqrt(b / a))
    y = ref.rvs(size=20_000, random_state=np.random.default_rng(8))
    assert ks_2samp(x, y).pvalue > 1e-3


def test_gig_matches_scipy_geninvgauss_per_entry_of_mixed_parameters():
    # the shapes the chain passes: p = n - 1/2 of both signs, a = 2U + lam^2
    # a scalar, b = alpha^2 a vector; each entry keeps its own law
    from scipy.stats import geninvgauss, kstest
    p = np.array([-0.5, 0.5, 3.5, -0.5, 19.5, 1.5])
    b = np.array([0.0025, 0.0016, 0.01, 1.0, 0.0025, 4.0])
    a, n = 1016.0, 5000
    x = _gig(np.tile(p, n), a, np.tile(b, n), np.random.default_rng(7)).reshape(n, p.size)
    for j in range(p.size):
        ref = geninvgauss(p[j], math.sqrt(a * b[j]), scale=math.sqrt(b[j] / a))
        assert kstest(x[:, j], ref.cdf).pvalue > 1e-3, (p[j], b[j])


class _CountingGenerator:
    """A generator that counts its ``random`` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)


def test_gig_takes_one_rejection_pass_for_most_tilted_draws():
    # counts of a 100-word document and latent U as the chain meets them at
    # invgauss:4, k = 20, alpha0 = 1; candidates come in blocks, so most
    # calls finish in one pass
    rng = np.random.default_rng(3)
    prior = NIDModel(invgauss_family(4.0), rng.dirichlet(np.full(20, 5.0)))
    draw = nid._tilted_sampler(prior.family, prior.alpha)
    counting = _CountingGenerator(np.random.default_rng(4))
    for _ in range(500):
        h = sample(prior, rng)
        z = draw(rng.multinomial(100, h), rng.uniform(200.0, 1000.0), counting)
        assert z.shape == (20,) and np.all(z > 0.0)
    assert counting.calls / 500 <= 1.2


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
