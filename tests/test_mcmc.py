from pathlib import Path

import numpy as np
import pytest
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from nidtopics import (
    TopicModel, gamma_family, invgauss_family, log_posterior, posterior_mean_h,
    run_chain, stable_family,
)
from nidtopics.mcmc import dirichlet_logpdf, topic_counts


def _two_topic_model(family=None):
    # words identify their topics, so the posterior over h is conjugate
    A = np.eye(2)
    return TopicModel(A=A, alpha=np.array([1.5, 2.5]),
                      family=family or gamma_family(1.0))


def _doc(n0, n1):
    return np.array([0] * n0 + [1] * n1)


def test_log_posterior_matches_conjugate_differences():
    model = _two_topic_model()
    doc = _doc(12, 8)
    zeta = doc.copy()  # identity emission fixes assignments
    counts = topic_counts(zeta, 2)
    post_conc = model.alpha + counts
    h_a = np.array([0.3, 0.7])
    h_b = np.array([0.6, 0.4])
    got = log_posterior(h_a, zeta, doc, model) - log_posterior(h_b, zeta, doc, model)
    expected = dirichlet_logpdf(h_a, post_conc) - dirichlet_logpdf(h_b, post_conc)
    assert got == pytest.approx(expected, abs=1e-10)


def test_uniform_emissions_make_word_term_constant():
    d, k = 6, 3
    model = TopicModel(A=np.full((d, k), 1.0 / d), alpha=np.ones(k),
                       family=gamma_family(1.0))
    doc = np.array([0, 3, 5, 2])
    h = np.array([0.2, 0.3, 0.5])
    rng = np.random.default_rng(0)
    vals = []
    for _ in range(4):
        zeta = rng.integers(0, k, size=doc.size)
        counts = topic_counts(zeta, k)
        lp = log_posterior(h, zeta, doc, model)
        # strip the h-mixing term; the remainder must be N*log(1/d) + prior
        vals.append(lp - float((counts * np.log(h)).sum()))
    assert np.allclose(vals, vals[0], atol=1e-12)
    assert vals[0] == pytest.approx(
        dirichlet_logpdf(h, model.alpha) + doc.size * np.log(1.0 / d), abs=1e-12)


def test_topic_counts_bookkeeping():
    zeta = np.array([0, 2, 2, 1, 2])
    assert topic_counts(zeta, 4).tolist() == [1, 1, 3, 0]


def test_log_posterior_validates_inputs():
    model = _two_topic_model()
    with pytest.raises(ValueError):
        log_posterior(np.array([0.0, 1.0]), np.array([0]), np.array([0]), model)
    with pytest.raises(ValueError):
        log_posterior(np.array([0.5, 0.5]), np.array([0, 1]), np.array([0]), model)


def test_chain_matches_conjugate_posterior():
    model = _two_topic_model()
    doc = _doc(30, 20)
    res = run_chain(doc, model, n_steps=20_000, burn_in=2_000, seed=1)
    post = model.alpha + np.array([30.0, 20.0])
    analytic_mean = post[0] / post.sum()
    h1 = np.array([s.h[0] for s in res.states])
    assert abs(h1.mean() - analytic_mean) < 0.02
    ks = kstest(h1[::10], beta_dist(post[0], post[1]).cdf).statistic
    assert ks < 0.06
    assert 0.05 <= res.acceptance_rate <= 0.95


def test_empty_document_samples_prior():
    model = _two_topic_model()
    res = run_chain(np.array([], dtype=int), model, n_steps=30_000, burn_in=3_000,
                    seed=2)
    mean = posterior_mean_h(res)
    prior_mean = model.alpha / model.alpha.sum()
    assert np.max(np.abs(mean - prior_mean)) < 0.03


def test_huge_proposal_concentration_degenerates():
    model = _two_topic_model()
    res = run_chain(_doc(10, 10), model, n_steps=2_000, burn_in=200,
                    proposal_concentration=1e8, seed=3)
    assert res.acceptance_rate > 0.95
    assert res.warned


def test_hastings_ratio_decomposes_into_posterior_plus_correction():
    from nidtopics.mcmc import hastings_log_ratio
    h = np.array([0.3, 0.7])
    g = np.array([0.5, 0.5])
    lp_h, lp_g, c = -4.2, -3.1, 37.0
    ratio = hastings_log_ratio(lp_g, lp_h, h, g, c)
    correction = dirichlet_logpdf(h, c * g) - dirichlet_logpdf(g, c * h)
    # subtracting the asymmetry correction leaves exactly the posterior ratio,
    # which is the whole ratio under a symmetric proposal
    assert ratio - correction == pytest.approx(lp_g - lp_h, abs=1e-12)


def test_hastings_ratio_antisymmetric():
    from nidtopics.mcmc import hastings_log_ratio
    h = np.array([0.2, 0.8])
    g = np.array([0.6, 0.4])
    lp_h, lp_g, c = -1.0, -2.5, 12.0
    fwd = hastings_log_ratio(lp_g, lp_h, h, g, c)
    bwd = hastings_log_ratio(lp_h, lp_g, g, h, c)
    assert fwd == pytest.approx(-bwd, abs=1e-12)


def test_chain_deterministic_given_seed():
    model = _two_topic_model()
    doc = _doc(5, 7)
    a = run_chain(doc, model, 500, 100, seed=11)
    b = run_chain(doc, model, 500, 100, seed=11)
    assert a.acceptance_rate == b.acceptance_rate
    assert np.array_equal(a.states[-1].h, b.states[-1].h)
    assert np.array_equal(a.states[-1].zeta, b.states[-1].zeta)


def test_thinning_and_burn_in_bookkeeping():
    model = _two_topic_model()
    res = run_chain(_doc(3, 3), model, n_steps=100, burn_in=40, thin=5, seed=4)
    assert len(res.states) == 12
    assert res.states[0].step == 40
    assert res.states[1].step == 45


def test_run_chain_validation():
    model = _two_topic_model()
    with pytest.raises(ValueError):
        run_chain(_doc(1, 1), model, n_steps=10, burn_in=10, seed=0)
    with pytest.raises(ValueError):
        run_chain(_doc(1, 1), model, 10, 2, proposal_concentration=0.0, seed=0)
    with pytest.raises(ValueError):
        run_chain(np.array([5]), model, 10, 2, seed=0)


def test_quadrature_prior_chain_runs():
    # inverse Gaussian prior goes through the cached quadrature density
    model = _two_topic_model(family=invgauss_family(2.0))
    res = run_chain(_doc(8, 12), model, n_steps=400, burn_in=100, seed=5)
    assert len(res.states) == 300
    assert np.isfinite(res.states[-1].log_post)


def test_unsupported_prior_family_raises():
    from nidtopics.nid import UnsupportedFamilyError
    model = _two_topic_model(family=stable_family(0.7))
    with pytest.raises(UnsupportedFamilyError):
        run_chain(_doc(2, 2), model, 50, 10, seed=6)


def test_chain_survives_proposal_with_underflowing_coordinate(monkeypatch):
    # on these benchmark inputs an invgauss:4 chain proposes h_6 ~ 9e-239,
    # whose prior density once raised "non-finite integrand"
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    inp = workloads.make_inputs(workloads.WORKLOADS["data-path"], 508)
    res = run_chain(inp.corpus.doc_words(16), inp.truth, 125, 25, seed=524)
    assert len(res.states) == 100
    assert all(np.all(np.isfinite(st.h)) for st in res.states)
