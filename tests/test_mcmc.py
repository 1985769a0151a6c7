import logging
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import beta as beta_dist
from scipy.stats import kstest

from nidtopics import (
    NIDModel, TopicModel, gamma_family, invgauss_family, parse_family,
    posterior_mean_h, run_chain, stable_family,
)

from helpers import density, dirichlet_logpdf, log_posterior


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
    counts = np.bincount(zeta, minlength=2)
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
        counts = np.bincount(zeta, minlength=k)
        lp = log_posterior(h, zeta, doc, model)
        # strip the h-mixing term; the remainder must be N*log(1/d) + prior
        vals.append(lp - float((counts * np.log(h)).sum()))
    assert np.allclose(vals, vals[0], atol=1e-12)
    assert vals[0] == pytest.approx(
        dirichlet_logpdf(h, model.alpha) + doc.size * np.log(1.0 / d), abs=1e-12)


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


def test_empty_document_samples_prior():
    model = _two_topic_model()
    res = run_chain(np.array([], dtype=int), model, n_steps=30_000, burn_in=3_000,
                    seed=2)
    mean = posterior_mean_h(res)
    prior_mean = model.alpha / model.alpha.sum()
    assert np.max(np.abs(mean - prior_mean)) < 0.03


def test_empty_document_under_small_alpha_stays_on_the_simplex():
    # Gamma(1e-3) draws underflow to 0 about half the time, so an unredrawn
    # prior draw is all zeros in about a quarter of the steps
    model = TopicModel(A=np.full((5, 2), 0.2), alpha=np.array([1e-3, 1e-3]),
                       family=gamma_family(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(20):
            res = run_chain(np.array([], dtype=int), model, 20, 5, seed=seed)
            for state in res.states:
                assert np.all(state.h >= 0.0) and state.h.sum() == pytest.approx(1.0)


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


@pytest.mark.parametrize("burn_in, thin, name", [(2, 0, "thin"), (2, -1, "thin"),
                                                  (-5, 1, "burn_in")])
def test_run_chain_rejects_bad_burn_in_and_thin(burn_in, thin, name):
    with pytest.raises(ValueError, match=name):
        run_chain(_doc(1, 1), _two_topic_model(), 10, burn_in, seed=0, thin=thin)


def test_quadrature_prior_chain_runs():
    # the chain draws GIG tilted laws; log_posterior's prior is the quadrature
    model = _two_topic_model(family=invgauss_family(2.0))
    doc = _doc(8, 12)
    res = run_chain(doc, model, n_steps=400, burn_in=100, seed=5)
    assert len(res.states) == 300
    state = res.states[-1]
    assert np.isfinite(log_posterior(state.h, state.zeta, doc, model))


@pytest.mark.parametrize("counts", [(8, 12), (0, 0)])
@pytest.mark.parametrize("family", [invgauss_family(2.0), stable_family(0.5)],
                         ids=["invgauss:2", "stable:0.5"])
def test_chain_matches_quadrature_posterior(family, counts):
    # with A = I the posterior of h_1 is density(h) h_1^n_1 h_2^n_2 up to a
    # constant; (0, 0) is the empty document, whose posterior is the prior
    model = _two_topic_model(family=family)
    res = run_chain(_doc(*counts), model, n_steps=10_000, burn_in=1_000, seed=3)
    h1 = np.array([s.h[0] for s in res.states])
    # midpoint rule in t, where h_1 = (1 - cos(pi t)) / 2: the prior density
    # can blow up like h^(-1/2) at the edges, the integrand in t stays bounded
    t = np.linspace(0.0, 1.0, 401)
    mid = 0.5 * (t[1:] + t[:-1])
    x = 0.5 * (1.0 - np.cos(np.pi * mid))
    prior = NIDModel(family, model.alpha)
    post = np.array([density(prior, [v, 1.0 - v]) for v in x])
    post *= x ** counts[0] * (1.0 - x) ** counts[1] * np.sin(np.pi * mid)
    cdf = np.concatenate([[0.0], np.cumsum(post)])
    cdf /= cdf[-1]
    nodes = 0.5 * (1.0 - np.cos(np.pi * t))
    ks = kstest(h1, lambda v: np.interp(v, nodes, cdf)).statistic
    assert ks < 0.02


@pytest.mark.parametrize("spec", ["gamma:1", "invgauss:4", "stable:0.5"])
def test_one_topic_chain_keeps_h_at_one(spec, caplog):
    model = TopicModel(A=np.full((3, 1), 1.0 / 3.0), alpha=np.array([0.7]),
                       family=parse_family(spec))
    with caplog.at_level(logging.WARNING):
        res = run_chain(np.array([0, 2, 2, 1]), model, n_steps=60, burn_in=10, seed=8)
    assert len(res.states) == 50
    assert all(np.array_equal(s.h, [1.0]) for s in res.states)
    assert res.acceptance_rate == 1.0
    assert not caplog.records


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
