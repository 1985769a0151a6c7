import math

import numpy as np
import pytest

from nidtopics import (
    NIDModel, SynthConfig, TopicModel, accumulate, gamma_family, generate,
    invgauss_family, moment_matrix, moment_vector,
)


def _random_model(d, k, seed, family=None, alpha=None):
    rng = np.random.default_rng(seed)
    A = rng.dirichlet(np.ones(d) * 0.3, size=k).T
    if alpha is None:
        alpha = rng.uniform(0.5, 1.5, size=k)
    return TopicModel(A=A, alpha=np.asarray(alpha),
                      family=family or gamma_family(1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(0, 10, seed=1)
    with pytest.raises(ValueError):
        SynthConfig(10, 2, seed=1)


def test_reproducibility_is_exact():
    model = _random_model(12, 3, seed=0)
    cfg = SynthConfig(50, 10, seed=42)
    c1, a1 = generate(model, cfg)
    c2, a2 = generate(model, cfg)
    assert (c1.counts != c2.counts).nnz == 0
    for x, y in zip(a1, a2):
        assert np.array_equal(x.h, y.h)
        assert np.array_equal(x.zeta, y.zeta)


def test_document_lengths_and_shape():
    model = _random_model(9, 2, seed=1)
    corpus, assignments = generate(model, SynthConfig(25, 7, seed=3))
    assert corpus.n_docs == 25
    assert corpus.d == 9
    assert np.all(corpus.doc_lengths() == 7)
    assert len(assignments) == 25
    assert all(a.zeta.size == 7 for a in assignments)


def test_single_topic_collapse():
    # k = 1: every word is an iid draw from the single column
    rng = np.random.default_rng(2)
    col = rng.dirichlet(np.ones(8) * 0.7)
    model = TopicModel(A=col[:, None], alpha=np.array([1.0]),
                       family=gamma_family(1.0))
    corpus, assignments = generate(model, SynthConfig(2000, 20, seed=4))
    freq = np.asarray(corpus.counts.sum(axis=0)).ravel()
    freq = freq / freq.sum()
    se = np.sqrt(col * (1 - col) / corpus.doc_lengths().sum())
    assert np.all(np.abs(freq - col) < 4 * se + 1e-4)
    assert all(np.all(a.zeta == 0) for a in assignments)


def test_identity_topics_reproduce_prior_pair_moments():
    # A = I maps word pair moments onto E[h (x) h]
    alpha = np.array([2.0, 2.0, 4.0])
    model = TopicModel(A=np.eye(3), alpha=alpha, family=gamma_family(1.0))
    corpus, _ = generate(model, SynthConfig(20_000, 12, seed=5))
    ms = accumulate(corpus)
    prior = NIDModel(gamma_family(1.0), alpha)
    expected = moment_matrix(prior)
    assert np.max(np.abs(ms.m2 @ np.eye(3) - expected)) < 4e-3


def test_word_marginal_matches_prior_mean():
    model = _random_model(15, 3, seed=6, family=invgauss_family(2.0),
                          alpha=[0.5, 1.0, 1.5])
    corpus, _ = generate(model, SynthConfig(5000, 10, seed=7))
    prior = NIDModel(model.family, model.alpha)
    expected = model.A @ moment_vector(prior)
    m1 = accumulate(corpus).m1
    assert np.max(np.abs(m1 - expected)) < 0.01


def test_short_doc_pipeline_closes_loop():
    # minimum-length documents still give unbiased third-order statistics
    alpha = np.array([1.0, 1.0, 2.0])
    model = TopicModel(A=np.eye(3), alpha=alpha, family=gamma_family(1.0))
    corpus, _ = generate(model, SynthConfig(40_000, 3, seed=8))
    ms = accumulate(corpus)
    prior = NIDModel(gamma_family(1.0), alpha)
    r = np.array([1, 1, 1])
    from nidtopics import moment
    expected = moment(prior, r)
    eye = np.eye(3)
    got = ms.triple(eye, eye, eye)[0, 1, 2]
    assert got == pytest.approx(expected, abs=3e-3)


def test_latents_match_counts():
    model = _random_model(10, 3, seed=9)
    corpus, assignments = generate(model, SynthConfig(30, 6, seed=10))
    lengths = corpus.doc_lengths()
    for i, a in enumerate(assignments):
        assert a.zeta.size == lengths[i] == 6
        assert a.h.size == 3
        assert a.h.sum() == pytest.approx(1.0, abs=1e-12)
