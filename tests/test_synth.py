import math

import numpy as np
import pytest
import scipy.sparse as sp

from nidtopics import (
    Corpus, NIDModel, SynthConfig, TopicModel, accumulate, gamma_family,
    generate, invgauss_family, moment_matrix, moment_vector, sample, synth,
)

from helpers import moment


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
    c1, (h1, zeta1) = generate(model, cfg)
    c2, (h2, zeta2) = generate(model, cfg)
    assert (c1.counts != c2.counts).nnz == 0
    assert np.array_equal(h1, h2)
    assert np.array_equal(zeta1, zeta2)


def test_document_lengths_and_shape():
    model = _random_model(9, 2, seed=1)
    corpus, (h, zeta) = generate(model, SynthConfig(25, 7, seed=3))
    assert corpus.n_docs == 25
    assert corpus.d == 9
    assert np.all(corpus.doc_lengths() == 7)
    assert h.shape == (25, 2) and h.dtype == np.float64
    assert zeta.shape == (25, 7) and zeta.dtype == np.intp


def test_single_topic_collapse():
    # k = 1: every word is an iid draw from the single column
    rng = np.random.default_rng(2)
    col = rng.dirichlet(np.ones(8) * 0.7)
    model = TopicModel(A=col[:, None], alpha=np.array([1.0]),
                       family=gamma_family(1.0))
    corpus, (h, zeta) = generate(model, SynthConfig(2000, 20, seed=4))
    freq = np.asarray(corpus.counts.sum(axis=0)).ravel()
    freq = freq / freq.sum()
    se = np.sqrt(col * (1 - col) / corpus.doc_lengths().sum())
    assert np.all(np.abs(freq - col) < 4 * se + 1e-4)
    assert np.all(h == 1.0) and np.all(zeta == 0)


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
    expected = moment(prior, r)
    eye = np.eye(3)
    got = ms.triple(eye)[0, 1, 2]
    assert got == pytest.approx(expected, abs=3e-3)


def test_latents_match_counts():
    model = _random_model(10, 3, seed=9)
    corpus, (h, zeta) = generate(model, SynthConfig(30, 6, seed=10))
    assert np.all(corpus.doc_lengths() == zeta.shape[1]) and zeta.shape == (30, 6)
    assert h.shape == (30, 3)
    assert h.sum(axis=1) == pytest.approx(np.ones(30), abs=1e-12)


def _reference_generate(model, cfg):
    """Block-seeded generator, one document at a time: topics by binary search
    in cumulative h, and a word as the count of its topic's cumulative
    entries <= u, found by comparing the whole column."""
    d, k, L = model.d, model.k, cfg.doc_len
    a_cum = np.cumsum(model.A, axis=0)
    a_cum[-1, :] = 1.0
    prior = None if k == 1 else NIDModel(model.family, model.alpha)
    indptr, indices, data, hs, zetas = [0], [], [], [], []
    for i in range(cfg.n_docs):
        b, row = divmod(i, synth._BLOCK)
        if row == 0:
            seeds = np.random.SeedSequence(cfg.seed, spawn_key=(b,)).spawn(2)
            h_rng, u_rng = (np.random.default_rng(s) for s in seeds)
        u = u_rng.random(2 * L)
        if k == 1:
            h = np.array([1.0])
            zeta = np.zeros(L, dtype=int)
        else:
            h = sample(prior, h_rng)
            h_cum = np.cumsum(h)
            h_cum[-1] = 1.0
            zeta = np.searchsorted(h_cum, u[:L], side="right")
        words = (a_cum[:, zeta] <= u[None, L:]).sum(axis=0)
        counts = np.bincount(words, minlength=d)
        nz = np.nonzero(counts)[0]
        indices.append(nz)
        data.append(counts[nz])
        indptr.append(indptr[-1] + nz.size)
        hs.append(h)
        zetas.append(zeta)
    mat = sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
        shape=(cfg.n_docs, d))
    return Corpus(mat), (np.array(hs), np.array(zetas))


def _with_zeros():
    # exact zeros repeat entries of the cumsum, so the lookup meets ties
    A = _random_model(14, 4, seed=11).A
    A[[0, 3, 4, 9, 13], :] = 0.0
    A[6, 2] = 0.0
    return TopicModel(A=A / A.sum(axis=0), alpha=np.array([0.7, 1.2, 0.4, 2.0]),
                      family=invgauss_family(4.0))


def _overshoot():
    # column 1 sums to 1 + 5e-9 and its cumsum passes 1 at row 1 of 8
    A = _random_model(8, 3, seed=12).A
    A[:, 1] = [0.25, 0.75 + 5e-9, 0, 0, 0, 0, 0, 0]
    return TopicModel(A=A, alpha=np.array([1.0, 0.5, 1.5]), family=gamma_family(2.0))


def _negative_entry():
    # entries down to -1e-12 are accepted, and make the cumsum dip
    A = _random_model(10, 3, seed=13).A
    A[:, 0] = [0.5, -1e-13, 0.5 + 1e-13, 0, 0, 0, 0, 0, 0, 0]
    return TopicModel(A=A, alpha=np.array([0.6, 0.9, 1.3]), family=gamma_family(1.0))


def _single_word_docs():
    # h near a vertex: most documents repeat one word, as does the next one
    return TopicModel(A=np.eye(2), alpha=np.array([0.05, 0.05]), family=gamma_family(1.0))


def _one_topic():
    col = np.random.default_rng(14).dirichlet(np.ones(9) * 0.5)
    return TopicModel(A=col[:, None], alpha=np.array([1.0]), family=gamma_family(1.0))


def _many_topics():
    # k >= 256 holds the topic counts in uint16
    return _random_model(6, 300, seed=22)


@pytest.mark.parametrize("make", [
    _with_zeros, _overshoot, _negative_entry, _single_word_docs, _one_topic,
    lambda: _random_model(40, 5, seed=15),
    lambda: _random_model(40, 5, seed=16, family=invgauss_family(0.5)),
    _many_topics,
])
@pytest.mark.parametrize("block", [7, None])
def test_generate_matches_dense_reference(make, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(synth, "_BLOCK", block)
    model = make()
    cfg = SynthConfig(30, 9, seed=17)
    got, (got_h, got_zeta) = generate(model, cfg)
    want, (want_h, want_zeta) = _reference_generate(model, cfg)
    assert got.counts.shape == want.counts.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.counts, name), getattr(want.counts, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert len(got_h) == len(want_h) and len(got_zeta) == len(want_zeta)
    assert got_h.dtype == want_h.dtype and np.array_equal(got_h, want_h)
    assert got_zeta.dtype == want_zeta.dtype and np.array_equal(got_zeta, want_zeta)


def _sorted_columns(model):
    a_cum = np.cumsum(model.A, axis=0)
    a_cum[-1, :] = 1.0
    return np.sort(a_cum, axis=0).T.copy()


@pytest.mark.parametrize("make", [_with_zeros, _overshoot, _negative_entry])
@pytest.mark.parametrize("drawn", ["every", "gap", "one"])
def test_lookup_words_equals_a_search_per_token(make, drawn):
    a_sorted = _sorted_columns(make())
    k = len(a_sorted)
    rng = np.random.default_rng(21)
    u = rng.random(600)
    # ties: a third of the keys are column entries themselves, many repeated
    u[::3] = rng.choice(a_sorted.ravel(), 200)
    if drawn == "every":
        cases = [rng.integers(0, k, u.size)]
    elif drawn == "gap":        # topic 1 is drawn by no token
        cases = [rng.choice([j for j in range(k) if j != 1], u.size)]
    else:                       # every token in one topic, for each topic
        cases = [np.full(u.size, j) for j in range(k)]
    for topics in cases:
        topics = topics.astype(np.uint8)
        want = [np.searchsorted(a_sorted[t], x, side="right") for t, x in zip(topics, u)]
        got = synth._lookup_words(a_sorted, topics, u)
        assert got.dtype == np.intp and np.array_equal(got, want)


@pytest.mark.parametrize("block", [7, None])
def test_first_documents_do_not_depend_on_n_docs(block, monkeypatch):
    # both streams are read in document order, so a shorter corpus is a prefix
    if block is not None:
        monkeypatch.setattr(synth, "_BLOCK", block)
    model = _random_model(30, 4, seed=18, family=invgauss_family(2.0))
    full, (full_h, full_zeta) = generate(model, SynthConfig(20, 8, seed=19))
    for m in (1, 6, 7, 8, 13):   # short of, at and past the 7-document boundaries
        part, (part_h, part_zeta) = generate(model, SynthConfig(m, 8, seed=19))
        assert (part.counts != full.counts[:m]).nnz == 0
        assert np.array_equal(part_h, full_h[:m]) and np.array_equal(part_zeta, full_zeta[:m])


@pytest.mark.parametrize("family", [gamma_family(1.5), invgauss_family(4.0)])
def test_per_document_draws_equal_one_sized_draw(family):
    # generate calls sample once per document; for these families that draws
    # exactly what one size=n call on the same generator would
    prior = NIDModel(family, np.array([0.3, 1.0, 2.5, 0.8]))
    rng = np.random.default_rng(20)
    one_by_one = np.array([sample(prior, rng) for _ in range(1024)])
    at_once = sample(prior, np.random.default_rng(20), size=1024)
    assert np.array_equal(one_by_one, at_once)
