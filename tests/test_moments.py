import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidtopics import (
    Corpus, NIDModel, SynthConfig, TopicModel, Weights, accumulate, build_m2,
    build_whitened_m3, corpus_from_docs, exact_moment_set, gamma_family,
    generate,
)
from nidtopics import moments
from nidtopics.moments import ShortDocumentError, project_moments

from helpers import moment


def _brute_force_moments(doc_counts, d):
    """Enumerate ordered tuples of distinct positions for one document."""
    words = []
    for w, c in doc_counts.items():
        words.extend([w] * c)
    n = len(words)
    m1 = np.zeros(d)
    for w in words:
        m1[w] += 1.0 / n
    m2 = np.zeros((d, d))
    for i, j in itertools.permutations(range(n), 2):
        m2[words[i], words[j]] += 1.0 / (n * (n - 1))
    m3 = np.zeros((d, d, d))
    for i, j, l in itertools.permutations(range(n), 3):
        m3[words[i], words[j], words[l]] += 1.0 / (n * (n - 1) * (n - 2))
    return m1, m2, m3


def test_single_doc_pair_counts():
    # "a a b": six ordered pairs, (a,a) twice, (a,b)/(b,a) twice each
    corpus = corpus_from_docs([{0: 2, 1: 1}], d=2)
    ms = accumulate(corpus)
    assert np.allclose(ms.m1, [2.0 / 3.0, 1.0 / 3.0])
    expected = np.array([[2.0 / 6.0, 2.0 / 6.0], [2.0 / 6.0, 0.0]])
    assert np.allclose(ms.m2 @ np.eye(2), expected)


def test_single_doc_matches_brute_force():
    doc = {0: 2, 1: 1, 3: 2}
    corpus = corpus_from_docs([doc], d=4)
    ms = accumulate(corpus)
    m1, m2, m3 = _brute_force_moments(doc, 4)
    assert np.allclose(ms.m1, m1)
    assert np.allclose(ms.m2 @ np.eye(4), m2)
    eye = np.eye(4)
    assert np.allclose(ms.triple(eye), m3, atol=1e-12)


def test_distinct_words_give_permutation_tensor():
    corpus = corpus_from_docs([{0: 1, 1: 1, 2: 1}], d=3)
    ms = accumulate(corpus)
    eye = np.eye(3)
    t = ms.triple(eye)
    expected = np.zeros((3, 3, 3))
    for p in itertools.permutations((0, 1, 2)):
        expected[p] = 1.0 / 6.0
    assert np.allclose(t, expected)


def test_duplicate_documents_average_out():
    doc = {0: 2, 1: 3}
    one = accumulate(corpus_from_docs([doc], d=3))
    two = accumulate(corpus_from_docs([doc, doc], d=3))
    assert np.allclose(one.m1, two.m1)
    assert np.allclose(one.m2 @ np.eye(3), two.m2 @ np.eye(3))
    w = np.random.default_rng(0).normal(size=(3, 2))
    assert np.allclose(one.triple(w), two.triple(w))


def test_moment_set_mass_invariants():
    corpus, _ = generate(
        TopicModel(A=np.random.default_rng(1).dirichlet(np.ones(6), size=2).T,
                   alpha=np.array([1.0, 1.0]), family=gamma_family(1.0)),
        SynthConfig(n_docs=50, doc_len=8, seed=3))
    ms = accumulate(corpus)
    m2 = ms.m2 @ np.eye(6)
    assert ms.m1.sum() == pytest.approx(1.0, abs=1e-10)
    assert m2.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(ms.m1 >= 0) and np.all(m2 >= -1e-15)
    assert np.allclose(m2, m2.T)


@given(st.permutations(list(range(5))))
@settings(max_examples=20, deadline=None)
def test_vocab_permutation_equivariance(perm):
    docs = [{0: 2, 1: 1, 2: 3}, {1: 1, 3: 2, 4: 1}, {0: 1, 2: 1, 4: 2}]
    corpus = corpus_from_docs(docs, d=5)
    perm = np.asarray(perm)
    ms = accumulate(corpus)
    ms_p = accumulate(Corpus(corpus.counts[:, np.argsort(perm)]))
    assert np.allclose(ms_p.m1[perm], ms.m1)
    assert np.allclose((ms_p.m2 @ np.eye(5))[np.ix_(perm, perm)], ms.m2 @ np.eye(5))
    w = np.random.default_rng(0).normal(size=(5, 3))
    w_p = np.zeros_like(w)
    w_p[perm] = w
    assert np.allclose(ms_p.triple(w_p), ms.triple(w), atol=1e-12)


def test_chunk_order_does_not_change_results():
    rng = np.random.default_rng(2)
    docs = [{int(w): int(c) for w, c in
             zip(rng.choice(8, size=4, replace=False), rng.integers(1, 5, size=4))}
            for _ in range(40)]
    corpus = corpus_from_docs(docs, d=8)
    shuffled = corpus.subset(rng.permutation(40))
    ms_a, ms_b = accumulate(corpus), accumulate(shuffled)
    assert np.allclose(ms_a.m1, ms_b.m1, atol=1e-10)
    assert np.allclose(ms_a.m2 @ np.eye(8), ms_b.m2 @ np.eye(8), atol=1e-10)
    w = rng.normal(size=(8, 3))
    assert np.allclose(ms_a.triple(w), ms_b.triple(w), atol=1e-10)


@pytest.mark.parametrize("chunk", [None, 2])
def test_triple_with_distinct_contraction_matrices_matches_brute_force(chunk, monkeypatch):
    # lengths 1 and 2 feed no triples, lengths 3 and 6 repeat words
    if chunk is not None:
        monkeypatch.setattr(moments, "_CHUNK", chunk)
    docs = [{2: 1}, {0: 2}, {1: 1, 3: 2}, {0: 3, 2: 1, 4: 2}, {4: 1, 1: 1, 0: 1},
            {3: 4, 1: 2}, {2: 2, 3: 1}]
    d = 5
    corpus = corpus_from_docs(docs, d=d)
    ms = accumulate(corpus)
    m3 = np.zeros((d, d, d))
    long_docs = [doc for doc in docs if sum(doc.values()) >= 3]
    for doc in long_docs:
        m3 += _brute_force_moments(doc, d)[2] / len(long_docs)
    rng = np.random.default_rng(6)
    V = rng.normal(size=(d, 3))
    expected = np.einsum("abc,ai,bj,cl->ijl", m3, V, V, V)
    t = ms.triple(V)
    assert t.shape == (3, 3, 3)
    assert np.max(np.abs(t - expected)) < 1e-12


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("rows, k, k3", [
    (moments._CHUNK, 50, 50), (700, 10, 10), (2 * moments._CHUNK + 3, 4, 5), (1, 3, 3)])
def test_pair_weighted_sum_equals_einsum_over_chunks(rows, k, k3, weighted):
    # positive factors, so no entry is a cancellation and rtol alone is a fair bound
    rng = np.random.default_rng(rows)
    X, Z = rng.random((rows, k)), rng.random((rows, k3))
    w = rng.random(rows) if weighted else None
    expected = np.einsum("a,ai,aj,al->ijl", np.ones(rows) if w is None else w, X, X, Z)
    np.testing.assert_allclose(moments._pair_weighted_sum(X, Z, w), expected, rtol=1e-12)


def test_triple_scratch_is_below_one_k_squared_chunk():
    import tracemalloc

    import scipy.sparse as sp

    k, d, n_docs = 50, 200, 2 * moments._CHUNK
    rng = np.random.default_rng(5)
    docs = np.repeat(np.arange(n_docs), 20)
    counts = sp.csr_matrix((np.ones(docs.size), (docs, rng.integers(0, d, size=docs.size))),
                           shape=(n_docs, d))
    ms = accumulate(Corpus(counts))
    V = rng.standard_normal((d, k))
    expected = ms.triple(V)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        t = ms.triple(V)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(t, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
    assert peak < k * k * moments._CHUNK * 8


def test_corpus_without_a_three_word_document_rejected():
    corpus = corpus_from_docs([{0: 1, 1: 1}, {2: 2}], d=3)
    with pytest.raises(ShortDocumentError):
        accumulate(corpus)


def test_short_documents_salvaged_for_lower_orders():
    # one 2-word doc plus one 4-word doc: mean over both, pairs over both,
    # triples over the long one only
    short = {0: 1, 1: 1}
    long = {0: 3, 2: 1}
    corpus = corpus_from_docs([short, long], d=3)
    ms = accumulate(corpus)
    m1_s, m2_s, _ = _brute_force_moments(short, 3)
    m1_l, m2_l, m3_l = _brute_force_moments(long, 3)
    assert np.allclose(ms.m1, 0.5 * (m1_s + m1_l))
    assert np.allclose(ms.m2 @ np.eye(3), 0.5 * (m2_s + m2_l))
    eye = np.eye(3)
    assert np.allclose(ms.triple(eye), m3_l)


def test_one_word_documents_feed_mean_only():
    long = {0: 2, 1: 1, 2: 1}
    ms = accumulate(corpus_from_docs([{2: 1}, long], d=3))
    alone = accumulate(corpus_from_docs([long], d=3))
    assert ms.m1.sum() == pytest.approx(1.0, abs=1e-12)
    eye = np.eye(3)
    assert np.array_equal(ms.m2 @ eye, alone.m2 @ eye)
    assert np.array_equal(ms.triple(eye), alone.triple(eye))


def test_build_m2_zero_weight_is_identity():
    corpus = corpus_from_docs([{0: 2, 1: 2}], d=2)
    ms = accumulate(corpus)
    out = build_m2(project_moments(ms, np.eye(2)), Weights(0.0, 0.0, 0.0))
    assert np.array_equal(out, ms.m2 @ np.eye(2))


def test_exact_m2_has_topic_rank():
    rng = np.random.default_rng(5)
    A = rng.dirichlet(np.ones(10) * 0.4, size=3).T
    model = NIDModel(gamma_family(1.0), np.array([2.0, 2.0, 4.0]))
    from nidtopics import compute_weights
    w = compute_weights(gamma_family(1.0), 8.0)
    ms = exact_moment_set(model, A)
    m2 = build_m2(project_moments(ms, np.eye(10)), w)
    sv = np.linalg.svd(m2, compute_uv=False)
    assert sv[2] > 1e-6
    assert sv[3] < 1e-8


def test_exact_m2_matches_kappa_expansion():
    rng = np.random.default_rng(6)
    A = rng.dirichlet(np.ones(8) * 0.6, size=3).T
    alpha = np.array([2.0, 2.0, 4.0])
    model = NIDModel(gamma_family(1.0), alpha)
    from nidtopics import compute_weights, moment_vector
    w = compute_weights(gamma_family(1.0), 8.0)
    ms = exact_moment_set(model, A)
    m2 = build_m2(project_moments(ms, np.eye(8)), w)
    m1h = moment_vector(model)
    expected = np.zeros_like(m2)
    for j in range(3):
        r = np.zeros(3, dtype=int)
        r[j] = 2
        kappa = moment(model, r) + w.v * m1h[j] ** 2
        expected += kappa * np.outer(A[:, j], A[:, j])
    assert np.allclose(m2, expected, atol=1e-9)


def test_whitened_m3_is_fully_symmetric():
    corpus = corpus_from_docs(
        [{0: 2, 1: 1, 2: 1}, {1: 3, 3: 2}, {0: 1, 2: 2, 3: 1}], d=4)
    ms = accumulate(corpus)
    W = np.random.default_rng(7).normal(size=(4, 3))
    t = build_whitened_m3(project_moments(ms, np.eye(4)), Weights(-0.5, -0.3, 0.2), W)
    for p in itertools.permutations((0, 1, 2)):
        assert np.allclose(t, np.transpose(t, p), atol=1e-12)


def test_whitened_m3_composition_identity():
    # zero weights and a single all-distinct doc reduce to the raw tensor
    corpus = corpus_from_docs([{0: 1, 1: 1, 2: 1}], d=3)
    ms = accumulate(corpus)
    eye = np.eye(3)
    t = build_whitened_m3(project_moments(ms, eye), Weights(0.0, 0.0, 0.0), eye)
    expected = np.zeros((3, 3, 3))
    for p in itertools.permutations((0, 1, 2)):
        expected[p] = 1.0 / 6.0
    assert np.allclose(t, expected, atol=1e-12)


def test_estimator_consistency_rate():
    rng = np.random.default_rng(8)
    d, k = 30, 3
    A = rng.dirichlet(np.ones(d) * 0.2, size=k).T
    alpha = np.array([0.3, 0.3, 0.4])
    truth = TopicModel(A=A, alpha=alpha, family=gamma_family(1.0))
    model = NIDModel(gamma_family(1.0), alpha)
    exact = exact_moment_set(model, A)

    from nidtopics import compute_weights, whiten
    w = compute_weights(gamma_family(1.0), 1.0)
    exact_p = project_moments(exact, np.eye(d))
    W, _, _ = whiten(build_m2(exact_p, w), k)
    exact_t3 = build_whitened_m3(exact_p, w, W)

    def errors(n_docs, seed):
        corpus, _ = generate(truth, SynthConfig(n_docs, 20, seed=seed))
        ms = accumulate(corpus)
        t3 = build_whitened_m3(project_moments(ms, np.eye(d)), w, W)
        return (np.linalg.norm(ms.m2 @ np.eye(d) - exact.m2 @ np.eye(d)),
                np.linalg.norm(t3 - exact_t3))

    small = np.median([errors(1_000, s) for s in (0, 1, 2)], axis=0)
    big = np.median([errors(10_000, s) for s in (3, 4, 5)], axis=0)
    for ratio in small / big:
        assert 2.2 <= ratio <= 4.5


def test_empty_corpus_rejected():
    import scipy.sparse as sp
    corpus = Corpus(sp.csr_matrix((0, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        accumulate(corpus)


def test_triple_contraction_dimension_check():
    corpus = corpus_from_docs([{0: 1, 1: 1, 2: 1}], d=3)
    ms = accumulate(corpus)
    with pytest.raises(ValueError):
        ms.triple(np.eye(4))
