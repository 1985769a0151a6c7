import os
import threading
import warnings

import numpy as np
import pytest

from nidtopics import (
    Corpus, SynthConfig, TopicModel, corpus_from_docs, gamma_family, generate,
    invgauss_family, perplexity, pmi, top_words,
)


def _synthetic(seed=0, d=20, k=3, n_docs=400, doc_len=25, family=None):
    rng = np.random.default_rng(seed)
    A = rng.dirichlet(np.ones(d) * 0.2, size=k).T
    alpha = np.full(k, 1.0 / k)
    truth = TopicModel(A=A, alpha=alpha, family=family or gamma_family(1.0))
    corpus, _ = generate(truth, SynthConfig(n_docs, doc_len, seed=seed))
    return truth, corpus


def test_uniform_single_topic_perplexity_is_vocab_size():
    d = 17
    model = TopicModel(A=np.full((d, 1), 1.0 / d), alpha=np.array([1.0]),
                       family=gamma_family(1.0))
    corpus = corpus_from_docs([{0: 3, 5: 2}, {16: 4}], d=d)
    assert perplexity(model, corpus, n_h_samples=8, seed=0) == pytest.approx(d, rel=1e-9)


def test_perplexity_at_least_one_and_finite():
    truth, corpus = _synthetic(seed=1)
    p = perplexity(truth, corpus, n_h_samples=64, seed=0)
    assert np.isfinite(p)
    assert p >= 1.0


def test_perplexity_matches_a_per_document_logsumexp():
    # the reference: each document's log-mean over the same prior draws by
    # scipy's logsumexp, one document at a time
    from scipy.special import logsumexp
    from nidtopics.evaluate import prior_samples
    truth, corpus = _synthetic(seed=4, n_docs=50)
    h = prior_samples(truth, 64, np.random.default_rng(3))
    log_ah = np.log(truth.A @ h.T)
    counts = corpus.counts.toarray()
    logp = sum(logsumexp(row @ log_ah) - np.log(64) for row in counts)
    expected = np.exp(-logp / counts.sum())
    assert perplexity(truth, corpus, n_h_samples=64, seed=3) == pytest.approx(expected, rel=1e-12)


def test_truth_beats_shuffled_columns():
    wins = 0
    for seed in range(5):
        truth, corpus = _synthetic(seed=seed, n_docs=300)
        rng = np.random.default_rng(100 + seed)
        shuffledrows = rng.permutation(truth.d)
        wrong = TopicModel(A=truth.A[shuffledrows], alpha=truth.alpha,
                           family=truth.family)
        p_true = perplexity(truth, corpus, n_h_samples=128, seed=7)
        p_wrong = perplexity(wrong, corpus, n_h_samples=128, seed=7)
        wins += p_true < p_wrong
    assert wins >= 3  # median over seeds favors the generating model


def test_estimator_variance_shrinks_with_samples():
    truth, corpus = _synthetic(seed=2, n_docs=120)

    def spread(n_samples):
        vals = [perplexity(truth, corpus, n_h_samples=n_samples, seed=s)
                for s in range(4)]
        return max(vals) - min(vals)

    assert spread(256) < spread(1)


def test_perplexity_invariant_under_vocab_permutation():
    truth, corpus = _synthetic(seed=3, n_docs=80)
    perm = np.random.default_rng(4).permutation(truth.d)
    # permute rows of A consistently with corpus word ids
    A_p = np.zeros_like(truth.A)
    A_p[perm] = truth.A
    permuted_model = TopicModel(A=A_p, alpha=truth.alpha, family=truth.family)
    p0 = perplexity(truth, corpus, n_h_samples=64, seed=5)
    p1 = perplexity(permuted_model, Corpus(corpus.counts[:, np.argsort(perm)]),
                    n_h_samples=64, seed=5)
    assert p1 == pytest.approx(p0, rel=1e-12)


def test_perplexity_dimension_mismatch():
    truth, corpus = _synthetic(seed=5, n_docs=10)
    bad = TopicModel(A=np.full((truth.d + 1, 2), 1.0 / (truth.d + 1)),
                     alpha=np.array([1.0, 1.0]), family=truth.family)
    with pytest.raises(ValueError):
        perplexity(bad, corpus)


@pytest.mark.parametrize("n_h_samples", [0, -3])
def test_perplexity_rejects_no_prior_samples(n_h_samples):
    truth, corpus = _synthetic(seed=5, n_docs=10)
    with pytest.raises(ValueError, match="n_h_samples"):
        perplexity(truth, corpus, n_h_samples=n_h_samples)


def test_zero_probability_documents_are_floored():
    # topic supported on word 0 only, corpus contains word 1
    A = np.array([[1.0], [0.0]])
    model = TopicModel(A=A, alpha=np.array([1.0]), family=gamma_family(1.0))
    corpus = corpus_from_docs([{1: 2}], d=2)
    p = perplexity(model, corpus, n_h_samples=4, seed=0)
    assert np.isfinite(p)
    assert p > 1e100  # floored at 1e-300 per word pushes perplexity huge


def _many_blocks(n_docs=2600, d=30, k=3):
    """A corpus spread over many scoring blocks and more than one partial sum.

    The last word has probability zero under every topic.  Document 2400 is
    empty and every 300th document from 100 on uses the last word, so the
    zero-probability documents fall in blocks across the whole corpus,
    including the late ones.
    """
    rng = np.random.default_rng(11)
    A = np.zeros((d, k))
    A[:-1] = rng.dirichlet(np.ones(d - 1), size=k).T
    model = TopicModel(A=A, alpha=np.full(k, 0.5), family=invgauss_family(4.0))
    docs = [dict(enumerate(rng.multinomial(12, np.r_[A[:-1, i % k], 0.0]).tolist()))
            for i in range(n_docs)]
    docs = [{w: c for w, c in doc.items() if c} for doc in docs]
    docs[2400] = {}
    zero = list(range(100, n_docs, 300))
    for i in zero:
        docs[i][d - 1] = 1
    return model, corpus_from_docs(docs, d=d), len(zero)


def test_perplexity_over_many_blocks_matches_a_per_document_logsumexp(caplog):
    from scipy.special import logsumexp
    from nidtopics.evaluate import prior_samples
    model, corpus, n_zero = _many_blocks()
    h = prior_samples(model, 64, np.random.default_rng(5))
    with np.errstate(divide="ignore"):
        log_ah = np.log(model.A @ h.T)
    logp = 0.0
    for i in range(corpus.n_docs):
        row = corpus.counts[i]
        value = logsumexp(row.data @ log_ah[row.indices]) - np.log(64)
        logp += value if np.isfinite(value) else np.log(1e-300)
    expected = np.exp(-logp / corpus.doc_lengths().sum())
    with caplog.at_level("WARNING", logger="nidtopics.evaluate"):
        got = perplexity(model, corpus, n_h_samples=64, seed=5)
    assert got == pytest.approx(expected, rel=1e-12)
    floors = [r.getMessage() for r in caplog.records if "zero probability" in r.getMessage()]
    assert floors == [f"perplexity: {n_zero} document(s) had zero probability under all "
                      "prior samples; floored at 1e-300"]


def test_perplexity_is_the_same_at_any_core_count(monkeypatch):
    model, corpus, _ = _many_blocks()
    values = []
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        threads = threading.active_count()
        with warnings.catch_warnings():
            # a floating-point warning raised in any scoring thread fails the call
            warnings.simplefilter("error", RuntimeWarning)
            values.append(perplexity(model, corpus, n_h_samples=64, seed=5))
        assert threading.active_count() == threads  # the helpers are joined
    assert values[0] == values[1]


def test_top_words_ordering():
    A = np.array([[0.5, 0.1], [0.3, 0.2], [0.2, 0.7]])
    model = TopicModel(A=A, alpha=np.array([1.0, 1.0]), family=gamma_family(1.0))
    tops = top_words(model, 2)
    assert tops[0].tolist() == [0, 1]
    assert tops[1].tolist() == [2, 1]


def test_pmi_positive_for_disjoint_topics():
    # two topics on disjoint word halves, one topic per document
    d = 10
    A = np.zeros((d, 2))
    A[:5, 0] = 0.2
    A[5:, 1] = 0.2
    model = TopicModel(A=A, alpha=np.array([0.5, 0.5]), family=gamma_family(1.0))
    rng = np.random.default_rng(6)
    docs = []
    for _ in range(300):
        topic = rng.integers(2)
        words = rng.choice(5, size=6, replace=True) + 5 * topic
        counts = np.bincount(words, minlength=d)
        docs.append({int(w): int(c) for w, c in enumerate(counts) if c})
    corpus = corpus_from_docs(docs, d=d)
    assert pmi(model, corpus, top_m=5) > 0.0


def test_pmi_excludes_identical_pairs():
    # degenerate model whose top-m lists repeat one word: no valid pairs
    d = 4
    A = np.full((d, 2), 1e-12)
    A[0, 0] = 1.0 - 3e-12
    A[1, 1] = 1.0 - 3e-12
    A /= A.sum(axis=0)
    model = TopicModel(A=A, alpha=np.array([1.0, 1.0]), family=gamma_family(1.0))
    corpus = corpus_from_docs([{0: 2, 1: 1}, {1: 2, 2: 1}], d=d)
    score = pmi(model, corpus, top_m=2)
    assert np.isfinite(score)  # pairs exist but never pair a word with itself


def test_pmi_needs_two_documents():
    model = TopicModel(A=np.full((3, 1), 1.0 / 3), alpha=np.array([1.0]),
                       family=gamma_family(1.0))
    corpus = corpus_from_docs([{0: 3}], d=3)
    with pytest.raises(ValueError):
        pmi(model, corpus)
    with pytest.raises(ValueError):
        pmi(model, corpus_from_docs([{0: 1}, {1: 1}], d=3), top_m=1)


def test_learned_model_scores_higher_pmi_than_random():
    from nidtopics import learn
    wins = 0
    for seed in range(5):
        truth, corpus = _synthetic(seed=20 + seed, d=25, n_docs=2500, doc_len=30)
        learned = learn(corpus, truth.family, truth.k, 1.0)
        rng = np.random.default_rng(seed)
        random_model = TopicModel(
            A=rng.dirichlet(np.ones(truth.d), size=truth.k).T,
            alpha=truth.alpha, family=truth.family)
        wins += pmi(learned, corpus) > pmi(random_model, corpus)
    assert wins >= 3
