import numpy as np
import pytest

from nidtopics import (
    SynthConfig, TopicModel, TuneCandidate, gamma_family, generate,
    invgauss_family, learn, perplexity, tune,
)
from nidtopics import tuner
from nidtopics.tuner import TunerError, split_corpus


def _corpus(family, seed, n_docs=2500, d=20, k=3, doc_len=40):
    rng = np.random.default_rng(seed)
    A = rng.dirichlet(np.ones(d) * 0.15, size=k).T
    alpha = np.full(k, 1.0 / k)
    truth = TopicModel(A=A, alpha=alpha, family=family)
    corpus, _ = generate(truth, SynthConfig(n_docs, doc_len, seed=seed))
    return corpus


def test_split_is_deterministic_and_disjoint():
    corpus = _corpus(gamma_family(1.0), seed=0, n_docs=100)
    tr1, va1 = split_corpus(corpus, 0.8, seed=3)
    tr2, va2 = split_corpus(corpus, 0.8, seed=3)
    assert np.array_equal(tr1, tr2) and np.array_equal(va1, va2)
    assert len(set(tr1) & set(va1)) == 0
    assert len(tr1) + len(va1) == 100
    with pytest.raises(ValueError):
        split_corpus(corpus, 1.2, seed=0)


def test_singleton_search_space():
    corpus = _corpus(gamma_family(1.0), seed=1)
    model, report = tune(corpus, 3, [TuneCandidate(gamma_family(1.0), 1.0)],
                         seed=5)
    assert len(report.rows) == 1
    assert report.best_index == 0
    assert model.family.kind == "gamma"
    assert np.isfinite(report.rows[0].val_perplexity)


def test_reported_perplexity_is_reproducible():
    corpus = _corpus(gamma_family(1.0), seed=2)
    model, report = tune(corpus, 3, [(gamma_family(1.0), 1.0)], seed=9,
                         n_h_samples=128)
    val = corpus.subset(report.val_docs)
    again = perplexity(model, val, n_h_samples=128, seed=9)
    assert again == report.rows[report.best_index].val_perplexity


def test_candidates_share_one_projection_of_the_train_split(monkeypatch):
    corpus = _corpus(gamma_family(1.0), seed=3)
    space = [(gamma_family(1.0), 0.5), (gamma_family(1.0), 1.0),
             (invgauss_family(4.0), 1.0), (invgauss_family(16.0), 2.0)]
    accumulated, triples = [], []
    inner = tuner.accumulate

    def counted(train):
        ms = inner(train)
        triple = ms.triple

        def counted_triple(*args):
            triples.append(1)
            return triple(*args)

        ms.triple = counted_triple
        accumulated.append(train)
        return ms

    monkeypatch.setattr(tuner, "accumulate", counted)
    model, report = tune(corpus, 3, space, seed=2, n_h_samples=64)
    assert len(accumulated) == 1 and len(triples) == 1
    assert not any(r.error for r in report.rows)
    best = report.rows[report.best_index].candidate
    again = learn(corpus.subset(report.train_docs), best.family, 3, best.alpha0)
    assert np.array_equal(model.A, again.A)
    assert np.array_equal(model.alpha, again.alpha)


def test_self_selection_picks_generating_family():
    # corpus drawn from an inverse Gaussian prior: the matching family should
    # win the grid on most seeds
    wins = 0
    space = [(gamma_family(1.0), 1.0), (invgauss_family(1.0), 1.0),
             (invgauss_family(4.0), 1.0), (invgauss_family(16.0), 1.0)]
    for seed in range(3):
        corpus = _corpus(invgauss_family(4.0), seed=30 + seed, n_docs=4000)
        _, report = tune(corpus, 3, space, seed=seed, n_h_samples=192)
        best = report.rows[report.best_index]
        wins += best.candidate.family.kind == "invgauss"
    assert wins >= 2


def test_dirichlet_corpus_keeps_dirichlet_competitive():
    space = [(gamma_family(1.0), 1.0), (invgauss_family(1.0), 1.0),
             (invgauss_family(4.0), 1.0), (invgauss_family(16.0), 1.0)]
    ok = 0
    for seed in range(3):
        corpus = _corpus(gamma_family(1.0), seed=60 + seed, n_docs=4000)
        _, report = tune(corpus, 3, space, seed=seed, n_h_samples=192)
        best = report.rows[report.best_index]
        gamma_row = report.rows[0]
        ok += (best.candidate.family.kind == "gamma"
               or gamma_row.val_perplexity <= 1.01 * best.val_perplexity)
    assert ok >= 2


def test_dominated_candidate_never_changes_winner():
    corpus = _corpus(gamma_family(1.0), seed=4)
    space = [(gamma_family(1.0), 1.0), (invgauss_family(4.0), 1.0)]
    _, base_report = tune(corpus, 3, space, seed=7)
    winner = base_report.rows[base_report.best_index].candidate
    # a candidate that always fails (k exceeds its usable rank is simulated
    # by an absurd alpha0 that makes weights explode the decomposition)
    space_plus = space + [(gamma_family(1.0), 1e-6)]
    _, report = tune(corpus, 3, space_plus, seed=7)
    assert report.rows[report.best_index].candidate == winner


def test_all_failures_aggregate():
    corpus = _corpus(gamma_family(1.0), seed=5, n_docs=40)
    # k above vocabulary size fails for every candidate
    with pytest.raises(TunerError) as exc:
        tune(corpus, 25, [(gamma_family(1.0), 1.0), (invgauss_family(1.0), 1.0)],
             seed=0)
    assert "every candidate failed" in str(exc.value)


@pytest.mark.parametrize("space, kwargs, named", [
    ([(gamma_family(1.0), 1.0), (gamma_family(1.0), -1.0)], {}, "gamma:1@-1.0"),
    ([(gamma_family(1.0), float("nan"))], {}, "gamma:1@nan"),
    ([(invgauss_family(4.0), "guess")], {}, "invgauss:4@guess"),
    ([(gamma_family(1.0), 1.0)], {"n_h_samples": 0}, "n_h_samples"),
], ids=["negative", "nan", "string", "no-samples"])
def test_bad_inputs_fail_before_the_corpus_stage(monkeypatch, space, kwargs, named):
    def refuse(train):
        raise AssertionError("the corpus stage ran")

    monkeypatch.setattr(tuner, "accumulate", refuse)
    corpus = _corpus(gamma_family(1.0), seed=6, n_docs=40)
    with pytest.raises(TunerError, match=named):
        tune(corpus, 3, space, seed=0, **kwargs)


def test_empty_search_space():
    corpus = _corpus(gamma_family(1.0), seed=6, n_docs=40)
    with pytest.raises(TunerError):
        tune(corpus, 3, [], seed=0)
