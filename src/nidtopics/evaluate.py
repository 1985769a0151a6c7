"""Held-out scoring: likelihood perplexity and PMI topic coherence.

The document likelihood has no closed form under these priors, so it is
estimated by Monte Carlo over the prior: p(doc) ~ mean_s prod_n (A h_s)_{w_n}
with h_s drawn from the model's simplex prior.  One shared batch of prior
draws scores every document, which keeps comparisons across models at equal
seeds meaningful.  Perplexity is exp of the negative per-word average of the
log likelihood estimates.
"""
from __future__ import annotations

import logging
from itertools import combinations

import numpy as np

from .corpus import Corpus
from .decompose import TopicModel
from .nid import NIDModel, sample

log = logging.getLogger(__name__)

_LOG_FLOOR = np.log(1e-300)
_DOC_CHUNK = 2048


def prior_samples(model: TopicModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the model's simplex prior, shape (n, k)."""
    if model.k == 1:
        return np.ones((n, 1))
    return sample(NIDModel(model.family, model.alpha), rng, size=n)


def perplexity(model: TopicModel, corpus: Corpus, n_h_samples: int = 512,
               seed: int = 0) -> float:
    """Monte-Carlo held-out perplexity; lower is better, floor is 1."""
    if model.d != corpus.d:
        raise ValueError(f"model d={model.d} but corpus d={corpus.d}")
    if corpus.n_docs == 0:
        raise ValueError("empty corpus")
    if n_h_samples < 1:
        raise ValueError(f"n_h_samples must be at least 1, got {n_h_samples}")
    rng = np.random.default_rng(seed)
    h = prior_samples(model, n_h_samples, rng)
    with np.errstate(divide="ignore"):
        log_ah = np.log(model.A @ h.T)  # (d, S); -inf where a topic mix misses a word

    lengths = corpus.doc_lengths()
    total_words = float(lengths.sum())
    if total_words == 0:
        raise ValueError("corpus has no words")

    total_logp = 0.0
    floored = 0
    for start in range(0, corpus.n_docs, _DOC_CHUNK):
        block = corpus.counts[start:start + _DOC_CHUNK]
        scores = block @ log_ah  # (m, S) sums of c_w * log(A h)_w
        top = scores.max(axis=1)
        with np.errstate(invalid="ignore"):   # a row that is -inf throughout gives nan
            scores -= top[:, None]
            logp = top + np.log(np.exp(scores, out=scores).sum(axis=1)) - np.log(n_h_samples)
        bad = ~np.isfinite(logp)
        if np.any(bad):
            floored += int(bad.sum())
            logp = np.where(bad, _LOG_FLOOR, logp)
        total_logp += float(logp.sum())
    if floored:
        log.warning("perplexity: %d document(s) had zero probability under all "
                    "prior samples; floored at 1e-300", floored)
    return float(np.exp(-total_logp / total_words))


def top_words(model: TopicModel, top_m: int = 10) -> np.ndarray:
    """Indices of the top_m highest-weight words per topic, shape (k, top_m)."""
    if top_m < 1 or top_m > model.d:
        raise ValueError(f"top_m={top_m} out of range for d={model.d}")
    order = np.argsort(-model.A, axis=0)
    return order[:top_m].T


def pmi(model: TopicModel, corpus: Corpus, top_m: int = 10) -> float:
    """Average pointwise mutual information over top-word pairs within topics.

    Occurrence probabilities are document frequencies; pair counts get +1
    smoothing.  Pairs require two distinct words, and pairs involving a word
    absent from the corpus are skipped.
    """
    if top_m < 2:
        raise ValueError("top_m must be at least 2 to form pairs")
    if corpus.n_docs < 2:
        raise ValueError("need at least 2 documents for co-occurrence statistics")
    tops = top_words(model, top_m)
    needed = np.unique(tops)
    col = {int(w): i for i, w in enumerate(needed)}

    # float64 makes the co-occurrence product a BLAS matmul; counts stay
    # far below 2^53, so every entry is exact
    present = (corpus.counts[:, needed] > 0).astype(np.float64).toarray()
    doc_freq = present.sum(axis=0)
    co = present.T @ present
    n_docs = corpus.n_docs

    topic_scores = []
    for t in range(model.k):
        vals = []
        for wi, wj in combinations(tops[t], 2):
            if wi == wj:
                continue
            i, j = col[int(wi)], col[int(wj)]
            if doc_freq[i] == 0 or doc_freq[j] == 0:
                continue
            p_ij = (co[i, j] + 1.0) / n_docs
            p_i = doc_freq[i] / n_docs
            p_j = doc_freq[j] / n_docs
            vals.append(np.log(p_ij / (p_i * p_j)))
        if vals:
            topic_scores.append(np.mean(vals))
    if not topic_scores:
        return float("nan")
    return float(np.mean(topic_scores))
