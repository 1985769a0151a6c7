"""Benchmark-owned ground truth and corpora.

The learn workloads get their corpora from here rather than from
``nidtopics.generate``, so a change to the package's random streams does not
change what the estimator is fed.  Everything is drawn from one
``numpy.random.Generator`` built from the run's seed, so the same seed gives
identical counts.

The topic proportions follow the inverse Gaussian family that the workloads
pass to ``learn``: coordinate i of the unnormalised vector is
``wald(alpha_i / lam, alpha_i**2)``, the law ``nidtopics.nid.sample`` draws,
and h is that vector normalised.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def make_truth(rng: np.random.Generator, d: int, k: int, alpha0: float):
    """Topic-word matrix A (d, k), columns Dirichlet(0.1), and alpha summing to alpha0."""
    A = rng.dirichlet(np.full(d, 0.1), size=k).T
    alpha = rng.dirichlet(np.full(k, 5.0)) * alpha0
    return A, alpha


def draw_h(rng: np.random.Generator, alpha: np.ndarray, lam: float, n: int) -> np.ndarray:
    """n normalised inverse Gaussian draws, shape (n, k)."""
    z = rng.wald(alpha / lam, alpha**2, size=(n, alpha.size))
    bad = ~np.isfinite(z) | (z <= 0.0)
    while np.any(bad):
        rows, cols = np.nonzero(bad)
        z[rows, cols] = rng.wald(alpha[cols] / lam, alpha[cols] ** 2)
        bad = ~np.isfinite(z) | (z <= 0.0)
    return z / z.sum(axis=1, keepdims=True)


def draw_counts(rng: np.random.Generator, A: np.ndarray, h: np.ndarray,
                doc_len: int) -> sp.csr_matrix:
    """Bag-of-words counts (n, d): topics by inverse CDF of h, words by inverse CDF of A."""
    n, k = h.shape
    d = A.shape[0]
    # one inverse-CDF lookup over all documents: row r's cumulative h is
    # shifted by r, so a sorted search of u + r lands inside row r
    h_cum = np.cumsum(h, axis=1)
    h_cum[:, -1] = 1.0
    offsets = np.arange(n, dtype=float)[:, None]
    u = rng.random((n, doc_len))
    flat = np.searchsorted((h_cum + offsets).ravel(), (u + offsets).ravel(), side="right")
    topics = flat - np.repeat(np.arange(n) * k, doc_len)
    np.clip(topics, 0, k - 1, out=topics)
    docs = np.repeat(np.arange(n), doc_len)

    a_cum = np.cumsum(A, axis=0)
    a_cum[-1, :] = 1.0
    words = np.empty(n * doc_len, dtype=np.int64)
    for t in range(k):
        pos = np.nonzero(topics == t)[0]
        words[pos] = np.searchsorted(a_cum[:, t], rng.random(pos.size), side="right")
    np.clip(words, 0, d - 1, out=words)
    counts = sp.coo_matrix((np.ones(words.size, dtype=np.int64), (docs, words)),
                           shape=(n, d)).tocsr()
    counts.sum_duplicates()
    return counts


def make_corpus_counts(rng: np.random.Generator, A: np.ndarray, alpha: np.ndarray,
                       lam: float, n_docs: int, doc_len: int):
    """(counts, h) for n_docs documents of doc_len words."""
    h = draw_h(rng, alpha, lam, n_docs)
    return draw_counts(rng, A, h, doc_len), h
