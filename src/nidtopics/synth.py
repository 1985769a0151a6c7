"""Synthetic corpora drawn from a ground-truth topic model.

Per document: draw topic proportions h from the model's simplex prior, a
topic index per word position from Multinomial(h), then the word from the
chosen topic's column of A.  Documents are drawn ``_BLOCK`` at a time, and
block b seeds two generators from ``SeedSequence(seed, spawn_key=(b,))``:
one for the prior draws (one ``sample`` call per document, in document
order) and one for an (n, 2 doc_len) array of uniforms, each row a
document's topic uniforms then its word uniforms.  Both streams are read in
document order, so regeneration is byte-identical and the first m documents
of ``n_docs`` equal those of ``n_docs = m``.

Cost: the prior draws are one Python-level call per document.  The rest
runs a block at a time: a topic is the count of its document's cumulative h
entries <= u, by k - 1 compare-adds over the block, O(n_docs doc_len k) in
all.  For the words the block's tokens are sorted once, by word uniform and
then stably (a radix sort) by topic, so each topic takes one search of its
sorted cumulative column with a sorted, contiguous run of keys, and the
words are scattered back through the permutation.  In order, consecutive
keys take nearly the same path through the column (numpy also starts each
bisection at the previous key's result), so the branches predict and the
entries they touch stay in cache.  A row sort then turns the words into
sorted CSR entries.  Scratch memory is O(_BLOCK doc_len) on top of the
output's O(nnz + n_docs doc_len).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .corpus import Corpus
from .decompose import TopicModel
from .nid import NIDModel, sample

_BLOCK = 1024  # documents drawn together from one seed; bounds the scratch memory


@dataclass(frozen=True)
class SynthConfig:
    n_docs: int
    doc_len: int
    seed: int

    def __post_init__(self):
        if self.n_docs < 1:
            raise ValueError("n_docs must be at least 1")
        if self.doc_len < 3:
            raise ValueError("doc_len must be at least 3 so third-order moments exist")


@dataclass
class TopicAssignment:
    """Ground-truth latents of one document: topic proportions ``h`` and a
    topic index per word, ``zeta``, integers in [0, h.size).  Both are
    coerced to arrays."""

    h: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.zeta = zeta = np.asarray(self.zeta)
        if zeta.dtype.kind not in "iu":
            raise ValueError(f"topic indices must be integers, not {zeta.dtype}")
        if zeta.size and (np.minimum.reduce(zeta, axis=None) < 0
                          or np.maximum.reduce(zeta, axis=None) >= self.h.size):
            raise ValueError("topic indices out of range")


def _lookup_words(a_sorted: np.ndarray, topics: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(a_sorted[t], x, side="right")`` for each pair (t, x) of the
    flat ``topics`` and ``u``.

    The tokens are grouped by topic with their uniforms in increasing order,
    so each topic takes one search over a contiguous sorted slice (see the
    module's "Cost").  The same floats meet the same column, so every word is
    the one a per-token search finds.  ``topics`` should be the narrowest
    integer type that holds k, so that the stable sort is a radix sort.
    """
    order = np.argsort(u)
    order = order[np.argsort(topics[order], kind="stable")]
    keys = u[order]
    found = np.empty(u.size, dtype=np.intp)
    start = 0
    for j, end in enumerate(np.cumsum(np.bincount(topics, minlength=len(a_sorted)))):
        found[start:end] = np.searchsorted(a_sorted[j], keys[start:end], side="right")
        start = end
    words = np.empty_like(found)
    words[order] = found
    return words


def generate(model: TopicModel, cfg: SynthConfig) -> Tuple[Corpus, List[TopicAssignment]]:
    """Sample a corpus and the latent variables that produced it."""
    import scipy.sparse as sp

    d, k, doc_len = model.d, model.k, cfg.doc_len
    a_cum = np.cumsum(model.A, axis=0)
    a_cum[-1, :] = 1.0  # guard rounding in the inverse-CDF lookup
    # A word is the count of its topic's cumulative entries <= u.  Sorted, a
    # column gives that count by binary search even where a tiny negative
    # entry of A makes the cumsum dip, or rounding takes it past 1 early.
    a_sorted = np.sort(a_cum, axis=0).T.copy()
    prior = None if k == 1 else NIDModel(model.family, model.alpha)

    indices: List[np.ndarray] = []
    data: List[np.ndarray] = []
    row_nnz: List[np.ndarray] = []
    assignments: List[TopicAssignment] = []

    for start in range(0, cfg.n_docs, _BLOCK):
        n = min(_BLOCK, cfg.n_docs - start)
        block_seed = np.random.SeedSequence(cfg.seed, spawn_key=(start // _BLOCK,))
        h_rng, u_rng = (np.random.default_rng(s) for s in block_seed.spawn(2))
        u = u_rng.random((n, 2 * doc_len))
        if k == 1:
            hs = np.ones((n, 1))
            counts = np.zeros((n, doc_len), dtype=np.uint8)
        else:
            hs = np.array([sample(prior, h_rng) for _ in range(n)])
            h_cum = np.cumsum(hs, axis=1)
            # a topic is the count of the cumulative entries <= u; the last
            # is 1 > u, so k - 1 compares give searchsorted(side="right"),
            # summed in the narrowest integer that holds k
            u_topic = u[:, :doc_len].copy()  # contiguous, so each compare runs faster
            counts = np.zeros((n, doc_len), dtype=np.min_scalar_type(k))
            for j in range(k - 1):
                counts += h_cum[:, j, None] <= u_topic
        zetas = counts.astype(np.intp)
        assignments.extend(TopicAssignment(h=h, zeta=zeta) for h, zeta in zip(hs, zetas))

        words = _lookup_words(a_sorted, counts.ravel(), u[:, doc_len:].ravel())
        words = words.reshape(n, doc_len)

        # each run of equal words in a sorted row is one CSR entry
        words.sort(axis=1)
        first = np.ones((n, doc_len), dtype=bool)
        first[:, 1:] = words[:, 1:] != words[:, :-1]
        at = np.flatnonzero(first)
        indices.append(words.ravel()[at])
        data.append(np.diff(at, append=words.size))
        row_nnz.append(first.sum(axis=1))

    indptr = np.concatenate(([0], np.cumsum(np.concatenate(row_nnz))))
    mat = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                        shape=(cfg.n_docs, d))
    return Corpus(mat), assignments
