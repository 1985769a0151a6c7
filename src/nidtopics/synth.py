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
all; a word is one binary search per token in its topic's sorted cumulative
column, O(n_docs doc_len log d); then a row sort turns the words into
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
    """Ground-truth latents of one document."""

    h: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        if self.zeta.size and (self.zeta.min() < 0 or self.zeta.max() >= self.h.size):
            raise ValueError("topic indices out of range")


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
            zetas = np.zeros((n, doc_len), dtype=np.intp)
        else:
            hs = np.array([sample(prior, h_rng) for _ in range(n)])
            h_cum = np.cumsum(hs, axis=1)
            # a topic is the count of the cumulative entries <= u; the last
            # is 1 > u, so k - 1 compares give searchsorted(side="right"),
            # summed in the narrowest integer that holds k
            u_topic = u[:, :doc_len]
            counts = np.zeros((n, doc_len), dtype=np.min_scalar_type(k))
            for j in range(k - 1):
                counts += h_cum[:, j, None] <= u_topic
            zetas = counts.astype(np.intp)
        assignments.extend(TopicAssignment(h=h, zeta=zeta) for h, zeta in zip(hs, zetas))

        u_word = u[:, doc_len:]
        words = np.empty((n, doc_len), dtype=np.intp)
        for j in range(k):
            on = zetas == j
            words[on] = np.searchsorted(a_sorted[j], u_word[on], side="right")

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
