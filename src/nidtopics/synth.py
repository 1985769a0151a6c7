"""Synthetic corpora drawn from a ground-truth topic model.

Per document: draw topic proportions h from the model's simplex prior, a
topic index per word position from Multinomial(h), then the word from the
chosen topic's column of A.  Each document gets its own generator spawned
from the master seed, so generation order never matters and regeneration is
byte-identical.

Cost: the per-document draws (one prior sample, and a topic and a uniform
per word position) are O(doc_len log k) each and run in a Python loop.  The
word lookups and the CSR assembly run ``_BLOCK`` documents at a time: one
binary search per token in its topic's sorted cumulative column, so
O(n_docs doc_len log d) in all, then a row sort that turns the words into
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

_BLOCK = 1024  # documents whose word lookups run together; bounds the scratch memory


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
        if (self.zeta < 0).any() or (self.zeta >= self.h.size).any():
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
        zetas = np.empty((n, doc_len), dtype=np.intp)
        u = np.empty((n, doc_len))
        for b in range(n):
            rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(start + b,)))
            if k == 1:
                h = np.array([1.0])
                zeta = np.zeros(doc_len, dtype=int)
            else:
                h = sample(prior, rng)
                h_cum = np.cumsum(h)
                h_cum[-1] = 1.0
                zeta = np.searchsorted(h_cum, rng.random(doc_len), side="right")
            u[b] = rng.random(doc_len)
            zetas[b] = zeta
            assignments.append(TopicAssignment(h=h, zeta=zeta))

        words = np.empty((n, doc_len), dtype=np.intp)
        for j in range(k):
            on = zetas == j
            words[on] = np.searchsorted(a_sorted[j], u[on], side="right")

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
