"""Empirical word moments and the centered tensors built from them.

Estimators are the exchangeable ordered-tuple statistics: with count vector
c and document length N, every ordered pair of distinct positions
contributes 1/(N(N-1)) to the pair matrix and every ordered triple of
distinct positions 1/(N(N-1)(N-2)) to the triple tensor; both are unbiased
for E[x1 (x) x2] and E[x1 (x) x2 (x) x3] under conditional independence
given the topic proportions.  Neither moment is materialized in vocabulary
dimension: the pair moment is a symmetric d-by-d ``LinearOperator`` applied
through the sparse counts, and the raw third moment is a contraction against
three d-by-k matrices, streamed over documents.  Memory stays O(nnz + d k).

Documents too short for a moment order are salvaged for the lower orders
(N >= 2 feeds the pair matrix, N >= 1 the mean) unless ``strict`` is set.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator

from .corpus import Corpus
from .util import run_chunked
from .weights import Weights

_CHUNK = 1024


class ShortDocumentError(ValueError):
    """Documents below the length needed for third-order statistics."""


@dataclass
class MomentSet:
    """First word moment, pair-moment operator and streamed triple contraction.

    ``m2`` is the raw pair moment E[x1 (x) x2] as a symmetric (d, d)
    ``LinearOperator``: ``ms.m2 @ X`` costs O(nnz * X.shape[1]) and the d-by-d
    matrix never exists (``ms.m2 @ np.eye(d)`` materializes it for small d).
    ``triple(W1, W2, W3)`` contracts the raw third-order moment with three
    (d, k) matrices and returns a (k, k, k) array.
    """

    m1: np.ndarray
    m2: LinearOperator
    triple: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    doc_count: int
    n_pair_docs: int = 0
    n_triple_docs: int = 0


def _symmetric_operator(d: int, matmat: Callable[[np.ndarray], np.ndarray]) -> LinearOperator:
    """(d, d) symmetric operator from its action on a (d, m) block."""
    def matvec(x):
        return matmat(np.reshape(x, (d, 1))).ravel()
    return LinearOperator((d, d), matvec=matvec, rmatvec=matvec, matmat=matmat,
                          rmatmat=matmat, dtype=float)


def _pair_operator(counts: sp.csr_matrix, scale: np.ndarray, n_docs: int) -> LinearOperator:
    """sum_d scale_d * (c_d (x) c_d - diag(c_d)) / n_docs, applied as
    X -> (C^T (s * (C X)) - ctilde * X) / n_docs with ctilde = C^T s."""
    C = counts.astype(float)
    ctilde = C.T @ scale

    def matmat(X):
        return (C.T @ (scale[:, None] * (C @ X)) - ctilde[:, None] * X) / n_docs

    return _symmetric_operator(counts.shape[1], matmat)


def _make_triple(counts: sp.csr_matrix, scale: np.ndarray, n_docs: int,
                 threads: int = 1):
    """Closure contracting the distinct-position triple tensor.

    For one document the tensor is
        c (x) c (x) c  -  three pairings of diag(c) with c  +  2 superdiag(c),
    which contracts against (W1, W2, W3) in O(nnz * k^2 + k^3) per document.
    """
    ctilde = np.asarray(counts.multiply(scale[:, None]).sum(axis=0)).ravel()

    def triple(W1: np.ndarray, W2: np.ndarray, W3: np.ndarray) -> np.ndarray:
        d = counts.shape[1]
        for W in (W1, W2, W3):
            if W.shape[0] != d:
                raise ValueError(f"contraction matrix has {W.shape[0]} rows, expected {d}")
        k1, k2, k3 = W1.shape[1], W2.shape[1], W3.shape[1]
        q12 = np.einsum("ai,aj->aij", W1, W2).reshape(d, k1 * k2)
        q13 = np.einsum("ai,al->ail", W1, W3).reshape(d, k1 * k3)
        q23 = np.einsum("aj,al->ajl", W2, W3).reshape(d, k2 * k3)

        def one_chunk(sl: slice) -> np.ndarray:
            c = counts[sl]
            s = scale[sl]
            p1, p2, p3 = c @ W1, c @ W2, c @ W3
            t = np.einsum("m,mi,mj,ml->ijl", s, p1, p2, p3)
            t -= np.einsum("mq,ml->ql", (c @ q12) * s[:, None], p3).reshape(k1, k2, k3)
            t -= np.einsum("mq,mj->qj", (c @ q13) * s[:, None], p2) \
                .reshape(k1, k3, k2).transpose(0, 2, 1)
            t -= np.einsum("mq,mi->iq", (c @ q23) * s[:, None], p1) \
                .reshape(k1, k2, k3)
            return t

        chunks = [slice(i, min(i + _CHUNK, counts.shape[0]))
                  for i in range(0, counts.shape[0], _CHUNK)]
        parts = run_chunked(one_chunk, chunks, threads)
        t = sum(parts) if parts else np.zeros((k1, k2, k3))
        t += 2.0 * np.einsum("a,ai,aj,al->ijl", ctilde, W1, W2, W3)
        return t / n_docs

    return triple


def accumulate(corpus: Corpus, strict: bool = False, threads: int = 1) -> MomentSet:
    """Average the per-document unbiased moment statistics over a corpus."""
    if corpus.n_docs == 0:
        raise ValueError("empty corpus")
    lengths = corpus.doc_lengths().astype(float)
    short = np.nonzero(lengths < 3)[0]
    if strict and short.size:
        raise ShortDocumentError(
            f"{short.size} document(s) shorter than 3 words: ids {short[:20].tolist()}")

    counts = corpus.counts
    has1 = lengths >= 1
    if not np.any(has1):
        raise ValueError("corpus has no non-empty documents")
    inv_len = np.where(has1, 1.0 / np.maximum(lengths, 1.0), 0.0)
    m1 = np.asarray(counts.multiply(inv_len[:, None]).sum(axis=0)).ravel()
    m1 /= has1.sum()

    has2 = lengths >= 2
    if not np.any(has2):
        raise ValueError("no documents with at least 2 words; cannot form pair moments")
    pair_scale = np.where(has2, 1.0 / np.maximum(lengths * (lengths - 1.0), 1.0), 0.0)
    m2 = _pair_operator(counts, pair_scale, int(has2.sum()))

    has3 = lengths >= 3
    n3 = int(has3.sum())
    if n3 == 0:
        raise ShortDocumentError("no documents with at least 3 words; "
                                 "third-order statistics undefined")
    triple_scale = np.where(
        has3, 1.0 / np.maximum(lengths * (lengths - 1.0) * (lengths - 2.0), 1.0), 0.0)
    triple = _make_triple(counts, triple_scale, n3, threads=threads)

    return MomentSet(m1=m1, m2=m2, triple=triple, doc_count=corpus.n_docs,
                     n_pair_docs=int(has2.sum()), n_triple_docs=n3)


def exact_moment_set(model, A: np.ndarray) -> MomentSet:
    """Population word moments of a topic model with simplex prior ``model``.

    Useful as an oracle: the learning pipeline run on this set must recover
    the columns of ``A`` up to permutation.
    """
    from .nid import moment_matrix, moment_tensor, moment_vector

    A = np.asarray(A, dtype=float)
    m1h = moment_vector(model)
    m2h = moment_matrix(model)
    t3h = moment_tensor(model)
    m1 = A @ m1h
    m2 = _symmetric_operator(A.shape[0], lambda X: A @ (m2h @ (A.T @ X)))

    def triple(W1, W2, W3):
        return np.einsum("abc,ai,bj,cl->ijl", t3h, A.T @ W1, A.T @ W2, A.T @ W3)

    return MomentSet(m1=m1, m2=m2, triple=triple, doc_count=0)


def build_m2(ms: MomentSet, w: Weights) -> LinearOperator:
    """Centered second moment  E[x1 (x) x2] + v E[x1] (x) E[x2], as an operator."""
    m2, m1, v = ms.m2, ms.m1, w.v
    return _symmetric_operator(m1.size, lambda X: m2 @ X + v * np.outer(m1, m1 @ X))


def build_whitened_m3(ms: MomentSet, w: Weights, whitener: np.ndarray) -> np.ndarray:
    """Centered third moment contracted on all modes with the whitener.

    Assembled entirely in k^3 space; the output is symmetrized exactly.
    """
    W = np.asarray(whitener, dtype=float)
    if W.shape[0] != ms.m1.size:
        raise ValueError(f"whitener has {W.shape[0]} rows, expected {ms.m1.size}")
    u = W.T @ ms.m1
    g = W.T @ (ms.m2 @ W)
    t = ms.triple(W, W, W)
    t = t + w.v2 * np.einsum("i,j,l->ijl", u, u, u)
    t += w.v1 * (np.einsum("ij,l->ijl", g, u)
                 + np.einsum("il,j->ijl", g, u)
                 + np.einsum("jl,i->ijl", g, u))
    # exact symmetry, killing the float asymmetry of the streamed term
    t = (t + t.transpose(0, 2, 1) + t.transpose(1, 0, 2)
         + t.transpose(1, 2, 0) + t.transpose(2, 0, 1) + t.transpose(2, 1, 0)) / 6.0
    return t
