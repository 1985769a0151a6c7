"""Empirical word moments and the centered tensors built from them.

Estimators are the exchangeable ordered-tuple statistics: with count vector
c and document length N, every ordered pair of distinct positions
contributes 1/(N(N-1)) to the pair matrix and every ordered triple of
distinct positions 1/(N(N-1)(N-2)) to the triple tensor; both are unbiased
for E[x1 (x) x2] and E[x1 (x) x2 (x) x3] under conditional independence
given the topic proportions.  Neither moment is materialized in vocabulary
dimension: the pair moment is a symmetric d-by-d ``LinearOperator`` applied
through the sparse counts, and the raw third moment is a contraction against
three d-by-k matrices run as BLAS matrix products over row chunks: O(nnz k +
n_docs k^3 + d k^3) time and O(nnz + n_docs k + d k + _CHUNK k^2) memory.

Documents too short for a moment order are salvaged for the lower orders
(N >= 2 feeds the pair matrix, N >= 1 the mean).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import khatri_rao
from scipy.sparse.linalg import LinearOperator

from .corpus import Corpus
from .nid import moment_matrix, moment_tensor, moment_vector
from .weights import Weights

_CHUNK = 1024


class ShortDocumentError(ValueError):
    """No document is long enough for third-order statistics."""


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


def _symmetric_operator(d: int, matmat: Callable[[np.ndarray], np.ndarray]) -> LinearOperator:
    """(d, d) symmetric operator from its action on a (d, m) block."""
    def matvec(x):
        return matmat(np.reshape(x, (d, 1))).ravel()
    return LinearOperator((d, d), matvec=matvec, rmatvec=matvec, matmat=matmat,
                          rmatmat=matmat, dtype=float)


def _pair_operator(C: sp.csr_matrix, scale: np.ndarray, n_docs: int) -> LinearOperator:
    """sum_d scale_d * (c_d (x) c_d - diag(c_d)) / n_docs, applied as
    X -> (C^T (s * (C X)) - ctilde * X) / n_docs with ctilde = C^T s."""
    ctilde = C.T @ scale

    def matmat(X):
        return (C.T @ (scale[:, None] * (C @ X)) - ctilde[:, None] * X) / n_docs

    return _symmetric_operator(C.shape[1], matmat)


def _khatri_rao_sum(X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """sum_a X_ai Y_aj Z_al as a (k1 * k2, k3) matrix, ``_CHUNK`` rows at a time."""
    t = np.zeros((X.shape[1] * Y.shape[1], Z.shape[1]))
    for i in range(0, X.shape[0], _CHUNK):
        sl = slice(i, i + _CHUNK)
        t += khatri_rao(X[sl].T, Y[sl].T) @ Z[sl]
    return t


def _make_triple(C: sp.csr_matrix, scale: np.ndarray, n_docs: int):
    """Closure contracting the distinct-position triple tensor.

    For one document the tensor is
        c (x) c (x) c  -  three pairings of diag(c) with c  +  2 superdiag(c).
    With P_i = C W_i and R_i = C^T (s * P_i) every term is a matrix product:
    the main term sums khatri_rao(s * P1, P2)^T P3 over documents, and the
    pairings and the superdiagonal sum khatri_rao products of W_i, R_i and
    ctilde * W_i over the vocabulary.  Cost O(nnz * k + n_docs * k^3 + d * k^3)
    time and O(nnz + n_docs * k + d * k + _CHUNK * k^2) memory.
    """
    ctilde = C.T @ scale

    def triple(W1: np.ndarray, W2: np.ndarray, W3: np.ndarray) -> np.ndarray:
        d = C.shape[1]
        for W in (W1, W2, W3):
            if W.shape[0] != d:
                raise ValueError(f"contraction matrix has {W.shape[0]} rows, expected {d}")
        sP1, P2, P3 = scale[:, None] * (C @ W1), C @ W2, C @ W3
        R1, R2, R3 = C.T @ sP1, C.T @ (scale[:, None] * P2), C.T @ (scale[:, None] * P3)
        t = _khatri_rao_sum(sP1, P2, P3)
        t += _khatri_rao_sum(W1, W2, 2.0 * ctilde[:, None] * W3 - R3)
        t -= _khatri_rao_sum(W1, R2, W3)
        t -= _khatri_rao_sum(R1, W2, W3)
        return t.reshape(W1.shape[1], W2.shape[1], W3.shape[1]) / n_docs

    return triple


def accumulate(corpus: Corpus) -> MomentSet:
    """Average the per-document unbiased moment statistics over a corpus."""
    if corpus.n_docs == 0:
        raise ValueError("empty corpus")
    lengths = corpus.doc_lengths().astype(float)

    # one float copy of the counts, sharing the corpus's index arrays
    counts = corpus.counts
    C = sp.csr_matrix((counts.data.astype(float), counts.indices, counts.indptr),
                      shape=counts.shape)
    has1 = lengths >= 1
    if not np.any(has1):
        raise ValueError("corpus has no non-empty documents")
    inv_len = np.where(has1, 1.0 / np.maximum(lengths, 1.0), 0.0)
    m1 = (C.T @ inv_len) / has1.sum()

    has2 = lengths >= 2
    if not np.any(has2):
        raise ValueError("no documents with at least 2 words; cannot form pair moments")
    pair_scale = np.where(has2, 1.0 / np.maximum(lengths * (lengths - 1.0), 1.0), 0.0)
    m2 = _pair_operator(C, pair_scale, int(has2.sum()))

    has3 = lengths >= 3
    n3 = int(has3.sum())
    if n3 == 0:
        raise ShortDocumentError("no documents with at least 3 words; "
                                 "third-order statistics undefined")
    triple_scale = np.where(
        has3, 1.0 / np.maximum(lengths * (lengths - 1.0) * (lengths - 2.0), 1.0), 0.0)
    triple = _make_triple(C, triple_scale, n3)

    return MomentSet(m1=m1, m2=m2, triple=triple)


def exact_moment_set(model, A: np.ndarray) -> MomentSet:
    """Population word moments of a topic model with simplex prior ``model``.

    Useful as an oracle: the learning pipeline run on this set must recover
    the columns of ``A`` up to permutation.
    """
    A = np.asarray(A, dtype=float)
    m1h = moment_vector(model)
    m2h = moment_matrix(model)
    t3h = moment_tensor(model)
    m1 = A @ m1h
    m2 = _symmetric_operator(A.shape[0], lambda X: A @ (m2h @ (A.T @ X)))

    def triple(W1, W2, W3):
        return np.einsum("abc,ai,bj,cl->ijl", t3h, A.T @ W1, A.T @ W2, A.T @ W3,
                         optimize=True)

    return MomentSet(m1=m1, m2=m2, triple=triple)


def project_moments(ms: MomentSet, V: np.ndarray) -> MomentSet:
    """The moments seen through the k columns of V: a k-dimensional MomentSet.

    m1 becomes V^T m1, the pair moment V^T M2 V and the triple T(V, V, V), the
    one call of ``ms.triple``; every later contraction of the projected triple
    is a k^4 ``einsum``.  When span(V) holds the topics and the mean, centring
    and whitening the projection equals doing so in word space.
    """
    t = ms.triple(V, V, V)
    g = V.T @ (ms.m2 @ V)
    g = 0.5 * (g + g.T)

    def triple(W1, W2, W3):
        return np.einsum("abc,ai,bj,cl->ijl", t, W1, W2, W3, optimize=True)

    return MomentSet(m1=V.T @ ms.m1, m2=_symmetric_operator(g.shape[0], lambda X: g @ X),
                     triple=triple)


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
