"""Empirical word moments, their projection onto k columns, and the centred
k-dimensional tensors built from them.

Estimators are the exchangeable ordered-tuple statistics: with count vector
c and document length N, every ordered pair of distinct positions
contributes 1/(N(N-1)) to the pair matrix and every ordered triple of
distinct positions 1/(N(N-1)(N-2)) to the triple tensor; both are unbiased
for E[x1 (x) x2] and E[x1 (x) x2 (x) x3] under conditional independence
given the topic proportions.  Neither moment is materialized in vocabulary
dimension: the pair moment is a symmetric d-by-d ``LinearOperator`` applied
through the sparse counts, and the raw third moment is contracted on all
three modes with one d-by-k matrix, run as BLAS matrix products over row
chunks of ``_CHUNK``: O(nnz k + n_docs k^3 + d k^3) time and
O(nnz + n_docs k + d k + _CHUNK k) memory, the last term being the scratch
of the chunked products.

``project_moments`` sees the moments through k columns once; what follows
(centring with one family's weights, contraction with a whitener) is dense
linear algebra on (k,), (k, k) and (k, k, k) arrays.

Documents too short for a moment order are salvaged for the lower orders
(N >= 2 feeds the pair matrix, N >= 1 the mean).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .corpus import Corpus
from .nid import moment_matrix, moment_tensor, moment_vector
from .weights import Weights

if TYPE_CHECKING:
    import scipy.sparse as sp
    from scipy.sparse.linalg import LinearOperator

_CHUNK = 1024


class ShortDocumentError(ValueError):
    """No document is long enough for third-order statistics."""


@dataclass
class MomentSet:
    """First word moment, pair-moment operator and streamed triple contraction.

    ``m2`` is the raw pair moment E[x1 (x) x2] as a symmetric (d, d)
    ``LinearOperator``: ``ms.m2 @ X`` costs O(nnz * X.shape[1]) and the d-by-d
    matrix never exists (``ms.m2 @ np.eye(d)`` materializes it for small d).
    ``triple(V)`` contracts the raw third-order moment on all three modes
    with one (d, k) matrix and returns the symmetric (k, k, k) array
    T(V, V, V).
    """

    m1: np.ndarray
    m2: LinearOperator
    triple: Callable[[np.ndarray], np.ndarray]


@dataclass
class Projection:
    """The moments seen through the k columns of ``basis``, as dense arrays.

    One projection serves every centring: ``build_m2`` and
    ``build_whitened_m3`` need only ``u``, ``g`` and ``t``.
    """

    m1: np.ndarray          # (d,) word mean
    basis: np.ndarray       # (d, k) the projection V
    u: np.ndarray           # (k,) V^T m1
    g: np.ndarray           # (k, k) V^T M2 V, the raw pair moment
    t: np.ndarray           # (k, k, k) T(V, V, V), the raw triple


def _symmetric_operator(d: int, matmat: Callable[[np.ndarray], np.ndarray]) -> LinearOperator:
    """(d, d) symmetric operator from its action on a (d, m) block."""
    from scipy.sparse.linalg import LinearOperator

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


def _pair_weighted_sum(X: np.ndarray, Z: np.ndarray,
                       w: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_a w_a X_ai X_aj Z_al as a (k, k, k3) array, ``_CHUNK`` rows at a time.

    The sum is symmetric in (i, j), so only j >= i is formed: per chunk and
    per i, one (k - i, rows) by (rows, k3) product on the chunk's transposed
    factors, mirrored at the end.  Scratch is O(_CHUNK * (k + k3)).  ``w``
    of None weighs every row 1.
    """
    k = X.shape[1]
    t = np.zeros((k, k, Z.shape[1]))
    for a in range(0, X.shape[0], _CHUNK):
        x = np.ascontiguousarray(X[a:a + _CHUNK].T)   # (k, rows)
        wx = x if w is None else x * w[a:a + _CHUNK]
        z = Z[a:a + _CHUNK]
        for i in range(k):
            t[i, i:] += (wx[i] * x[i:]) @ z
    for i in range(k):
        t[i + 1:, i] = t[i, i + 1:]
    return t


def _make_triple(C: sp.csr_matrix, scale: np.ndarray, n_docs: int):
    """Closure contracting the distinct-position triple tensor with one (d, k) V.

    For one document the tensor is
        c (x) c (x) c  -  three pairings of diag(c) with c  +  2 superdiag(c).
    With P = C V and R = C^T (s * P) the main term sums s_a P_ai P_aj P_al
    over documents a, and each pairing is a sum of V_ai V_aj R_al over the
    vocabulary with its modes permuted.  The result is symmetrised exactly,
    here and once, so the pairings and the superdiagonal collapse into one
    sum of V_ai V_aj (2 ctilde * V - 3 R)_al: two sparse products in all.
    Both sums are symmetric in (i, j) (see ``_pair_weighted_sum``).
    Cost O(nnz * k + n_docs * k^3 + d * k^3) time and
    O(nnz + n_docs * k + d * k + _CHUNK * k) memory.
    """
    ctilde = C.T @ scale

    def triple(V: np.ndarray) -> np.ndarray:
        d = C.shape[1]
        if V.shape[0] != d:
            raise ValueError(f"contraction matrix has {V.shape[0]} rows, expected {d}")
        P = C @ V
        R = C.T @ (scale[:, None] * P)
        t = _pair_weighted_sum(P, P, scale)
        t += _pair_weighted_sum(V, 2.0 * ctilde[:, None] * V - 3.0 * R)
        t = sum(t.transpose(axes) for axes in itertools.permutations(range(3))) / 6.0
        return t / n_docs

    return triple


def accumulate(corpus: Corpus) -> MomentSet:
    """Average the per-document unbiased moment statistics over a corpus."""
    import scipy.sparse as sp

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

    def triple(V):
        B = A.T @ V
        return np.einsum("abc,ai,bj,cl->ijl", t3h, B, B, B, optimize=True)

    return MomentSet(m1=m1, m2=m2, triple=triple)


def project_moments(ms: MomentSet, V: np.ndarray) -> Projection:
    """The moments seen through the k columns of V, the one call of ``ms.triple``.

    When span(V) holds the topics and the mean, centring and whitening the
    projection equals doing so in word space; ``V = np.eye(d)`` keeps the
    whole word space for small d.
    """
    g = V.T @ (ms.m2 @ V)
    return Projection(m1=ms.m1, basis=V, u=V.T @ ms.m1, g=0.5 * (g + g.T), t=ms.triple(V))


def build_m2(p: Projection, w: Weights) -> np.ndarray:
    """Centered second moment  E[x1 (x) x2] + v E[x1] (x) E[x2], seen through V."""
    return p.g + w.v * np.outer(p.u, p.u)


def build_whitened_m3(p: Projection, w: Weights, whitener: np.ndarray) -> np.ndarray:
    """Centered third moment, seen through V, contracted on all modes with the whitener.

    The centring is added to the symmetric k^3 triple, then one contraction
    with the (k, k') whitener gives the (k', k', k') whitened tensor.
    """
    W = np.asarray(whitener, dtype=float)
    u, g = p.u, p.g
    if W.shape[0] != u.size:
        raise ValueError(f"whitener has {W.shape[0]} rows, expected {u.size}")
    t = p.t + w.v2 * np.einsum("i,j,l->ijl", u, u, u)
    t += w.v1 * (np.einsum("ij,l->ijl", g, u)
                 + np.einsum("il,j->ijl", g, u)
                 + np.einsum("jl,i->ijl", g, u))
    return np.einsum("abc,ai,bj,cl->ijl", t, W, W, W, optimize=True)
