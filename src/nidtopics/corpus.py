"""Sparse bag-of-words corpora."""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass
class Corpus:
    """Document collection as a sparse (n_docs, d) count matrix."""

    counts: sp.csr_matrix

    def __post_init__(self):
        import scipy.sparse as sp

        # sum_duplicates sorts and sums in place, so it must not see the caller's arrays
        mat = sp.csr_matrix(self.counts, copy=True)
        mat.sum_duplicates()
        if mat.nnz and (not np.issubdtype(mat.dtype, np.integer)):
            data = mat.data
            if not np.all(data == np.round(data)):
                raise ValueError("counts must be integers")
        mat = mat.astype(np.int64, copy=False)
        if mat.nnz and mat.data.min() <= 0:
            raise ValueError("counts must be positive")
        self.counts = mat

    @property
    def n_docs(self) -> int:
        return self.counts.shape[0]

    @property
    def d(self) -> int:
        return self.counts.shape[1]

    def doc_lengths(self) -> np.ndarray:
        return np.asarray(self.counts.sum(axis=1)).ravel()

    def doc_words(self, i: int) -> np.ndarray:
        """Word ids of document i expanded to a flat array (length N_i)."""
        row = self.counts.getrow(i)
        return np.repeat(row.indices, row.data)

    def subset(self, indices: Sequence[int]) -> "Corpus":
        idx = np.asarray(indices, dtype=int)
        return Corpus(self.counts[idx])


def corpus_from_docs(docs: Iterable[dict | Sequence], d: int) -> Corpus:
    """Build a corpus from per-document {word_id: count} mappings
    or (word_ids, counts) pairs."""
    import scipy.sparse as sp

    rows, cols, data = [], [], []
    n = 0
    for i, doc in enumerate(docs):
        n = i + 1
        items = doc.items() if isinstance(doc, dict) else zip(*doc)
        for w, c in items:
            rows.append(i)
            cols.append(int(w))
            data.append(int(c))
    mat = sp.csr_matrix((data, (rows, cols)), shape=(n, d), dtype=np.int64)
    return Corpus(mat)
