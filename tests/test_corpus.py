import numpy as np
import pytest
import scipy.sparse as sp

from nidtopics import Corpus


@pytest.mark.parametrize("data, indices, indptr", [
    ([1, 2, 3, 4], [2, 0, 2, 1], [0, 3, 4]),   # unsorted, word 2 twice in document 0
    ([2, 4, 4], [0, 2, 1], [0, 2, 3]),         # already canonical
], ids=["duplicates", "canonical"])
def test_corpus_leaves_the_callers_matrix_as_it_was(data, indices, indptr):
    mat = sp.csr_matrix((np.array(data, dtype=np.int64), np.array(indices, dtype=np.int32),
                         np.array(indptr, dtype=np.int32)), shape=(2, 3))
    given = (mat.data, mat.indices, mat.indptr)
    counts = Corpus(mat).counts
    for array, original in zip(given, (data, indices, indptr)):
        assert np.array_equal(array, original)
    assert counts.dtype == np.int64
    assert np.array_equal(counts.indptr, [0, 2, 3])
    assert np.array_equal(counts.indices, [0, 2, 1])
    assert np.array_equal(counts.data, [2, 4, 4])
    assert not any(np.shares_memory(a, b) for a in given
                   for b in (counts.data, counts.indices, counts.indptr))
