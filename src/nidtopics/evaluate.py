"""Held-out scoring: likelihood perplexity and PMI topic coherence.

The document likelihood has no closed form under these priors, so it is
estimated by Monte Carlo over the prior: p(doc) ~ mean_s prod_n (A h_s)_{w_n}
with h_s drawn from the model's simplex prior.  One shared batch of prior
draws scores every document, which keeps comparisons across models at equal
seeds meaningful.  Perplexity is exp of the negative per-word average of the
log likelihood estimates.

Cost.  ``perplexity`` builds log(A h^T), d x S for S prior draws, multiplies
the sparse (n_docs, d) counts by it and takes a log-mean-exp per document.
Both steps run in blocks of 128 rows, words and then documents: the calling
thread and one helper thread per further usable core (``os.sched_getaffinity``)
take blocks until none are left, and the helpers are joined before
``perplexity`` returns.  log(A h^T) is built in place by ``np.einsum``, not
BLAS: OpenBLAS keeps its threads spinning after a threaded product, and they
would compete with the scoring threads.  Each document block writes its log
likelihoods into one preallocated array, which is summed in fixed slices of
2048 documents, so the value does not depend on the thread count.  Memory is
log(A h^T), that array and, per thread, one 128 x S block of scores at a
time; glibc keeps what each helper thread frees in that thread's malloc
arena, about 1 MB at S = 512.
"""
from __future__ import annotations

import logging
import os
import threading
from itertools import combinations
from typing import TYPE_CHECKING, Callable

import numpy as np

from .corpus import Corpus
from .decompose import TopicModel
from .nid import NIDModel, sample

if TYPE_CHECKING:
    from concurrent.futures import Executor

log = logging.getLogger(__name__)

_LOG_FLOOR = np.log(1e-300)
_BLOCK = 128        # rows (words of log(A h), documents scored) one thread takes at a time
_SUM_CHUNK = 2048   # documents per partial sum of the log likelihoods
_PMI_ROWS = 1024    # documents per dense block of the PMI co-occurrence sum


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

    lengths = corpus.doc_lengths()
    total_words = float(lengths.sum())
    if total_words == 0:
        raise ValueError("corpus has no words")

    log_ah = np.empty((model.d, n_h_samples))  # -inf where a topic mix misses a word
    logp = np.empty(corpus.n_docs)

    # np.errstate is per thread, so each block sets its own
    def fill_log_ah(rows: slice) -> None:
        with np.errstate(divide="ignore"):
            np.einsum("wk,sk->ws", model.A[rows], h, out=log_ah[rows])
            np.log(log_ah[rows], out=log_ah[rows])

    def score(rows: slice) -> None:
        with np.errstate(invalid="ignore"):   # a row that is -inf throughout gives nan
            scores = corpus.counts[rows] @ log_ah  # (m, S) sums of c_w log(A h)_w
            top = scores.max(axis=1)
            scores -= top[:, None]
            logp[rows] = (top + np.log(np.exp(scores, out=scores).sum(axis=1))
                          - np.log(n_h_samples))

    from concurrent.futures import ThreadPoolExecutor
    n_helpers = len(os.sched_getaffinity(0)) - 1
    with ThreadPoolExecutor(max_workers=max(n_helpers, 1)) as pool:
        _share_blocks(fill_log_ah, model.d, pool, n_helpers)
        _share_blocks(score, corpus.n_docs, pool, n_helpers)

    bad = ~np.isfinite(logp)
    floored = int(bad.sum())
    logp[bad] = _LOG_FLOOR
    if floored:
        log.warning("perplexity: %d document(s) had zero probability under all "
                    "prior samples; floored at 1e-300", floored)
    # summed in the same slices at any thread count, so the value is too
    total_logp = 0.0
    for start in range(0, corpus.n_docs, _SUM_CHUNK):
        total_logp += float(logp[start:start + _SUM_CHUNK].sum())
    return float(np.exp(-total_logp / total_words))


def _share_blocks(work: Callable[[slice], None], n_rows: int, pool: Executor,
                  n_helpers: int) -> None:
    """work(rows) for every block of ``_BLOCK`` rows in range(n_rows).

    The calling thread and up to ``n_helpers`` tasks on ``pool`` take blocks
    until none are left.  Returns once every block is done; an error raised
    in any of those threads is raised here.
    """
    starts = range(0, n_rows, _BLOCK)
    next_start = iter(starts)
    lock = threading.Lock()

    def take() -> None:
        while True:
            with lock:
                start = next(next_start, None)
            if start is None:
                return
            work(slice(start, start + _BLOCK))

    helpers = [pool.submit(take) for _ in range(min(n_helpers, len(starts) - 1))]
    take()
    for future in helpers:
        future.result()


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

    # presence of the needed words, summed over blocks of _PMI_ROWS documents
    # so only one dense block exists at a time; float64 makes each block's
    # co-occurrence product a BLAS matmul, and the counts stay far below
    # 2^53, so every entry is exact whatever the blocking
    doc_freq = np.zeros(needed.size)
    co = np.zeros((needed.size, needed.size))
    n_docs = corpus.n_docs
    for start in range(0, n_docs, _PMI_ROWS):
        present = corpus.counts[start:start + _PMI_ROWS, needed] > 0
        block = present.astype(np.float64).toarray()
        doc_freq += block.sum(axis=0)
        co += block.T @ block

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
