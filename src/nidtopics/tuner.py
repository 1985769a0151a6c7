"""Hyperparameter search over simplex-prior families.

Candidates are (family, alpha0) pairs.  The train split's moments are
accumulated and projected once (``decompose.project``: Lanczos and the one
triple contraction); each candidate then only runs the k-dimensional model
stage, which takes its centering weights from the candidate's (family,
alpha0), so its model is bit for bit the one ``learn`` gives on the train
split.  The winner minimizes Monte-Carlo perplexity on the validation split
(ties broken by candidate order).  Searching family parameters rather than
raw weight triples keeps every candidate a genuine simplex prior.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .corpus import Corpus
from .decompose import StageError, TopicModel, _check_alpha0, _learn_projected, project
from .evaluate import perplexity
from .families import IDFamily
from .moments import accumulate
from .weights import Weights


class TunerError(RuntimeError):
    pass


@dataclass(frozen=True)
class TuneCandidate:
    family: IDFamily
    alpha0: float


@dataclass
class TuneRow:
    candidate: TuneCandidate
    weights: Optional[Weights]
    val_perplexity: float
    residual: float
    error: Optional[str] = None


@dataclass
class TuneReport:
    rows: List[TuneRow]
    best_index: int
    train_docs: np.ndarray
    val_docs: np.ndarray

    def as_table(self) -> List[dict]:
        out = []
        for row in self.rows:
            w = row.weights
            out.append({
                "family": row.candidate.family.spec(),
                "alpha0": row.candidate.alpha0,
                "v": w.v if w else float("nan"),
                "v1": w.v1 if w else float("nan"),
                "v2": w.v2 if w else float("nan"),
                "perplexity": row.val_perplexity,
                "residual": row.residual,
                "error": row.error or "",
            })
        return out


def split_corpus(corpus: Corpus, split: float, seed: int):
    """Deterministic shuffled train/validation split of document indices."""
    if not 0.0 < split < 1.0:
        raise ValueError("split fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(corpus.n_docs)
    n_train = max(1, int(round(split * corpus.n_docs)))
    n_train = min(n_train, corpus.n_docs - 1)
    return perm[:n_train], perm[n_train:]


def tune(corpus: Corpus, k: int,
         search_space: Sequence[Union[TuneCandidate, Tuple[IDFamily, float]]],
         split: float = 0.8, seed: int = 0,
         n_h_samples: int = 256) -> Tuple[TopicModel, TuneReport]:
    """Fit every candidate on the train split, pick the best validation perplexity."""
    candidates = [c if isinstance(c, TuneCandidate) else TuneCandidate(*c)
                  for c in search_space]
    if not candidates:
        raise TunerError("empty search space")
    # checked before the corpus stage, which every candidate shares
    for cand in candidates:
        try:
            _check_alpha0(cand.alpha0)
        except (StageError, TypeError) as exc:
            raise TunerError(f"{cand.family.spec()}@{cand.alpha0}: {exc}") from exc
    if n_h_samples < 1:
        raise TunerError(f"n_h_samples must be at least 1, got {n_h_samples}")
    train_idx, val_idx = split_corpus(corpus, split, seed)
    train = corpus.subset(train_idx)
    val = corpus.subset(val_idx)
    try:
        projected = project(accumulate(train), k)
    except (StageError, ValueError) as exc:  # shared by every candidate, so every one fails
        raise TunerError(f"every candidate failed: {exc}") from exc

    def evaluate(cand: TuneCandidate) -> Tuple[TuneRow, Optional[TopicModel]]:
        try:
            model = _learn_projected(projected, cand.family, cand.alpha0)
            perp = perplexity(model, val, n_h_samples=n_h_samples, seed=seed)
            row = TuneRow(cand, model.diagnostics["weights"], perp, model.diagnostics["residual"])
            return row, model
        except Exception as exc:  # candidate failure is data, not a crash
            return TuneRow(cand, None, float("inf"), float("inf"), error=str(exc)), None

    results = [evaluate(c) for c in candidates]
    rows = [r for r, _ in results]
    models = [m for _, m in results]
    if all(r.error for r in rows):
        details = "; ".join(f"{r.candidate.family.spec()}@{r.candidate.alpha0}: {r.error}"
                            for r in rows)
        raise TunerError(f"every candidate failed: {details}")
    perps = np.array([r.val_perplexity for r in rows])
    best = int(np.argmin(perps))  # first minimum wins ties, i.e. search-space order
    report = TuneReport(rows=rows, best_index=best,
                        train_docs=train_idx, val_docs=val_idx)
    return models[best], report
