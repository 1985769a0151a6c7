"""Small shared helpers: column matching."""
from __future__ import annotations

import numpy as np


def match_columns(estimate: np.ndarray, truth: np.ndarray):
    """Best column assignment between two (d, k) matrices under l1 distance.

    Returns (perm, errors) where estimate[:, perm[j]] is matched to
    truth[:, j] and errors[j] is the l1 distance of that pair.
    """
    from scipy.optimize import linear_sum_assignment

    est = np.asarray(estimate, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch {est.shape} vs {tru.shape}")
    k = est.shape[1]
    cost = np.zeros((k, k))
    for j in range(k):
        cost[j] = np.abs(est - tru[:, j][:, None]).sum(axis=0)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(k, dtype=int)
    perm[rows] = cols
    errors = cost[rows, cols]
    return perm, errors
