"""Per-document posterior inference by exact augmented Gibbs sampling.

The per-document posterior over (h, zeta) is proportional to

    f_prior(h) * prod_i h_i^{n_i} * prod_n A[w_n, zeta_n],

where n_i counts words assigned to topic i and N = sum_i n_i.  Write
h = z / T with z the independent unnormalized coordinates and T = sum_i z_i,
and add a latent U | z ~ Gamma(N, rate T) (James, Lijoi & Pruenster,
Scand. J. Stat. 2009).  Given U and the counts the z_i are independent, each
with its prior law tilted to density proportional to z^{n_i} e^{-U z} f_i(z):

    gamma:lam     Gamma(alpha_i + n_i, rate lam + U)
    invgauss:lam  GIG(n_i - 1/2, lam^2 + 2U, alpha_i^2)
    stable:0.5    GIG(n_i - 1/2, 2U, alpha_i^2)

where GIG(p, a, b) has density proportional to x^(p-1) exp(-(a x + b/x) / 2)
and is drawn by Devroye's vectorised rejection sampler (``nid._gig``).  That
sampler builds its hat once per step and draws three candidates per
coordinate in one pass, keeping the first accepted: the first success in a
run of iid rejection trials has exactly the target law, so the few
coordinates with none accepted just continue their run in a further pass.
Each step draws U, then z, sets h = z / T, and resamples every topic
assignment from its multinomial full conditional, from the document's topic
rows A[w] gathered once per chain.  Every update is an exact conditional
draw, so no move is rejected, nothing needs tuning and the prior density is
never evaluated.  Other families have no closed-form tilted law and raise
``UnsupportedFamilyError``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import nid
from .decompose import TopicModel


@dataclass
class ChainState:
    h: np.ndarray
    zeta: np.ndarray
    step: int


@dataclass
class ChainResult:
    states: List[ChainState]
    # kept for callers of the former Metropolis sampler; every Gibbs update
    # is accepted
    acceptance_rate: float = 1.0


def run_chain(doc, model: TopicModel, n_steps: int, burn_in: int,
              proposal_concentration: float = 50.0, seed: int = 0,
              thin: int = 1) -> ChainResult:
    """Sample the per-document posterior; returns post-burn-in thinned states.

    ``proposal_concentration`` is deprecated and ignored: it tuned the
    proposal of the former Metropolis sampler.  It is still checked to be
    positive and will be removed in the next release.
    """
    if burn_in < 0:
        raise ValueError(f"burn_in must be non-negative, got {burn_in}")
    if thin < 1:
        raise ValueError(f"thin must be at least 1, got {thin}")
    if n_steps <= burn_in:
        raise ValueError("n_steps must exceed burn_in")
    if proposal_concentration <= 0.0:
        raise ValueError("proposal concentration must be positive")
    doc = np.asarray(doc, dtype=int)
    if doc.size and (doc.min() < 0 or doc.max() >= model.d):
        raise ValueError("word id out of range")
    k = model.k
    rng = np.random.default_rng(seed)
    draw_z = nid._tilted_sampler(model.family, model.alpha)
    a_doc = model.A[doc]      # the document's topic rows, gathered once

    z = np.full(k, 1.0 / k)   # start at the uniform h, with T = 1
    total = z.sum()
    zeta = _gibbs_zeta(a_doc, z, rng)
    states: List[ChainState] = []
    for step in range(n_steps):
        n_i = np.bincount(zeta, minlength=k)
        u = rng.gamma(doc.size, 1.0 / total) if doc.size else 0.0
        z = draw_z(n_i, u, rng)
        total = z.sum()
        # with one topic h is 1 even where a tiny prior draw underflows z to 0
        h = z / total if k > 1 else np.ones(1)
        zeta = _gibbs_zeta(a_doc, h, rng)
        if step >= burn_in and (step - burn_in) % thin == 0:
            states.append(ChainState(h=h, zeta=zeta, step=step))
    return ChainResult(states=states)


def _gibbs_zeta(a_doc: np.ndarray, h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Resample every topic assignment from its multinomial full conditional;
    ``a_doc`` holds the topic row A[w] of each word w of the document."""
    probs = h * a_doc
    cum = np.cumsum(probs, axis=1)
    total = cum[:, -1]
    bad = total <= 0.0
    if bad.any():
        # word has zero mass under every topic at this h; fall back to uniform
        probs[bad] = 1.0
        cum = np.cumsum(probs, axis=1)
        total = cum[:, -1]
    r = rng.random(total.size) * total
    return (cum < r[:, None]).sum(axis=1)


def posterior_mean_h(result: ChainResult) -> np.ndarray:
    if not result.states:
        raise ValueError("chain produced no retained states")
    return np.mean([s.h for s in result.states], axis=0)
