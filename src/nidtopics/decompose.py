"""Whitening, robust tensor power iteration, and topic recovery.

The learning pipeline: center the pair moment, whiten it down to topic
dimension, contract the centered third moment with the whitener, strip off
rank-one components by power iteration with deflation, then map components
back through the un-whitening matrix and renormalize onto the simplex.
Concentration parameters come from the first moment: the prior mean of the
topic proportions is alpha / alpha0 for every shared-exponent family, so a
nonnegative least-squares fit of the word mean through A gives the relative
weights, scaled by a user-supplied (or fitted) total concentration.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np
from scipy.optimize import minimize_scalar, nnls
from scipy.sparse.linalg import LinearOperator, aslinearoperator, eigsh

from .corpus import Corpus
from .families import IDFamily
from .moments import MomentSet, accumulate, build_m2, build_whitened_m3
from .weights import Weights, compute_weights


class RankDeficiencyError(RuntimeError):
    pass


class RecoveryError(RuntimeError):
    pass


class StageError(RuntimeError):
    """Wraps a failure with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


@dataclass(frozen=True)
class PowerMethodConfig:
    n_restarts: int = 30
    n_iterations: int = 100
    conv_tol: float = 1e-8
    eig_floor: float = 1e-10     # |eigenvalue| below floor * max(1, ||T||_F) ends the rank
    seed: int = 0


@dataclass
class DecompositionResult:
    """Rank-one components of a whitened symmetric tensor.

    ``eigenvalues`` live in whitened space; ``kappas``/``lambdas`` are the
    pair/triple weights in the original basis, filled in by ``recover``.
    """

    components: np.ndarray          # (n_found, k) orthonormal rows
    eigenvalues: np.ndarray         # (n_found,)
    residual: float
    restarts_used: int
    kappas: Optional[np.ndarray] = None
    lambdas: Optional[np.ndarray] = None
    exhausted: bool = False
    converged: bool = True

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


@dataclass
class TopicModel:
    """Column-stochastic topic-word matrix with its simplex prior."""

    A: np.ndarray
    alpha: np.ndarray
    family: IDFamily
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.A.ndim != 2:
            raise ValueError("A must be a (d, k) matrix")
        if self.alpha.shape != (self.A.shape[1],):
            raise ValueError("alpha length must match the number of topics")
        if np.any(self.A < -1e-12) or np.any(np.abs(self.A.sum(axis=0) - 1.0) > 1e-8):
            raise ValueError("columns of A must be probability vectors")
        if np.any(self.alpha <= 0.0):
            raise ValueError("alpha entries must be positive")
        if min(self.A.shape) > 0:
            sv = np.linalg.svd(self.A, compute_uv=False)
            self.diagnostics.setdefault("min_singular_value", float(sv[-1]))

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.A.shape[1]

    @property
    def alpha0(self) -> float:
        return float(self.alpha.sum())


def whiten(M2, k: int, return_spectrum: bool = False):
    """Top-k whitening pair (W, Winv_t) with W.T @ M2 @ W = I_k.

    ``M2`` is a symmetric (d, d) ndarray or ``LinearOperator``.  The top-k
    eigenpairs come from Lanczos (``eigsh``) started at a fixed seeded
    vector, so the output is deterministic; only k == d, which ARPACK cannot
    do, materializes ``M2 @ I`` for a dense ``eigh``.  The rank cut is
    relative: eigenvalue k must be positive and above 1e-10 times the top one.
    Winv_t maps whitened vectors back: Winv_t = U_k diag(s_k)^(1/2).
    """
    if not isinstance(M2, LinearOperator):
        M2 = np.asarray(M2, dtype=float)
    if M2.ndim != 2 or M2.shape[0] != M2.shape[1]:
        raise ValueError("M2 must be square")
    if isinstance(M2, np.ndarray):
        M2 = 0.5 * (M2 + M2.T)
    d = M2.shape[0]
    if k < 1 or k > d:
        raise ValueError(f"k={k} out of range for d={d}")
    if k == d:
        evals, evecs = np.linalg.eigh(M2 @ np.eye(d))
    else:
        v0 = np.random.default_rng(0).standard_normal(d)
        evals, evecs = eigsh(aslinearoperator(M2), k, which="LA", v0=v0)
    order = np.argsort(evals)[::-1][:k]
    evals = evals[order]
    evecs = evecs[:, order]
    if not evals[-1] > max(0.0, 1e-10 * evals[0]):
        prev = evals[-2] if k >= 2 else float("inf")
        raise RankDeficiencyError(
            f"eigenvalue {k} of the pair moment is {evals[-1]:.3e} "
            f"(eigenvalue {k - 1} is {prev:.3e}, eigenvalue 1 is {evals[0]:.3e}); "
            f"cannot whiten to rank {k}")
    root = np.sqrt(evals)
    if return_spectrum:
        return evecs / root, evecs * root, evals
    return evecs / root, evecs * root


def _tensor_apply(T: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """T(I, u, u) for each column u of theta."""
    return np.einsum("ijl,jm,lm->im", T, theta, theta)


def _rayleigh(T: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return np.einsum("ijl,im,jm,lm->m", T, theta, theta, theta)


def decompose(T: np.ndarray, config: PowerMethodConfig = PowerMethodConfig(),
              k: Optional[int] = None) -> DecompositionResult:
    """Greedy rank-one extraction from a symmetric tensor.

    Per component: random restarts are power-iterated in parallel, the
    restart with the largest |T(u,u,u)| wins (ties broken by restart index),
    gets polished to convergence and is deflated.  Stops early when the next
    eigenvalue falls below the floor.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 3 or len(set(T.shape)) != 1:
        raise ValueError("T must be a cubic third-order tensor")
    dim = T.shape[0]
    if k is None:
        k = dim
    rng = np.random.default_rng(config.seed)
    floor = config.eig_floor * max(1.0, float(np.linalg.norm(T)))

    work = T.copy()
    comps, eigs = [], []
    restarts_used = 0
    exhausted = False
    converged = True
    for _ in range(k):
        theta = rng.standard_normal((dim, config.n_restarts))
        theta /= np.linalg.norm(theta, axis=0, keepdims=True)
        restarts_used += config.n_restarts
        for _ in range(config.n_iterations):
            new = _tensor_apply(work, theta)
            norms = np.linalg.norm(new, axis=0)
            norms[norms == 0.0] = 1.0
            new /= norms
            shift = np.linalg.norm(new - theta, axis=0).max()
            theta = new
            if shift < config.conv_tol:
                break
        lam = _rayleigh(work, theta)
        best = int(np.argmax(np.abs(lam)))
        u = theta[:, best].copy()
        ok = False
        for _ in range(config.n_iterations):
            nxt = np.einsum("ijl,j,l->i", work, u, u)
            n = np.linalg.norm(nxt)
            if n == 0.0:
                break
            nxt /= n
            if np.linalg.norm(nxt - u) < config.conv_tol:
                u = nxt
                ok = True
                break
            u = nxt
        if not ok:
            converged = False
        lam_u = float(np.einsum("ijl,i,j,l->", work, u, u, u))
        if abs(lam_u) < floor:
            exhausted = True
            break
        comps.append(u)
        eigs.append(lam_u)
        work -= lam_u * np.einsum("i,j,l->ijl", u, u, u)

    components = np.array(comps) if comps else np.zeros((0, dim))
    return DecompositionResult(
        components=components,
        eigenvalues=np.array(eigs),
        residual=float(np.linalg.norm(work)),
        restarts_used=restarts_used,
        exhausted=exhausted,
        converged=converged,
    )


def recover(dr: DecompositionResult, Winv_t: np.ndarray, m1: np.ndarray,
            family: IDFamily, alpha0: Union[float, str]) -> TopicModel:
    """Map whitened components back to word space and read off the prior.

    Component signs are fixed so each un-whitened column has positive sum;
    the squared sum is the pair-moment weight kappa_j and lambda_j follows
    from the whitened eigenvalue.  alpha0 may be the string "fit", in which
    case it is chosen so the model's kappa spectrum matches the recovered one.
    """
    if dr.n_components == 0:
        raise RecoveryError("decomposition produced no components")
    B = Winv_t @ dr.components.T
    sums = B.sum(axis=0)
    signs = np.where(sums >= 0.0, 1.0, -1.0)
    B *= signs
    sums = np.abs(sums)
    kappas = sums**2
    lambdas = dr.eigenvalues * signs * sums**3

    A = np.clip(B, 0.0, None)
    col_mass = A.sum(axis=0)
    degenerate = [int(j) for j in np.nonzero(col_mass <= 0.0)[0]]
    for j in degenerate:
        A[:, j] = 1.0 / A.shape[0]
        col_mass[j] = 1.0
    A /= col_mass

    hhat, rnorm = nnls(A, np.asarray(m1, dtype=float))
    if hhat.sum() <= 0.0:
        hhat = np.full(A.shape[1], 1.0 / A.shape[1])
    hhat = hhat / hhat.sum()
    hhat = np.clip(hhat, 1e-12, None)
    hhat /= hhat.sum()

    if alpha0 == "fit":
        alpha0 = _fit_alpha0(family, hhat, kappas)
    alpha0 = float(alpha0)
    if alpha0 <= 0.0:
        raise RecoveryError(f"alpha0 must be positive, got {alpha0}")
    alpha = alpha0 * hhat

    dr.kappas = kappas
    dr.lambdas = lambdas
    diagnostics = {
        "kappas": kappas,
        "lambdas": lambdas,
        "whitened_eigenvalues": dr.eigenvalues * signs,
        "mean_fit_residual": float(rnorm),
    }
    if degenerate:
        diagnostics["degenerate_columns"] = degenerate
    return TopicModel(A=A, alpha=alpha, family=family, diagnostics=diagnostics)


def _fit_alpha0(family: IDFamily, hhat: np.ndarray, kappas: np.ndarray) -> float:
    """1-D fit of the total concentration from the pair-moment weights.

    For candidate a0 the model predicts kappa_j = E[h_j^2] + v E[h_j]^2 with
    alpha = a0 * hhat; minimize the squared mismatch over log a0.
    """
    from .nid import NIDModel, moment

    k = hhat.size

    def loss(log_a0: float) -> float:
        a0 = float(np.exp(log_a0))
        model = NIDModel(family, a0 * hhat)
        w = compute_weights(family, a0)
        pred = np.empty(k)
        for j in range(k):
            r = np.zeros(k, dtype=int)
            r[j] = 2
            pred[j] = moment(model, r) + w.v * hhat[j] ** 2
        return float(np.sum((pred - kappas) ** 2))

    res = minimize_scalar(loss, bounds=(np.log(1e-2), np.log(1e3)), method="bounded",
                          options={"xatol": 1e-4})
    return float(np.exp(res.x))


@dataclass
class LearnConfig:
    power: PowerMethodConfig = field(default_factory=PowerMethodConfig)
    strict_short_docs: bool = False
    small_eig_ratio: float = 0.05   # flag components this small vs the largest


def learn(corpus: Corpus, family: IDFamily, k: int, alpha0: Union[float, str],
          config: Optional[LearnConfig] = None, threads: int = 1,
          weights_override: Optional[Weights] = None) -> TopicModel:
    """Full pipeline from a corpus to a TopicModel.

    Any stage failure is re-raised as StageError naming the stage.  With
    alpha0="fit" the centering weights are computed at total concentration 1
    and the fit happens at recovery; rerun with the fitted value if the
    weights themselves should reflect it.
    """
    config = config or LearnConfig()
    if corpus.n_docs == 0:
        raise StageError("input", ValueError("empty corpus"))
    if k > corpus.d:
        raise StageError("input", ValueError(f"k={k} exceeds vocabulary size {corpus.d}"))

    with _stage("weights"):
        if weights_override is not None:
            w = weights_override
        else:
            a0_for_weights = 1.0 if alpha0 == "fit" else float(alpha0)
            w = compute_weights(family, a0_for_weights)
    with _stage("moments"):
        ms = accumulate(corpus, strict=config.strict_short_docs, threads=threads)
    return learn_from_moments(ms, family, k, alpha0, w, config)


def learn_from_moments(ms: MomentSet, family: IDFamily, k: int,
                       alpha0: Union[float, str], weights: Weights,
                       config: Optional[LearnConfig] = None) -> TopicModel:
    """Pipeline tail for callers that already hold a MomentSet."""
    config = config or LearnConfig()
    with _stage("m2"):
        m2 = build_m2(ms, weights)
    with _stage("whiten"):
        W, Winv_t, m2_spectrum = whiten(m2, k, return_spectrum=True)
    with _stage("m3"):
        t = build_whitened_m3(ms, weights, W)
    with _stage("decompose"):
        dr = decompose(t, config.power, k=k)
    with _stage("recover"):
        model = recover(dr, Winv_t, ms.m1, family, alpha0)

    model.diagnostics["residual"] = dr.residual
    model.diagnostics["weights"] = (weights.v, weights.v1, weights.v2)
    model.diagnostics["m2_spectrum"] = m2_spectrum
    flags = []
    if dr.exhausted or dr.n_components < k:
        flags.append(f"rank_exhausted_at_{dr.n_components + 1}")
    if m2_spectrum[-1] < config.small_eig_ratio * m2_spectrum[0]:
        flags.append("small_pair_eigenvalue")
    lam_abs = np.abs(dr.eigenvalues)
    if lam_abs.size and lam_abs.min() < config.small_eig_ratio * lam_abs.max():
        flags.append("small_eigenvalue")
    if not dr.converged:
        flags.append("power_iteration_not_converged")
    if flags:
        model.diagnostics["flags"] = flags
    return model
