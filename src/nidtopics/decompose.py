"""Whitening, tensor power iteration, and topic recovery.

The learning pipeline runs in two stages.  The corpus stage (``project``)
takes the top-k eigenbasis of the raw pair moment by Lanczos and projects
the moments onto it, the one contraction of the streamed triple, giving
dense (k,), (k, k) and (k, k, k) arrays.  The model stage derives one
family's weights at one alpha0, centres those arrays with them, whitens
them, takes all rank-one components of the whitened third moment at once by
orthogonalised power iteration, then maps the components back through the
basis and the un-whitening matrix and renormalizes onto the simplex.
Concentration parameters come from the first moment: the prior mean of the
topic proportions is alpha / alpha0 for every shared-exponent family, so a
nonnegative least-squares fit of the word mean through A gives the relative
weights, scaled by a user-supplied (or fitted) total concentration.  The fit
reruns only the model stage: it picks the alpha0 whose centring leaves the
smallest relative residual of the whitened tensor's decomposition, and is
refused when the centring weights do not depend on alpha0 (stable priors,
for one).
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .corpus import Corpus
from .families import IDFamily
from .moments import (
    MomentSet, Projection, accumulate, build_m2, build_whitened_m3,
)
from .weights import Weights, compute_weights

_CONV_TOL = 1e-8          # power iteration stops when no column moves this far
_EIG_FLOOR = 1e-10        # |eigenvalue| below floor * max(1, ||T||_F) ends the rank
_SMALL_EIG_RATIO = 0.05   # flag eigenvalues this small vs the largest
_ALPHA0_GRID = np.geomspace(0.1, 30.0, 25)  # candidate alpha0 of the fit, refined after
_FLAT_TOL = 1e-4          # alpha0 fit refused when its weights vary less than this
_FLAT_CURVE = 0.05        # alpha0 fit flagged when its residuals vary less than this


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
    n_iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError(f"n_iterations must be at least 1, got {self.n_iterations}")


@dataclass
class DecompositionResult:
    """Rank-one components of a whitened symmetric tensor; ``eigenvalues``
    live in whitened space."""

    components: np.ndarray          # (n_found, k) unit rows
    eigenvalues: np.ndarray         # (n_found,)
    residual: float
    converged: bool = True

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def improper_columns(A: np.ndarray) -> np.ndarray:
    """Which columns of A are not probability vectors (to rounding, and NaN-safe)."""
    return ~((A >= -1e-12).all(axis=0) & (np.abs(A.sum(axis=0) - 1.0) <= 1e-8))


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
        if improper_columns(self.A).any():
            raise ValueError("columns of A must be probability vectors")
        if not np.all(np.isfinite(self.alpha) & (self.alpha > 0.0)):
            raise ValueError("alpha entries must be positive and finite")

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.A.shape[1]

    @property
    def alpha0(self) -> float:
        return float(self.alpha.sum())


def whiten(M2, k: int):
    """Top-k whitening pair (W, Winv_t) with W.T @ M2 @ W = I_k, and the top-k
    eigenvalues of M2 in descending order.

    ``M2`` is a symmetric (d, d) ndarray or ``LinearOperator``.  The top-k
    eigenpairs come from Lanczos (``eigsh``) started at a fixed seeded
    vector, so the output is deterministic; k == d, which ARPACK cannot do,
    takes a dense ``eigh``, of the ndarray itself or of ``M2 @ I`` for an
    operator.  The rank cut is relative: eigenvalue k must be positive and
    above 1e-10 times the top one.
    Winv_t maps whitened vectors back: Winv_t = U_k diag(s_k)^(1/2).
    """
    from scipy.sparse.linalg import LinearOperator, aslinearoperator, eigsh

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
        dense = M2 if isinstance(M2, np.ndarray) else M2 @ np.eye(d)
        evals, evecs = np.linalg.eigh(dense)
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
    return evecs / root, evecs * root, evals


def _tensor_apply(T: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """T(I, u, u) for each column u of theta, as one (k, k^2) matrix product."""
    k, m = theta.shape
    return T.reshape(k, k * k) @ (theta[:, None, :] * theta[None, :, :]).reshape(k * k, m)


def _rayleigh(T: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """T(u, u, u) for each column u of theta."""
    return np.sum(theta * _tensor_apply(T, theta), axis=0)


def _power_iterate(T: np.ndarray, theta: np.ndarray, n_iterations: int):
    """Power-iterate every column of theta, u <- T(I, u, u) / ||T(I, u, u)||.

    Stops once no column moves by ``_CONV_TOL``; returns the final columns
    and whether that happened within ``n_iterations`` steps.
    """
    for _ in range(n_iterations):
        new = _tensor_apply(T, theta)
        norms = np.linalg.norm(new, axis=0)
        norms[norms == 0.0] = 1.0
        new /= norms
        shift = np.linalg.norm(new - theta, axis=0).max()
        theta = new
        if shift < _CONV_TOL:
            return theta, True
    return theta, False


def decompose(T: np.ndarray, config: PowerMethodConfig = PowerMethodConfig(),
              k: Optional[int] = None) -> DecompositionResult:
    """All k rank-one components of a symmetric tensor from one seeded start.

    Orthogonalised simultaneous power iteration (Orth-ALS; Sharan & Valiant,
    ICML 2017): a random orthonormal basis U is replaced by the QR factor of
    T(I, u, u) over its columns until no column moves, then every column is
    power-iterated on its own so the components of a nearly orthogonal tensor
    may leave orthogonality.  Components with |eigenvalue| below the floor are
    dropped; the rest are ordered by |eigenvalue|, largest first.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 3 or len(set(T.shape)) != 1:
        raise ValueError("T must be a cubic third-order tensor")
    dim = T.shape[0]
    if k is None:
        k = dim
    rng = np.random.default_rng(config.seed)
    floor = _EIG_FLOOR * max(1.0, float(np.linalg.norm(T)))

    theta = np.linalg.qr(rng.standard_normal((dim, k)))[0]
    orthogonal_ok = False
    for _ in range(config.n_iterations):
        new, R = np.linalg.qr(_tensor_apply(T, theta))
        new *= np.where(np.diag(R) < 0.0, -1.0, 1.0)
        shift = np.linalg.norm(new - theta, axis=0).max()
        theta = new
        if shift < _CONV_TOL:
            orthogonal_ok = True
            break
    theta, power_ok = _power_iterate(T, theta, config.n_iterations)

    lam = _rayleigh(T, theta)
    keep = np.nonzero(np.abs(lam) >= floor)[0]
    keep = keep[np.argsort(-np.abs(lam[keep]), kind="stable")]
    components, eigenvalues = theta[:, keep].T, lam[keep]
    pairs = (components[:, :, None] * components[:, None, :]).reshape(keep.size, dim * dim)
    fitted = (components.T * eigenvalues) @ pairs
    return DecompositionResult(
        components=components,
        eigenvalues=eigenvalues,
        residual=float(np.linalg.norm(T.reshape(dim, dim * dim) - fitted)),
        converged=orthogonal_ok and power_ok,
    )


def recover(dr: DecompositionResult, Winv_t: np.ndarray, m1: np.ndarray,
            family: IDFamily, alpha0: float) -> TopicModel:
    """Map whitened components back to word space and read off the prior.

    Component signs are fixed so each un-whitened column has positive sum;
    the squared sum is the pair-moment weight kappa_j and lambda_j follows
    from the whitened eigenvalue.  alpha is alpha0 times the nonnegative
    least-squares fit of m1 through A, renormalized onto the simplex.
    """
    from scipy.optimize import nnls

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

    alpha0 = float(alpha0)
    if alpha0 <= 0.0:
        raise RecoveryError(f"alpha0 must be positive, got {alpha0}")
    alpha = alpha0 * hhat

    diagnostics = {
        "kappas": kappas,
        "lambdas": lambdas,
        "whitened_eigenvalues": dr.eigenvalues * signs,
        "mean_fit_residual": float(rnorm),
    }
    if degenerate:
        diagnostics["degenerate_columns"] = degenerate
    return TopicModel(A=A, alpha=alpha, family=family, diagnostics=diagnostics)


def project(ms: MomentSet, k: int) -> Projection:
    """Top-k basis of the raw pair moment (Lanczos) and the moments projected on it.

    In population the raw pair moment's range is span(A) and m1 lies in it, so
    one basis serves every centring; ``ms.triple`` runs once, here.  The basis
    holds the Lanczos eigenvectors, so the projected pair moment is
    diag(spectrum) and is not formed again.
    """
    with _stage("whiten"):
        W, _, spectrum = whiten(ms.m2, k)
    V = W * np.sqrt(spectrum)
    with _stage("m3"):
        return Projection(m1=ms.m1, basis=V, u=V.T @ ms.m1, g=np.diag(spectrum),
                          t=ms.triple(V))


def _model_stage(p: Projection, weights: Weights, k: int, power: PowerMethodConfig):
    """Centre, whiten and decompose the projected moments with one set of weights.

    Returns the un-whitening (k, k) matrix, the centred pair spectrum, the
    whitened tensor and its decomposition.
    """
    with _stage("m2"):
        m2 = build_m2(p, weights)
    with _stage("whiten"):
        W, Winv_t, spectrum = whiten(m2, k)
    with _stage("m3"):
        t = build_whitened_m3(p, weights, W)
    with _stage("decompose"):
        dr = decompose(t, power, k=k)
    return Winv_t, spectrum, t, dr


def _fit_alpha0(p: Projection, family: IDFamily, power: PowerMethodConfig):
    """The total concentration whose centring best diagonalizes the third moment.

    Each candidate a0 centres the projected moments with its own weights and
    scores the relative residual ||T - sum_j lambda_j u_j^(x)3|| / ||T|| of its
    whitened tensor, +inf when its pair moment cannot be whitened.  The argmin
    over ``_ALPHA0_GRID`` is refined by a bounded search between its grid
    neighbours.  When (v, v1, v2) agree at the grid's two ends the centring
    does not depend on a0 (stable priors, for one) and RecoveryError is raised.
    Returns the best (a0, weights, model stage) and the grid's residuals.
    """
    from scipy.optimize import minimize_scalar

    k = p.basis.shape[1]
    best = {"residual": np.inf}   # the first of the smallest residuals seen

    def score(a0: float, w: Weights) -> float:
        try:
            stage = _model_stage(p, w, k, power)
        except StageError as exc:
            if not isinstance(exc.cause, RankDeficiencyError):
                raise
            return np.inf
        _, _, t, dr = stage
        residual = dr.residual / float(np.linalg.norm(t))
        if residual < best["residual"]:
            best.update(residual=residual, a0=a0, weights=w, stage=stage)
        return residual

    def refused(reason: str) -> StageError:
        return StageError("recover", RecoveryError(
            f"alpha0 cannot be fitted for {family.spec()}: {reason}"))

    with _stage("weights"):
        grid_weights = [compute_weights(family, a0) for a0 in _ALPHA0_GRID]
    ends = np.array([[w.v, w.v1, w.v2] for w in (grid_weights[0], grid_weights[-1])])
    if np.abs(ends[0] - ends[1]).max() <= _FLAT_TOL * np.abs(ends).max():
        raise refused("its centring weights do not depend on alpha0")
    curve = np.array([score(a0, w) for a0, w in zip(_ALPHA0_GRID, grid_weights)])
    if not np.isfinite(best["residual"]):
        raise refused("the pair moment cannot be whitened at any grid point")

    def loss(log_a0: float) -> float:
        a0 = float(np.exp(log_a0))
        with _stage("weights"):
            w = compute_weights(family, a0)
        return score(a0, w)

    i = int(np.argmin(curve))
    neighbours = _ALPHA0_GRID[[max(i - 1, 0), min(i + 1, _ALPHA0_GRID.size - 1)]]
    minimize_scalar(loss, bounds=tuple(np.log(neighbours)), method="bounded",
                    options={"xatol": 1e-4})
    return best["a0"], best["weights"], best["stage"], curve


def learn(corpus: Corpus, family: IDFamily, k: int, alpha0: Union[float, str],
          power: PowerMethodConfig = PowerMethodConfig()) -> TopicModel:
    """Full pipeline from a corpus to a TopicModel.

    Any stage failure is re-raised as StageError naming the stage.
    """
    if corpus.n_docs == 0:
        raise StageError("input", ValueError("empty corpus"))
    if not 1 <= k <= corpus.d:
        raise StageError("input", ValueError(f"k={k} outside 1..{corpus.d} (vocabulary size)"))
    _check_alpha0(alpha0)

    with _stage("moments"):
        ms = accumulate(corpus)
    return learn_from_moments(ms, family, k, alpha0, power)


def learn_from_moments(ms: MomentSet, family: IDFamily, k: int,
                       alpha0: Union[float, str],
                       power: PowerMethodConfig = PowerMethodConfig()) -> TopicModel:
    """Pipeline tail for a caller holding a MomentSet.

    The corpus stage (``project``) runs once; the model stage takes its
    centring weights from (family, alpha0), or from every candidate alpha0
    when alpha0="fit".
    """
    _check_alpha0(alpha0)
    return _learn_projected(project(ms, k), family, alpha0, power)


def _check_alpha0(alpha0: Union[float, str]) -> None:
    """StageError("input") unless alpha0 is "fit" or a finite positive number,
    so a bad one fails before the corpus stage."""
    if isinstance(alpha0, str):
        ok = alpha0 == "fit"
    else:
        ok = 0.0 < float(alpha0) < np.inf
    if not ok:
        raise StageError("input", ValueError(
            f"alpha0 must be 'fit' or a finite positive number, got {alpha0!r}"))


def _learn_projected(p: Projection, family: IDFamily, alpha0: Union[float, str],
                     power: PowerMethodConfig = PowerMethodConfig()) -> TopicModel:
    """The model stage: one (family, alpha0) on projected moments.

    A numeric alpha0 is centred with ``compute_weights(family, alpha0)``;
    "fit" chooses alpha0 by the residual of the whitened tensor
    (``_fit_alpha0``) and records the grid and its residuals in
    ``diagnostics["alpha0_fit"]``.
    """
    k = p.basis.shape[1]
    curve = None
    if alpha0 == "fit":
        alpha0, weights, stage, curve = _fit_alpha0(p, family, power)
    else:
        with _stage("weights"):
            weights = compute_weights(family, float(alpha0))
        stage = _model_stage(p, weights, k, power)
    Winv_t, m2_spectrum, _, dr = stage
    with _stage("recover"):
        model = recover(dr, p.basis @ Winv_t, p.m1, family, alpha0)

    model.diagnostics["residual"] = dr.residual
    model.diagnostics["weights"] = weights
    model.diagnostics["m2_spectrum"] = m2_spectrum
    flags = []
    if curve is not None:
        model.diagnostics["alpha0_fit"] = {"grid": _ALPHA0_GRID.copy(), "residuals": curve}
        if curve.max() < (1.0 + _FLAT_CURVE) * curve.min():
            flags.append("alpha0_fit_flat")
    if dr.n_components < k:
        flags.append(f"rank_exhausted_at_{dr.n_components + 1}")
    if m2_spectrum[-1] < _SMALL_EIG_RATIO * m2_spectrum[0]:
        flags.append("small_pair_eigenvalue")
    lam_abs = np.abs(dr.eigenvalues)
    if lam_abs.size and lam_abs.min() < _SMALL_EIG_RATIO * lam_abs.max():
        flags.append("small_eigenvalue")
    if not dr.converged:
        flags.append("power_iteration_not_converged")
    if flags:
        model.diagnostics["flags"] = flags
    return model
