import tracemalloc

import numpy as np
import pytest
from scipy.stats import ortho_group

from nidtopics import (
    LearnConfig, NIDModel, PowerMethodConfig, RankDeficiencyError, StageError,
    SynthConfig, TopicModel, accumulate, build_m2, build_whitened_m3,
    compute_weights, decompose, exact_moment_set, gamma_family, generate,
    invgauss_family, learn, moment, moment_vector, recover, whiten,
)
from nidtopics.decompose import RecoveryError, learn_from_moments
from nidtopics.util import match_columns


def _rank1_tensor(v):
    return np.einsum("i,j,l->ijl", v, v, v)


# ---------------------------------------------------------------------------
# whiten


def test_whiten_identity():
    W, Winv_t = whiten(np.eye(4), 4)
    assert np.allclose(W.T @ np.eye(4) @ W, np.eye(4), atol=1e-12)
    assert np.allclose(W @ Winv_t.T, np.eye(4), atol=1e-12)


def test_whiten_exact_moment_matrix():
    rng = np.random.default_rng(0)
    A = rng.dirichlet(np.ones(10) * 0.4, size=3).T
    model = NIDModel(gamma_family(1.0), np.array([2.0, 2.0, 4.0]))
    w = compute_weights(gamma_family(1.0), 8.0)
    m2 = build_m2(exact_moment_set(model, A), w)
    W, Winv_t = whiten(m2, 3)
    assert np.max(np.abs(W.T @ (m2 @ W) - np.eye(3))) < 1e-8
    assert np.allclose(Winv_t.T @ W, np.eye(3), atol=1e-8)


def test_whiten_rank_deficiency_error_names_gap():
    m = np.diag([1.0, 0.5, 0.2, 0.0, 0.0])
    with pytest.raises(RankDeficiencyError) as exc:
        whiten(m, 5)
    msg = str(exc.value)
    assert "eigenvalue" in msg and "5" in msg


def test_whiten_rank_cut_is_relative_to_top_eigenvalue():
    small = 1e-12 * np.diag([1.0, 0.5, 0.2])
    W, _ = whiten(small, 3)
    assert np.allclose(W.T @ small @ W, np.eye(3), atol=1e-8)
    with pytest.raises(RankDeficiencyError):
        whiten(1e6 * np.diag([1.0, 0.5, 1e-12]), 3)
    with pytest.raises(RankDeficiencyError):
        whiten(np.diag([1.0, 0.5, -0.1]), 3)


def test_whiten_operator_matches_dense_eigh_and_is_deterministic():
    corpus, _ = _small_corpus(gamma_family(1.0), seed=6, n_docs=400)
    m2 = build_m2(accumulate(corpus), compute_weights(gamma_family(1.0), 1.0))
    W, Winv_t, evals = whiten(m2, 3, return_spectrum=True)
    dense_evals, dense_evecs = np.linalg.eigh(m2 @ np.eye(corpus.d))
    assert np.allclose(evals, dense_evals[::-1][:3], rtol=1e-10)
    U = dense_evecs[:, ::-1][:, :3]
    assert np.allclose(W @ Winv_t.T, U @ U.T, atol=1e-10)
    W2, Winv_t2 = whiten(m2, 3)
    assert np.array_equal(W, W2) and np.array_equal(Winv_t, Winv_t2)


def test_whiten_input_validation():
    with pytest.raises(ValueError):
        whiten(np.eye(3), 4)
    with pytest.raises(ValueError):
        whiten(np.ones((2, 3)), 1)


# ---------------------------------------------------------------------------
# decompose


def test_already_diagonal_tensor():
    t = 2.0 * _rank1_tensor(np.array([1.0, 0, 0])) + _rank1_tensor(np.array([0, 1.0, 0]))
    dr = decompose(t, PowerMethodConfig(seed=0), k=2)
    assert dr.residual < 1e-10
    assert sorted(dr.eigenvalues, reverse=True) == pytest.approx([2.0, 1.0], abs=1e-9)
    recovered = np.abs(dr.components)
    assert np.allclose(np.sort(recovered.max(axis=1)), [1.0, 1.0], atol=1e-8)


def test_random_orthogonal_mixture_recovered():
    rng = np.random.default_rng(1)
    k = 5
    V = ortho_group.rvs(k, random_state=rng)
    lam = rng.uniform(0.5, 2.0, size=k)
    t = sum(lam[j] * _rank1_tensor(V[:, j]) for j in range(k))
    dr = decompose(t, PowerMethodConfig(seed=2), k=k)
    assert dr.n_components == k
    assert dr.residual < 1e-8
    gram = dr.components @ dr.components.T
    assert np.max(np.abs(gram - np.eye(k))) < 1e-6
    # match by absolute inner product; sign may flip together with lambda
    for j in range(k):
        dots = np.abs(dr.components @ V[:, j])
        best = int(np.argmax(dots))
        assert dots[best] > 1.0 - 1e-6
        assert dr.eigenvalues[best] == pytest.approx(lam[j], abs=1e-6)


def test_zero_tensor_yields_no_components():
    dr = decompose(np.zeros((3, 3, 3)), PowerMethodConfig(seed=0))
    assert dr.n_components == 0
    assert dr.exhausted


def test_negative_eigenvalue_kept():
    v = np.array([0.0, 1.0, 0.0])
    t = -1.5 * _rank1_tensor(v)
    dr = decompose(t, PowerMethodConfig(seed=3), k=1)
    assert dr.n_components == 1
    assert dr.eigenvalues[0] * (dr.components[0] @ v) ** 3 == pytest.approx(-1.5, abs=1e-8)


def test_decompose_deterministic():
    rng = np.random.default_rng(4)
    t = rng.normal(size=(4, 4, 4))
    t = (t + t.transpose(0, 2, 1) + t.transpose(1, 0, 2) + t.transpose(1, 2, 0)
         + t.transpose(2, 0, 1) + t.transpose(2, 1, 0)) / 6.0
    a = decompose(t, PowerMethodConfig(seed=9))
    b = decompose(t, PowerMethodConfig(seed=9))
    assert np.array_equal(a.components, b.components)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_decompose_validates_shape():
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 3, 2)))


# ---------------------------------------------------------------------------
# recover and the exact-moment pipeline


def _exact_pipeline(family, alpha, A, alpha0=None):
    model = NIDModel(family, alpha)
    w = compute_weights(family, model.alpha0)
    ms = exact_moment_set(model, A)
    return learn_from_moments(ms, family, alpha.size,
                              alpha0 if alpha0 is not None else model.alpha0, w)


def test_exact_moment_recovery_dirichlet():
    rng = np.random.default_rng(5)
    A = rng.dirichlet(np.ones(10) * 0.5, size=3).T
    alpha = np.array([2.0, 2.0, 4.0])
    tm = _exact_pipeline(gamma_family(1.0), alpha, A)
    _, errs = match_columns(tm.A, A)
    assert errs.max() < 1e-4


def test_exact_moment_alpha_recovery():
    rng = np.random.default_rng(6)
    A = rng.dirichlet(np.ones(12) * 0.5, size=3).T
    alpha = np.array([2.0, 2.0, 4.0])
    tm = _exact_pipeline(gamma_family(1.0), alpha, A, alpha0=8.0)
    perm, _ = match_columns(tm.A, A)
    assert np.allclose(tm.alpha[perm], alpha, atol=1e-3)


def test_kappa_lambda_match_moment_expansion():
    rng = np.random.default_rng(7)
    A = rng.dirichlet(np.ones(9) * 0.5, size=3).T
    alpha = np.array([2.0, 2.0, 4.0])
    family = invgauss_family(4.0)
    tm = _exact_pipeline(family, alpha, A)
    model = NIDModel(family, alpha)
    w = compute_weights(family, model.alpha0)
    m1h = moment_vector(model)
    perm, _ = match_columns(tm.A, A)
    kappas = tm.diagnostics["kappas"][perm]
    lambdas = tm.diagnostics["lambdas"][perm]
    for j in range(3):
        r2 = np.zeros(3, dtype=int)
        r2[j] = 2
        r3 = np.zeros(3, dtype=int)
        r3[j] = 3
        kappa = moment(model, r2) + w.v * m1h[j] ** 2
        lam = (moment(model, r3) + 3.0 * w.v1 * moment(model, r2) * m1h[j]
               + w.v2 * m1h[j] ** 3)
        assert kappas[j] == pytest.approx(kappa, abs=1e-6)
        assert lambdas[j] == pytest.approx(lam, abs=1e-6)


def test_recover_rejects_empty_decomposition():
    from nidtopics.decompose import DecompositionResult
    dr = DecompositionResult(components=np.zeros((0, 3)), eigenvalues=np.array([]),
                             residual=0.0, restarts_used=0)
    with pytest.raises(RecoveryError):
        recover(dr, np.eye(3), np.ones(3) / 3, gamma_family(1.0), 1.0)


def test_orthogonal_decomposability_certificate():
    rng = np.random.default_rng(8)
    A = rng.dirichlet(np.ones(10) * 0.4, size=3).T
    alpha = np.array([2.0, 2.0, 4.0])
    for family in (gamma_family(1.0), invgauss_family(0.5)):
        model = NIDModel(family, alpha)
        w = compute_weights(family, model.alpha0)
        ms = exact_moment_set(model, A)
        m2 = build_m2(ms, w)
        W, _ = whiten(m2, 3)
        t = build_whitened_m3(ms, w, W)
        dr = decompose(t, PowerMethodConfig(seed=0), k=3)
        assert dr.residual / np.linalg.norm(t) < 1e-3


# ---------------------------------------------------------------------------
# learn


def _small_corpus(family, seed=0, n_docs=3000):
    rng = np.random.default_rng(seed)
    A = rng.dirichlet(np.ones(25) * 0.15, size=3).T
    alpha = np.array([0.3, 0.3, 0.4])
    truth = TopicModel(A=A, alpha=alpha, family=family)
    corpus, _ = generate(truth, SynthConfig(n_docs, 30, seed=seed))
    return corpus, truth


def test_learn_recovers_small_synthetic_model():
    family = gamma_family(1.0)
    corpus, truth = _small_corpus(family, seed=10)
    model = learn(corpus, family, 3, 1.0)
    _, errs = match_columns(model.A, truth.A)
    assert errs.mean() < 0.25


def test_learn_requesting_extra_topic_flags_rank():
    family = gamma_family(1.0)
    corpus, _ = _small_corpus(family, seed=11, n_docs=4000)
    try:
        model = learn(corpus, family, 4, 1.0)
    except StageError as exc:
        assert isinstance(exc.cause, RankDeficiencyError)
        return
    flags = model.diagnostics.get("flags", [])
    assert any(f.startswith("rank_exhausted") or "eigenvalue" in f for f in flags)


def test_learn_true_rank_not_flagged_for_rank():
    family = gamma_family(1.0)
    corpus, _ = _small_corpus(family, seed=11, n_docs=4000)
    model = learn(corpus, family, 3, 1.0)
    flags = model.diagnostics.get("flags", [])
    assert not any("eigenvalue" in f or f.startswith("rank_exhausted")
                   for f in flags)


def test_learn_memory_stays_below_a_vocabulary_square_matrix():
    # a quarter of one d x d float matrix: learn must never form the pair moment
    d, k = 4000, 3
    rng = np.random.default_rng(14)
    truth = TopicModel(A=rng.dirichlet(np.full(d, 0.05), size=k).T,
                       alpha=np.ones(k), family=gamma_family(1.0))
    corpus, _ = generate(truth, SynthConfig(500, 50, seed=14))
    tracemalloc.start()
    try:
        model = learn(corpus, gamma_family(1.0), k, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.A.shape == (d, k)
    assert peak < d * d * 8 / 4


def test_learn_rejects_empty_corpus():
    import scipy.sparse as sp
    from nidtopics import Corpus
    empty = Corpus(sp.csr_matrix((0, 5), dtype=np.int64))
    with pytest.raises(StageError) as exc:
        learn(empty, gamma_family(1.0), 2, 1.0)
    assert exc.value.stage == "input"


def test_learn_rejects_k_above_vocab():
    corpus, _ = _small_corpus(gamma_family(1.0), seed=12, n_docs=50)
    with pytest.raises(StageError):
        learn(corpus, gamma_family(1.0), 26, 1.0)


def test_learn_deterministic_given_seed():
    family = gamma_family(1.0)
    corpus, _ = _small_corpus(family, seed=13, n_docs=500)
    cfg = LearnConfig(power=PowerMethodConfig(seed=5))
    a = learn(corpus, family, 3, 1.0, config=cfg)
    b = learn(corpus, family, 3, 1.0, config=cfg)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.alpha, b.alpha)


def test_monotone_consistency_in_corpus_size():
    family = gamma_family(1.0)
    rng = np.random.default_rng(20)
    A = rng.dirichlet(np.ones(25) * 0.15, size=3).T
    alpha = np.array([0.3, 0.3, 0.4])
    truth = TopicModel(A=A, alpha=alpha, family=family)

    def error_at(n_docs, seed):
        corpus, _ = generate(truth, SynthConfig(n_docs, 30, seed=seed))
        model = learn(corpus, family, 3, 1.0)
        _, errs = match_columns(model.A, truth.A)
        return errs.mean()

    small = np.median([error_at(1_000, s) for s in range(5)])
    big = np.median([error_at(10_000, 100 + s) for s in range(5)])
    assert big <= small


def test_learn_with_fitted_alpha0():
    rng = np.random.default_rng(14)
    A = rng.dirichlet(np.ones(10) * 0.5, size=3).T
    alpha = np.array([2.0, 2.0, 4.0])
    family = gamma_family(1.0)
    model = NIDModel(family, alpha)
    w = compute_weights(family, model.alpha0)
    ms = exact_moment_set(model, A)
    tm = learn_from_moments(ms, family, 3, "fit", w)
    assert tm.alpha0 == pytest.approx(8.0, rel=0.05)


def test_topic_model_validation():
    with pytest.raises(ValueError):
        TopicModel(A=np.array([[0.5, 0.2], [0.5, 0.2]]),
                   alpha=np.array([1.0, 1.0]), family=gamma_family(1.0))
    with pytest.raises(ValueError):
        TopicModel(A=np.ones((4, 2)) * 0.25, alpha=np.array([1.0, -1.0]),
                   family=gamma_family(1.0))
