import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ortho_group

from nidtopics import (
    NIDModel, PowerMethodConfig, RankDeficiencyError, StageError,
    SynthConfig, TopicModel, accumulate, build_m2, build_whitened_m3,
    compute_weights, decompose, exact_moment_set, gamma_family, generate,
    invgauss_family, learn, moment_vector, recover, stable_family, whiten,
)
from nidtopics import weights
from nidtopics.decompose import RecoveryError, _rayleigh, _tensor_apply, learn_from_moments
from nidtopics.moments import project_moments
from nidtopics.util import match_columns

from helpers import moment

# the package's ``decompose`` attribute is the function; this is its module
decompose_module = importlib.import_module("nidtopics.decompose")


def _rank1_tensor(v):
    return np.einsum("i,j,l->ijl", v, v, v)


# ---------------------------------------------------------------------------
# whiten


def test_whiten_identity():
    W, Winv_t, _ = whiten(np.eye(4), 4)
    assert np.allclose(W.T @ np.eye(4) @ W, np.eye(4), atol=1e-12)
    assert np.allclose(W @ Winv_t.T, np.eye(4), atol=1e-12)


def test_whiten_exact_moment_matrix():
    rng = np.random.default_rng(0)
    A = rng.dirichlet(np.ones(10) * 0.4, size=3).T
    model = NIDModel(gamma_family(1.0), np.array([2.0, 2.0, 4.0]))
    w = compute_weights(gamma_family(1.0), 8.0)
    m2 = build_m2(project_moments(exact_moment_set(model, A), np.eye(10)), w)
    W, Winv_t, _ = whiten(m2, 3)
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
    W, _, _ = whiten(small, 3)
    assert np.allclose(W.T @ small @ W, np.eye(3), atol=1e-8)
    with pytest.raises(RankDeficiencyError):
        whiten(1e6 * np.diag([1.0, 0.5, 1e-12]), 3)
    with pytest.raises(RankDeficiencyError):
        whiten(np.diag([1.0, 0.5, -0.1]), 3)


def test_whiten_operator_matches_dense_eigh_and_is_deterministic():
    corpus, _ = _small_corpus(gamma_family(1.0), seed=6, n_docs=400)
    m2 = accumulate(corpus).m2
    W, Winv_t, evals = whiten(m2, 3)
    dense_evals, dense_evecs = np.linalg.eigh(m2 @ np.eye(corpus.d))
    assert np.allclose(evals, dense_evals[::-1][:3], rtol=1e-10)
    U = dense_evecs[:, ::-1][:, :3]
    assert np.allclose(W @ Winv_t.T, U @ U.T, atol=1e-10)
    W2, Winv_t2, _ = whiten(m2, 3)
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
    assert dr.n_components < 3


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


def test_power_step_helpers_match_einsum_on_nonsymmetric_tensor():
    rng = np.random.default_rng(8)
    T = rng.normal(size=(5, 5, 5))
    theta = rng.normal(size=(5, 7))
    assert np.allclose(_tensor_apply(T, theta),
                       np.einsum("ijl,jm,lm->im", T, theta, theta), rtol=0, atol=1e-12)
    assert np.allclose(_rayleigh(T, theta),
                       np.einsum("ijl,im,jm,lm->m", T, theta, theta, theta), rtol=0, atol=1e-12)


def test_decompose_reports_unconverged_power_iteration():
    rng = np.random.default_rng(4)
    k = 4
    V = ortho_group.rvs(k, random_state=rng)
    t = sum(lam * _rank1_tensor(V[:, j]) for j, lam in enumerate([2.0, 1.5, 1.0, 0.5]))
    assert decompose(t, PowerMethodConfig(seed=0)).converged
    assert not decompose(t, PowerMethodConfig(n_iterations=1, seed=0)).converged


@pytest.mark.parametrize("n_iterations", [0, -3])
def test_power_method_refuses_fewer_than_one_iteration(n_iterations):
    with pytest.raises(ValueError, match="n_iterations"):
        PowerMethodConfig(n_iterations=n_iterations)


def test_decompose_tensor_applications_do_not_grow_with_k(monkeypatch):
    # one orthogonalised loop and one polish over all k columns: no per-component
    # restarts and no deflation
    rng = np.random.default_rng(3)
    k, n_iterations = 20, 30
    V = ortho_group.rvs(k, random_state=rng)
    t = sum(lam * _rank1_tensor(V[:, j]) for j, lam in enumerate(rng.uniform(0.5, 2.0, k)))
    # the package's ``decompose`` attribute is the function, not the module
    module = importlib.import_module("nidtopics.decompose")
    calls = []
    inner = module._tensor_apply

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(module, "_tensor_apply", counted)
    dr = decompose(t, PowerMethodConfig(n_iterations=n_iterations, seed=1), k=k)
    assert dr.n_components == k and dr.converged
    assert dr.residual < 1e-8
    assert len(calls) <= 2 * n_iterations + 1


def test_decompose_validates_shape():
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 3, 2)))


# ---------------------------------------------------------------------------
# recover and the exact-moment pipeline


def _exact_pipeline(family, alpha, A, alpha0=None, power=PowerMethodConfig()):
    model = NIDModel(family, alpha)
    ms = exact_moment_set(model, A)
    return learn_from_moments(ms, family, alpha.size,
                              alpha0 if alpha0 is not None else model.alpha0, power)


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
                             residual=0.0)
    with pytest.raises(RecoveryError):
        recover(dr, np.eye(3), np.ones(3) / 3, gamma_family(1.0), 1.0)


def test_orthogonal_decomposability_certificate():
    rng = np.random.default_rng(8)
    A = rng.dirichlet(np.ones(10) * 0.4, size=3).T
    alpha = np.array([2.0, 2.0, 4.0])
    for family in (gamma_family(1.0), invgauss_family(0.5)):
        model = NIDModel(family, alpha)
        w = compute_weights(family, model.alpha0)
        p = project_moments(exact_moment_set(model, A), np.eye(10))
        m2 = build_m2(p, w)
        W, _, _ = whiten(m2, 3)
        t = build_whitened_m3(p, w, W)
        dr = decompose(t, PowerMethodConfig(seed=0), k=3)
        assert dr.residual / np.linalg.norm(t) < 1e-3


def test_projected_pair_moment_is_the_lanczos_spectrum():
    # the basis holds M2's top eigenvectors, so V^T M2 V is diag(spectrum)
    rng = np.random.default_rng(10)
    A = rng.dirichlet(np.ones(40) * 0.5, size=4).T
    ms = exact_moment_set(NIDModel(invgauss_family(4.0), np.array([0.5, 1.0, 1.5, 2.0])), A)
    p = decompose_module.project(ms, 4)
    formed = p.basis.T @ (ms.m2 @ p.basis)
    assert np.allclose(p.g, 0.5 * (formed + formed.T), rtol=0.0, atol=1e-12 * p.g[0, 0])


@pytest.mark.parametrize("family", [gamma_family(1.0), invgauss_family(4.0)],
                         ids=["gamma:1", "invgauss:4"])
def test_centring_and_whitening_the_projection_equals_word_space(family):
    # span of the Lanczos basis holds the topics and the mean, so the model
    # stage sees the same centred pair spectrum and whitened tensor through it
    # as through the whole vocabulary (V = I_d)
    rng = np.random.default_rng(9)
    d, k = 10, 3
    A = rng.dirichlet(np.ones(d) * 0.5, size=k).T
    model = NIDModel(family, np.array([2.0, 2.0, 4.0]))
    w = compute_weights(family, model.alpha0)
    ms = exact_moment_set(model, A)
    seen = []
    for p in (decompose_module.project(ms, k), project_moments(ms, np.eye(d))):
        W, _, spectrum = whiten(build_m2(p, w), k)
        t = build_whitened_m3(p, w, W)
        dr = decompose(t, PowerMethodConfig(seed=0), k=k)
        seen.append((spectrum, np.linalg.norm(t), np.sort(np.abs(dr.eigenvalues))))
    (spec_v, norm_v, lam_v), (spec_d, norm_d, lam_d) = seen
    assert np.allclose(spec_v, spec_d, rtol=1e-8, atol=0.0)
    assert norm_v == pytest.approx(norm_d, rel=1e-8)
    assert lam_v.size == lam_d.size == k
    assert np.allclose(lam_v, lam_d, rtol=1e-8, atol=0.0)


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


def test_learn_rejects_a_negative_alpha0_at_input():
    corpus, _ = _small_corpus(gamma_family(1.0), seed=12, n_docs=50)
    with pytest.raises(StageError) as exc:
        learn(corpus, gamma_family(1.0), 3, -1.0)
    assert exc.value.stage == "input"


def test_learn_deterministic_given_seed():
    family = gamma_family(1.0)
    corpus, _ = _small_corpus(family, seed=13, n_docs=500)
    power = PowerMethodConfig(seed=5)
    a = learn(corpus, family, 3, 1.0, power)
    b = learn(corpus, family, 3, 1.0, power)
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
    ms = exact_moment_set(model, A)
    tm = learn_from_moments(ms, family, 3, "fit")
    assert tm.alpha0 == pytest.approx(8.0, rel=0.05)


@pytest.mark.parametrize("family", [gamma_family(1.0), invgauss_family(4.0)],
                         ids=["gamma:1", "invgauss:4"])
@pytest.mark.parametrize("alpha0", [0.3, 3.0, 10.0])
def test_fitted_alpha0_recovers_the_true_concentration(family, alpha0):
    # exact moments centred at the true alpha0 are orthogonally decomposable,
    # so the whitened tensor's residual is smallest there
    rng = np.random.default_rng(0)
    A = rng.dirichlet(np.ones(60) * 0.5, size=4).T
    hhat = np.array([0.15, 0.2, 0.3, 0.35])
    ms = exact_moment_set(NIDModel(family, alpha0 * hhat), A)
    tm = learn_from_moments(ms, family, 4, "fit")
    assert tm.alpha0 == pytest.approx(alpha0, rel=1e-3)
    _, errs = match_columns(tm.A, A)
    assert errs.max() < 1e-4
    fit = tm.diagnostics["alpha0_fit"]
    assert fit["grid"].size == fit["residuals"].size == 25
    assert fit["grid"][np.argmin(fit["residuals"])] == pytest.approx(alpha0, rel=0.3)
    assert "alpha0_fit_flat" not in tm.diagnostics.get("flags", [])


def test_fitted_alpha0_flags_a_flat_residual_curve():
    # 40 topics from 2000 short documents: the sampling noise in the whitened
    # tensor swamps the centring, so no alpha0 stands out
    family = invgauss_family(4.0)
    rng = np.random.default_rng(1)
    truth = TopicModel(A=rng.dirichlet(np.ones(200) * 0.1, size=40).T,
                       alpha=np.full(40, 1.0 / 40), family=family)
    corpus, _ = generate(truth, SynthConfig(2000, 50, seed=1))
    tm = learn(corpus, family, 40, "fit")
    residuals = tm.diagnostics["alpha0_fit"]["residuals"]
    assert residuals.max() < 1.05 * residuals.min()
    assert "alpha0_fit_flat" in tm.diagnostics["flags"]


def test_learn_flags_unconverged_power_iteration():
    rng = np.random.default_rng(14)
    A = rng.dirichlet(np.ones(10) * 0.5, size=3).T
    alpha = np.array([2.0, 2.0, 4.0])
    tm = _exact_pipeline(gamma_family(1.0), alpha, A, power=PowerMethodConfig(n_iterations=1))
    assert "power_iteration_not_converged" in tm.diagnostics["flags"]
    tm = _exact_pipeline(gamma_family(1.0), alpha, A)
    assert "power_iteration_not_converged" not in tm.diagnostics.get("flags", [])


def test_fitted_alpha0_projects_once_and_takes_five_quadratures_per_alpha0(monkeypatch):
    rng = np.random.default_rng(14)
    A = rng.dirichlet(np.ones(10) * 0.5, size=3).T
    family = gamma_family(1.0)
    model = NIDModel(family, np.array([2.0, 2.0, 4.0]))
    ms = exact_moment_set(model, A)
    triples, calls, alpha0s = [], [], []
    inner_triple = ms.triple
    inner_omega = weights.omega
    inner_weights = decompose_module.compute_weights

    def counted_triple(*args):
        triples.append(1)
        return inner_triple(*args)

    def counted_omega(*args):
        calls.append(1)
        return inner_omega(*args)

    def recorded_weights(family, alpha0):
        alpha0s.append(alpha0)
        return inner_weights(family, alpha0)

    ms.triple = counted_triple
    monkeypatch.setattr(weights, "omega", counted_omega)
    monkeypatch.setattr(decompose_module, "compute_weights", recorded_weights)
    tm = learn_from_moments(ms, family, 3, "fit")
    assert tm.alpha0 == pytest.approx(8.0, rel=0.05)
    assert len(triples) == 1
    assert len(alpha0s) > 0
    assert len(calls) == 5 * len(alpha0s)


def test_fitted_alpha0_refused_for_stable_prior():
    rng = np.random.default_rng(14)
    A = rng.dirichlet(np.ones(10) * 0.5, size=3).T
    with pytest.raises(StageError) as exc:
        _exact_pipeline(stable_family(0.5), np.array([2.0, 2.0, 4.0]), A, alpha0="fit")
    assert exc.value.stage == "recover"
    assert isinstance(exc.value.cause, RecoveryError)
    assert "stable:0.5" in str(exc.value)


def test_topic_model_validation():
    with pytest.raises(ValueError):
        TopicModel(A=np.array([[0.5, 0.2], [0.5, 0.2]]),
                   alpha=np.array([1.0, 1.0]), family=gamma_family(1.0))
    with pytest.raises(ValueError):
        TopicModel(A=np.ones((4, 2)) * 0.25, alpha=np.array([1.0, -1.0]),
                   family=gamma_family(1.0))
