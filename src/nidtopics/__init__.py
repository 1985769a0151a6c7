"""Spectral moment-matching toolkit for simplex-prior (normalized
infinitely divisible) topic models."""

from .corpus import Corpus, corpus_from_docs
from .decompose import (
    DecompositionResult, PowerMethodConfig, RankDeficiencyError,
    StageError, TopicModel, decompose, learn, recover, whiten,
)
from .evaluate import perplexity, pmi, top_words
from .families import (
    IDFamily, gamma_family, invgauss_family, parse_family,
    psi, psi_deriv, stable_family,
)
from .mcmc import ChainResult, ChainState, posterior_mean_h, run_chain
from .moments import MomentSet, accumulate, build_m2, build_whitened_m3, exact_moment_set
from .nid import (
    NIDModel, correlation_profile, ig_mean_correlation_profile,
    moment_matrix, moment_tensor, moment_vector, sample,
)
from .synth import SynthConfig, TopicAssignment, generate
from .tuner import TuneCandidate, TuneReport, tune
from .weights import Weights, compute_weights, omega

__all__ = [
    "Corpus", "corpus_from_docs",
    "DecompositionResult", "PowerMethodConfig",
    "RankDeficiencyError", "StageError", "TopicModel",
    "decompose", "learn", "recover", "whiten",
    "perplexity", "pmi", "top_words",
    "IDFamily", "gamma_family", "invgauss_family",
    "parse_family", "psi", "psi_deriv", "stable_family",
    "ChainResult", "ChainState", "posterior_mean_h", "run_chain",
    "MomentSet", "accumulate", "build_m2", "build_whitened_m3", "exact_moment_set",
    "NIDModel", "correlation_profile", "ig_mean_correlation_profile",
    "moment_matrix", "moment_tensor", "moment_vector", "sample",
    "SynthConfig", "TopicAssignment", "generate",
    "TuneCandidate", "TuneReport", "tune",
    "Weights", "compute_weights", "omega",
]
