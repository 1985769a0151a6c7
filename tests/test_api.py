import os
import subprocess
import sys

import pytest

import nidtopics


def test_public_surface_is_pinned():
    # an addition to or removal from the package's API shows up here as a diff
    assert sorted(nidtopics.__all__) == [
        "ChainResult", "ChainState", "Corpus", "DecompositionResult", "IDFamily",
        "MomentSet", "NIDModel", "PowerMethodConfig", "RankDeficiencyError", "StageError",
        "SynthConfig", "TopicModel", "TuneCandidate", "TuneReport",
        "Weights", "accumulate", "build_m2", "build_whitened_m3", "compute_weights",
        "corpus_from_docs", "correlation_profile", "decompose", "exact_moment_set",
        "gamma_family", "generate", "ig_mean_correlation_profile", "invgauss_family",
        "learn", "moment_matrix", "moment_tensor", "moment_vector", "omega",
        "parse_family", "perplexity", "pmi", "posterior_mean_h", "psi", "psi_deriv",
        "recover", "run_chain", "sample", "stable_family", "top_words", "tune", "whiten",
    ]


def test_every_exported_name_resolves_and_appears_once():
    names = nidtopics.__all__
    assert len(names) == len(set(names)), sorted({n for n in names if names.count(n) > 1})
    assert [n for n in names if not hasattr(nidtopics, n)] == []


def test_import_loads_no_integrator():
    # the package evaluates every omega in closed form; scipy.integrate is
    # imported only inside ig_mean_correlation_profile
    code = "import sys, nidtopics; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("module", ["nidtopics", "nidtopics.cli"])
def test_import_starts_no_thread(module):
    # perplexity opens and joins its own helper threads; no pool lives at module level
    code = f"import threading, {module}; print(threading.active_count())"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "1"


@pytest.mark.parametrize("module", ["nidtopics", "nidtopics.cli"])
def test_import_loads_only_numpy_and_scipy_sparse(module):
    # each other scipy submodule is imported inside the function that calls it
    deferred = ["scipy.optimize", "scipy.linalg", "scipy.sparse.linalg", "scipy.special",
                "scipy.integrate"]
    code = f"import sys, {module}; print(sorted(set({deferred!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("module", ["nidtopics", "nidtopics.cli"])
def test_import_loads_numpy_alone(module):
    # scipy.sparse is imported inside the functions that build or read a corpus, and
    # perplexity imports its executor; importing scipy.sparse would load
    # concurrent.futures too, through numpy.testing
    code = (f"import sys, {module}; print(sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith('scipy.') or m == 'concurrent.futures'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# runs the CLI on its arguments, then reports on stderr whether scipy.sparse was loaded
_RUN_CLI = """
import sys
from nidtopics.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
sys.stderr.write(f"scipy.sparse loaded: {'scipy.sparse' in sys.modules}")
sys.exit(rc)
"""


@pytest.mark.parametrize("argv, stdout", [
    (["--help"], None),
    (["weights", "--family", "gamma:1", "--alpha0", "1"],
     b"v\tv1\tv2\n-0.500000\t-0.333333\t0.333333\n"),
], ids=["help", "weights"])
def test_commands_that_build_no_corpus_load_no_scipy_sparse(argv, stdout):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _RUN_CLI, *argv], env=env,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.decode().endswith("scipy.sparse loaded: False")
    if stdout is None:
        assert proc.stdout.startswith(b"usage: ")
    else:
        assert proc.stdout == stdout
