import os
import subprocess
import sys

import pytest

import nidtopics


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
