"""Smoke tests of the experiment scripts: each runs to completion at a tiny
size and prints or writes the results it promises."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_synthetic_recovery_runs(tmp_path):
    proc = _run("synthetic_recovery.py", "--d", 30, "--k", 3, "--docs", 500, "--len", 20,
                cwd=tmp_path)
    for label in ("matched", "dirichlet-baseline"):
        assert f"\n{label} " in proc.stdout, proc.stdout


@pytest.mark.parametrize("script, outputs", [
    ("correlation_sweep.py", ["gamma_sweep.csv", "invgauss_sweep.csv", "stable_sweep.csv",
                              "invgauss_mean_sweep.csv"]),
    ("weight_curves.py", ["stable_weights.tsv", "invgauss_weights.tsv", "gamma_weights.tsv"]),
])
def test_sweep_script_writes_its_tables(tmp_path, script, outputs):
    out = tmp_path / "out"
    _run(script, "--points", 2, "--out-dir", out, cwd=tmp_path)
    for name in outputs:
        assert (out / name).stat().st_size > 0, name
