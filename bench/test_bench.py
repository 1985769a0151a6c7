"""Self-test of the benchmark: its generator, its tracer and every workload at tiny size.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
from nidtopics import invgauss_family, sample  # noqa: E402
from nidtopics.nid import NIDModel  # noqa: E402
from tracer import Span, Target, Tracer, self_times, summarize  # noqa: E402
from workloads import END_TO_END, FAILED, PER_LAYER, TINY, Runner, run  # noqa: E402


def _corpus(seed):
    rng = np.random.default_rng(seed)
    A, alpha = inputs.make_truth(rng, 200, 5, 1.0)
    counts, h = inputs.make_corpus_counts(rng, A, alpha, 4.0, 300, 50)
    return counts, h


def test_generator_same_seed_same_counts():
    (c1, h1), (c2, h2), (c3, _) = _corpus(3), _corpus(3), _corpus(4)
    assert (c1 != c2).nnz == 0 and np.array_equal(h1, h2)
    assert (c1 != c3).nnz > 0
    assert np.all(np.asarray(c1.sum(axis=1)).ravel() == 50)


def test_generator_h_matches_nid_sample():
    """First and second moments of the generator's h agree with nid.sample's."""
    alpha = np.array([0.1, 0.25, 0.4, 0.25])
    n = 200_000
    ours = inputs.draw_h(np.random.default_rng(0), alpha, 4.0, n)
    ref = sample(NIDModel(invgauss_family(4.0), alpha), np.random.default_rng(1), size=n)
    for f in (lambda h: h, lambda h: np.einsum("ni,nj->nij", h, h).reshape(n, -1)):
        a, b = f(ours), f(ref)
        se = np.sqrt((a.var(axis=0) + b.var(axis=0)) / n)
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5.0 * se + 1e-12)


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),     # overlaps a
        Span("a.child", 2.0, 3.0, parent=1),
        Span("c", 8.0, 12.0, parent=0),    # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])
    agg = summarize(spans + [Span("a", 20.0, 21.0)])
    assert agg["a"].calls == 2
    assert agg["a"].total_s == pytest.approx(4.0)
    assert agg["a"].self_s == pytest.approx(3.0)


def test_tracer_wraps_restores_and_reports_absent_names():
    import nidtopics.decompose  # noqa: F401
    module = sys.modules["nidtopics.decompose"]
    original = module.whiten
    tracer = Tracer()
    targets = [Target("nidtopics.decompose", "whiten", "decompose.whiten"),
               Target("nidtopics.decompose", "no_such_stage", "gone")]
    with tracer.installed(targets):
        assert module.whiten is not original
        module.whiten(np.eye(3), 2)
    assert module.whiten is original
    assert [s.name for s in tracer.spans] == ["decompose.whiten"]
    assert tracer.absent == ["nidtopics.decompose.no_such_stage"]


def test_a_call_that_raises_is_a_failed_operation_not_a_wrong_output(tmp_path):
    runner = Runner(TINY["data-path"], seed=0, out_dir=tmp_path)
    result, dt = runner.call("boom", lambda: 1 / 0)
    assert result is FAILED and dt >= 0.0
    assert (runner.attempted, runner.failed, runner.wrong_outputs) == (1, 1, 0)
    runner.check(False, "bad output")
    assert (runner.failed, runner.wrong_outputs) == (2, 1)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, context = run(TINY[name], seed=5, seconds=0.0, trace=trace, import_s=0.0,
                          out_dir=tmp_path)
    assert (context["passes"], context["traced_passes"]) == ((1, 1) if trace else (1, 0))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    units = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        w = TINY[name]
        assert result["metrics"]["nid.sample_calls"]["value"] == w.gen_docs * w.rounds
        assert (tmp_path / f"trace-{name}-5.jsonl").is_file()
    json.dumps(result)


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "data-path",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(TINY)
