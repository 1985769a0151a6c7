"""The benchmark's workloads, their output checks and their metrics.

Every workload runs the same chain of package calls, the one a user runs:
``learn`` on a corpus, ``generate`` a corpus from the ground truth, write it
as UCI and read it back, score the truth with ``perplexity`` and ``pmi``, and
run ``run_chain`` on a few documents.  The workloads differ in shape and in
how much of each call they ask for, so that each one is dominated by a
different layer:

* wide-vocab: d=5000, k=10.  The dense d x d ``eigh`` in ``whiten`` is most of
  ``learn``; the triple contraction and the power method are small.
* many-topics: d=500, k=50.  The O(nnz k^2) triple contraction and the k^3
  power iterations are most of ``learn``; ``whiten`` is tiny.
* data-path: d=2000, k=20.  ``generate`` of 5 x 2000 documents (one
  ``nid.sample`` call each), the UCI round trip, scoring and 20 chains with
  thousands of quadrature calls dominate; ``learn`` is small.

A pass (one ``learn``, then the workload's rounds of the other calls) takes
about 25 seconds on a 2-core machine, so a 25-second run makes one pass:
``learn_s`` and ``recovery_l1`` are one sample, the other times are medians
over the rounds.

``learn``, ``perplexity``, ``pmi`` and ``run_chain`` see corpora from the
benchmark's own generator (``inputs``), so a change to ``generate``'s random
streams leaves their inputs alone.
"""
from __future__ import annotations

import logging
import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import nidtopics
from nidtopics import (
    Corpus, SynthConfig, TopicModel, generate, learn, parse_family, perplexity,
    pmi, posterior_mean_h, run_chain,
)
from nidtopics.io import read_uci, write_uci
from nidtopics.util import match_columns

import inputs
from tracer import Target, Tracer, summarize


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    k: int
    docs: int            # size of the benchmark-owned corpus
    learn_docs: int      # its leading documents, given to learn
    score_docs: int      # its leading documents, scored by perplexity and pmi
    gen_docs: int        # documents made by nidtopics.generate, then written and read
    rounds: int          # rounds of the data-path calls after learn
    chains: int          # documents per round, each given one run_chain
    chain_steps: int
    burn_in: int


# Shared by every workload.
SETUPS = 3           # set-ups per run; setup_s is their median
FAMILY = "invgauss:4"
ALPHA0 = 1.0
DOC_LEN = 100
H_SAMPLES = 512      # prior draws per perplexity estimate
TOP_M = 10           # top words per topic for pmi
# run_chain's default concentration (50) accepts under 2% of its moves at
# k=20 and k=50, so most short chains never leave their uniform start; 200
# accepts 10-30% at k=10 and k=20, where the chains then reach most of the
# way from the start to the true h within the steps below.  At k=50 the
# chains still barely move, so there infer_h_l1 mostly measures the inputs.
PROPOSAL_CONCENTRATION = 200.0


# Every workload runs the data-path calls in interleaved rounds, so each
# call gets a median spanning the pass; each round generates with its own
# seed and gives run_chain its own documents.  Inference uses many short
# chains rather than a few long ones: the posterior error and the chain cost
# vary from document to document, and more documents keep them steady from
# seed to seed.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("wide-vocab", d=5000, k=10, docs=20000, learn_docs=20000, score_docs=6000,
             gen_docs=800, rounds=3, chains=12, chain_steps=50, burn_in=10),
    Workload("many-topics", d=500, k=50, docs=6000, learn_docs=6000, score_docs=4000,
             gen_docs=2000, rounds=3, chains=6, chain_steps=50, burn_in=10),
    Workload("data-path", d=2000, k=20, docs=10000, learn_docs=5000, score_docs=6000,
             gen_docs=2000, rounds=5, chains=4, chain_steps=250, burn_in=50),
)}

# Tiny shapes for the warm-up pass and the self-test.
TINY: Dict[str, Workload] = {w.name: w for w in (
    Workload("wide-vocab", d=300, k=3, docs=400, learn_docs=400, score_docs=400, gen_docs=20,
             rounds=2, chains=2, chain_steps=30, burn_in=10),
    Workload("many-topics", d=60, k=6, docs=400, learn_docs=400, score_docs=400, gen_docs=20,
             rounds=2, chains=2, chain_steps=30, burn_in=10),
    Workload("data-path", d=100, k=4, docs=400, learn_docs=100, score_docs=400, gen_docs=20,
             rounds=2, chains=2, chain_steps=30, burn_in=10),
)}

END_TO_END = {
    "setup_s": "s", "peak_mb": "MB", "learn_s": "s", "recovery_l1": "l1",
    "generate_s": "s",
    "perplexity_s": "s", "infer_s": "s", "infer_h_l1": "l1",
}

_TMB = "MB-tracemalloc"
PER_LAYER = {
    "decompose.whiten_s": "s", "decompose.whiten_peak_mb": _TMB,
    "decompose.decompose_s": "s", "decompose.restarts": "count",
    "decompose.recover_s": "s", "decompose.alpha_l1": "l1",
    "moments.accumulate_s": "s", "moments.accumulate_peak_mb": _TMB,
    "moments.build_m2_s": "s", "moments.build_whitened_m3_s": "s",
    "weights.compute_weights_s": "s", "evaluate.pmi_s": "s",
    "quadrature.calls": "count", "quadrature.panels": "count", "quadrature.s": "s",
    "nid.sample_calls": "count", "nid.sample_s": "s",
    "nid.density_calls": "count", "nid.density_s": "s",
    "synth.generate_self_s": "s",
    "mcmc.self_s": "s", "mcmc.acceptance_rate": "ratio", "mcmc.proposals": "count",
    "mcmc.unmoved_share": "ratio", "mcmc.warnings": "count",
    "io.write_uci_s": "s", "io.read_uci_s": "s", "io.bytes": "bytes",
    "trace.learn_s": "s", "trace.infer_s": "s",
    "trace.overhead_learn_s": "s", "trace.overhead_infer_s": "s",
    "context.nproc": "count", "context.src_lines": "count", "context.corpus_nnz": "count",
}


def _restarts(info: dict, result) -> None:
    info["restarts"] = info.get("restarts", 0) + getattr(result, "restarts_used", 0)


def _panels(info: dict, result) -> None:
    info["panels"] = info.get("panels", 0) + getattr(result, "n_panels", 0)


# Where each layer's public function is looked up by its caller.
TARGETS = (
    Target("nidtopics.decompose", "compute_weights", "weights.compute_weights"),
    Target("nidtopics.decompose", "accumulate", "moments.accumulate"),
    Target("nidtopics.decompose", "build_m2", "moments.build_m2"),
    Target("nidtopics.decompose", "whiten", "decompose.whiten"),
    Target("nidtopics.decompose", "build_whitened_m3", "moments.build_whitened_m3"),
    Target("nidtopics.decompose", "decompose", "decompose.decompose", _restarts),
    Target("nidtopics.decompose", "recover", "decompose.recover"),
    Target("nidtopics.weights", "integrate_semi_infinite", "quadrature", _panels),
    Target("nidtopics.nid", "integrate_semi_infinite", "quadrature", _panels),
    Target("nidtopics.synth", "sample", "nid.sample"),
    Target("nidtopics.evaluate", "sample", "evaluate.prior_sample"),
    Target("nidtopics.mcmc", "density", "nid.density"),
)


class CountingHandler(logging.Handler):
    """Counts warnings per package module instead of printing them."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts: Dict[str, int] = {}

    def emit(self, record: logging.LogRecord) -> None:
        layer = record.name.rsplit(".", 1)[-1]
        self.counts[layer] = self.counts.get(layer, 0) + 1


@dataclass
class Inputs:
    truth: TopicModel
    h: np.ndarray             # true proportions of the corpus documents
    corpus: Corpus
    learn: Corpus
    score: Corpus


def make_inputs(w: Workload, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    family = parse_family(FAMILY)
    A, alpha = inputs.make_truth(rng, w.d, w.k, ALPHA0)
    counts, h = inputs.make_corpus_counts(rng, A, alpha, family.param, w.docs, DOC_LEN)
    corpus = Corpus(counts)
    return Inputs(truth=TopicModel(A=A, alpha=alpha, family=family),
                  h=h, corpus=corpus,
                  learn=corpus.subset(np.arange(w.learn_docs)),
                  score=corpus.subset(np.arange(w.score_docs)))


def src_line_count() -> int:
    src = Path(nidtopics.__file__).parent
    return sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))


class Runner:
    """Makes the package calls of one pass, counts them and checks their outputs."""

    def __init__(self, w: Workload, seed: int, out_dir: Path):
        self.w = w
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0            # calls that raised plus outputs that failed a check
        self.wrong_outputs = 0
        self.problems: List[str] = []

    # -- operation accounting ------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """One package call: timed, counted; an exception is a failed operation."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.problems.append(f"{name} raised")
            traceback.print_exc(file=sys.stderr)
            return FAILED, time.perf_counter() - t0
        return result, time.perf_counter() - t0

    def check(self, ok: bool, what: str) -> None:
        """A failed output check turns the operation it checks into a failure."""
        if not ok:
            self.failed += 1
            self.wrong_outputs += 1
            self.problems.append(what)

    def timed(self, samples: Dict[str, List[float]], key: str, span: Callable, name: str,
              fn: Callable, *args, **kwargs):
        """``call`` inside a span; a successful call's time joins ``samples[key]``."""
        with span(name):
            result, dt = self.call(name, fn, *args, **kwargs)
        if result is not FAILED:
            samples.setdefault(key, []).append(dt)
        return result

    # -- one pass: learn once, then the rounds of the data-path calls --------

    def one_pass(self, inp: Inputs, tracer: Optional[Tracer]) -> Dict[str, float]:
        """Median times by metric name, plus accuracy figures and counts."""
        w = self.w
        span = tracer.span if tracer is not None else _no_span
        samples: Dict[str, List[float]] = {}
        out: Dict[str, float] = {"mcmc_accepted": 0.0, "mcmc_proposals": 0.0,
                                 "mcmc_chains": 0.0, "mcmc_unmoved": 0.0}
        dists: List[float] = []

        if tracer is not None:
            tracemalloc.start()
        model = self.timed(samples, "learn_s", span, "learn", learn, inp.learn,
                           inp.truth.family, w.k, ALPHA0)
        if tracer is not None:
            tracemalloc.stop()
        if model is not FAILED:
            self.check_model(model, inp, out)
        # the data-path calls are interleaved rather than repeated back to
        # back, so their medians span the whole pass
        for r in range(w.rounds):
            self.data_calls(r, inp, span, samples, out, dists)
        out.update({key: statistics.median(vals) for key, vals in samples.items()})
        if dists:
            out["infer_h_l1"] = float(np.mean(dists))
        return out

    def check_model(self, model: TopicModel, inp: Inputs, out: Dict[str, float]) -> None:
        w = self.w
        full = model.A.shape == (w.d, w.k) and not any(
            f.startswith("rank_exhausted") for f in model.diagnostics.get("flags", []))
        self.check(full, f"learn found fewer than k={w.k} components")
        self.check(bool(np.all(model.A >= 0.0))
                   and np.allclose(model.A.sum(axis=0), 1.0, atol=1e-8),
                   "learn returned an A that is not column-stochastic")
        if model.A.shape == (w.d, w.k):
            perm, errs = match_columns(model.A, inp.truth.A)
            out["recovery_l1"] = float(errs.mean())
            out["alpha_l1"] = float(np.abs(model.alpha[perm] - inp.truth.alpha).sum()
                                    / inp.truth.alpha.sum())

    def data_calls(self, r: int, inp: Inputs, span: Callable,
                   samples: Dict[str, List[float]], out: Dict[str, float],
                   dists: List[float]) -> None:
        """Round ``r``: generate with its own seed and chain its own documents."""
        w = self.w
        gen = self.timed(samples, "generate_s", span, "synth.generate", generate, inp.truth,
                         SynthConfig(w.gen_docs, DOC_LEN, self.seed + r))
        if gen is not FAILED:
            written = gen[0]
            self.check(written.counts.shape == (w.gen_docs, w.d)
                       and bool(np.all(written.doc_lengths() == DOC_LEN)),
                       "generate returned documents of the wrong shape or length")
            path = self.out_dir / f"{w.name}-{self.seed}-{os.getpid()}.uci"
            try:
                if self.timed(samples, "write_uci_s", span, "io.write_uci", write_uci,
                              written, path) is not FAILED:
                    out["io_bytes"] = float(path.stat().st_size)
                    back = self.timed(samples, "read_uci_s", span, "io.read_uci", read_uci, path)
                    if back is not FAILED:
                        self.check(back.counts.shape == written.counts.shape
                                   and (back.counts != written.counts).nnz == 0,
                                   "read_uci did not return the corpus written")
            finally:
                path.unlink(missing_ok=True)

        perp = self.timed(samples, "perplexity_s", span, "evaluate.perplexity", perplexity,
                          inp.truth, inp.score, H_SAMPLES, self.seed)
        if perp is not FAILED:
            self.check(bool(np.isfinite(perp)) and perp >= 1.0, "perplexity is not finite")
        if r == 0:   # pmi is reported ungated, so one call a pass is enough
            score = self.timed(samples, "pmi_s", span, "evaluate.pmi", pmi, inp.truth,
                               inp.score, TOP_M)
            if score is not FAILED:
                self.check(bool(np.isfinite(score)), "pmi is not finite")

        # infer_s is the time of every chain of the round, including one
        # that raised: that is the time a caller waited
        infer_s = 0.0
        for j in range(r * w.chains, (r + 1) * w.chains):
            with span("mcmc.run_chain"):
                res, dt = self.call("run_chain", run_chain, inp.corpus.doc_words(j), inp.truth,
                                    w.chain_steps, w.burn_in,
                                    proposal_concentration=PROPOSAL_CONCENTRATION,
                                    seed=self.seed + j)
            infer_s += dt
            if res is FAILED:
                continue
            hbar = posterior_mean_h(res)
            ok = bool(np.all(np.isfinite(hbar))) and abs(hbar.sum() - 1.0) < 1e-8
            self.check(ok, "run_chain posterior mean is not on the simplex")
            dists.append(float(np.abs(hbar - inp.h[j]).sum()))
            out["mcmc_accepted"] += res.acceptance_rate * w.chain_steps
            out["mcmc_proposals"] += w.chain_steps
            out["mcmc_chains"] += 1
            out["mcmc_unmoved"] += res.acceptance_rate == 0.0
        samples.setdefault("infer_s", []).append(infer_s)


FAILED = object()   # result of a call that raised


def _no_span(name):
    return nullcontext()


def _median(passes: List[Dict[str, float]], key: str) -> Optional[float]:
    """Median of one figure over passes; None if no pass produced it."""
    values = [p[key] for p in passes if p.get(key) is not None]
    return float(statistics.median(values)) if values else None


def run(w: Workload, seed: int, seconds: float, trace: bool, import_s: float,
        out_dir: Path):
    """Set up SETUPS times, then run passes while another one fits in ``seconds``.

    A run stops once a further pass, as long as the last one, would end past
    ``seconds``; it always makes at least one.  Untraced: every pass is
    measured.  Traced: passes alternate untraced and traced, at least one of
    each; per-layer figures come from the traced passes and the overhead is
    traced minus untraced.  Returns the result and an ungated context record.
    """
    handler = CountingHandler()
    pkg_log = logging.getLogger("nidtopics")
    pkg_log.addHandler(handler)
    propagate, pkg_log.propagate = pkg_log.propagate, False
    try:
        return _measure(w, seed, seconds, trace, import_s, out_dir, handler)
    finally:
        pkg_log.removeHandler(handler)
        pkg_log.propagate = propagate


def _measure(w: Workload, seed: int, seconds: float, trace: bool, import_s: float,
             out_dir: Path, handler: CountingHandler):
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(w, seed, out_dir)
    setup_times, inp = [], None
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        fresh = make_inputs(w, seed)
        setup_times.append(time.perf_counter() - t0)
        if inp is None:
            inp = fresh
        else:
            runner.check((fresh.corpus.counts != inp.corpus.counts).nnz == 0,
                         "benchmark inputs differ between two set-ups with one seed")
        del fresh

    # warm-up at the tiny shape: lazy imports and first-call set-up stay
    # out of the timed passes
    warm = Runner(TINY[w.name], seed, out_dir)
    warm.one_pass(make_inputs(TINY[w.name], seed), None)
    runner.attempted += warm.attempted
    runner.failed += warm.failed
    runner.wrong_outputs += warm.wrong_outputs
    runner.problems += [f"warm-up: {p}" for p in warm.problems]
    handler.counts.clear()

    plain: List[Dict[str, float]] = []
    traced: List[Dict[str, float]] = []
    pass_s: List[float] = []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        use_trace = trace and len(plain) > len(traced)
        t0 = time.perf_counter()
        if use_trace:
            with tracer.installed(TARGETS):
                traced.append(runner.one_pass(inp, tracer))
        else:
            plain.append(runner.one_pass(inp, None))
        now = time.perf_counter()
        pass_s.append(now - t0)
        if now - start + pass_s[-1] > seconds and (not trace or traced):
            break

    inputs_s = statistics.median(setup_times)
    if not trace:
        metrics = {name: _median(plain, name) for name in END_TO_END}
        metrics["setup_s"] = import_s + inputs_s
        metrics["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, traced, plain, handler, inp)
        units = PER_LAYER
        tracer.write(out_dir / f"trace-{w.name}-{seed}.jsonl")

    for p in runner.problems:
        print(f"check failed: {p}", file=sys.stderr)
    if handler.counts:
        print(f"warnings logged per layer: {handler.counts}", file=sys.stderr)
    if tracer.absent:
        print(f"absent trace targets: {tracer.absent}", file=sys.stderr)
    result = {
        "correct": runner.wrong_outputs == 0 and all(v is not None for v in metrics.values()),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    context = {"passes": len(plain), "traced_passes": len(traced),
               "pass_s": [round(t, 3) for t in pass_s],
               "import_s": round(import_s, 4), "inputs_s": round(inputs_s, 4)}
    return result, context


def layer_metrics(tracer: Tracer, traced: List[dict], plain: List[dict],
                  handler: CountingHandler, inp: Inputs) -> Dict[str, float]:
    """Per-layer figures averaged over the traced passes."""
    n = len(traced)
    agg = summarize(tracer.spans)

    def total(name):
        return agg[name].total_s / n if name in agg else 0.0

    def calls(name):
        return agg[name].calls / n if name in agg else 0

    def peak_mb(name):
        return agg[name].peak_bytes / 2**20 if name in agg else 0.0

    def info(name, key):
        return agg[name].info.get(key, 0) / n if name in agg else 0

    def own(name):
        return agg[name].self_s / n if name in agg else 0.0

    def overhead(key):
        on, off = _median(traced, key), _median(plain, key)
        return None if on is None or off is None else on - off

    proposals = sum(p.get("mcmc_proposals", 0.0) for p in traced)
    chains = sum(p.get("mcmc_chains", 0.0) for p in traced)
    return {
        "decompose.whiten_s": total("decompose.whiten"),
        "decompose.whiten_peak_mb": peak_mb("decompose.whiten"),
        "decompose.decompose_s": total("decompose.decompose"),
        "decompose.restarts": info("decompose.decompose", "restarts"),
        "decompose.recover_s": total("decompose.recover"),
        "decompose.alpha_l1": _median(traced, "alpha_l1"),
        "moments.accumulate_s": total("moments.accumulate"),
        "moments.accumulate_peak_mb": peak_mb("moments.accumulate"),
        "moments.build_m2_s": total("moments.build_m2"),
        "moments.build_whitened_m3_s": total("moments.build_whitened_m3"),
        "weights.compute_weights_s": total("weights.compute_weights"),
        "evaluate.pmi_s": _median(traced, "pmi_s"),
        "quadrature.calls": calls("quadrature"),
        "quadrature.panels": info("quadrature", "panels"),
        "quadrature.s": total("quadrature"),
        "nid.sample_calls": calls("nid.sample"),
        "nid.sample_s": total("nid.sample"),
        "nid.density_calls": calls("nid.density"),
        "nid.density_s": total("nid.density"),
        "synth.generate_self_s": own("synth.generate"),
        "mcmc.self_s": own("mcmc.run_chain"),
        "mcmc.acceptance_rate": (sum(p.get("mcmc_accepted", 0.0) for p in traced) / proposals
                                 if proposals else 0.0),
        "mcmc.proposals": proposals / n,
        "mcmc.unmoved_share": (sum(p.get("mcmc_unmoved", 0.0) for p in traced) / chains
                               if chains else 0.0),
        "mcmc.warnings": handler.counts.get("mcmc", 0) / (n + len(plain)),
        "io.write_uci_s": _median(traced, "write_uci_s"),
        "io.read_uci_s": _median(traced, "read_uci_s"),
        "io.bytes": _median(traced, "io_bytes") or 0.0,
        "trace.learn_s": _median(traced, "learn_s"),
        "trace.infer_s": _median(traced, "infer_s"),
        "trace.overhead_learn_s": overhead("learn_s"),
        "trace.overhead_infer_s": overhead("infer_s"),
        "context.nproc": len(os.sched_getaffinity(0)),
        "context.src_lines": src_line_count(),
        "context.corpus_nnz": int(inp.corpus.counts.nnz),
    }
