"""Command-line interface.

Subcommands: generate, weights, learn, eval, tune, infer, correlate.
Every command takes --seed (all randomness flows from it, so fixed-seed runs
are byte-identical) and --quiet.  ``infer`` draws each document's posterior
with the exact augmented Gibbs sampler of ``mcmc``.
Exit codes: 0 success, 1 usage error, 2 runtime error (message names the
failing stage).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as nio
from .decompose import PowerMethodConfig, StageError, TopicModel, learn
from .evaluate import perplexity, pmi, top_words
from .families import parse_family
from .mcmc import posterior_mean_h, run_chain
from .nid import NIDModel, correlation_profile, ig_mean_correlation_profile
from .synth import SynthConfig, generate
from .tuner import TuneCandidate, tune
from .weights import compute_weights


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit code 1
        raise UsageError(message)


def _positive(text: str) -> float:
    """``text`` as a finite positive float, for an argparse ``type``."""
    try:
        if 0.0 < (val := float(text)) < float("inf"):
            return val
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")


def _alpha0(text: str):
    """--alpha0 of ``learn``: "fit" or a finite positive float."""
    return text if text == "fit" else _positive(text)


def _alpha_vector(text: str) -> np.ndarray:
    """--alpha: comma-separated finite positive floats."""
    return np.array([_positive(x) for x in text.split(",")])


def build_parser() -> _Parser:
    p = _Parser(prog="nidtopics",
                description="Spectral learning for simplex-prior topic models")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--quiet", action="store_true", help="suppress progress notes")
    sub = p.add_subparsers(dest="command")

    g = sub.add_parser("generate", help="sample a synthetic corpus from a random model")
    g.add_argument("--family", required=True, help="family spec, e.g. gamma:1, invgauss:4, stable:0.5")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--docs", type=int, required=True)
    g.add_argument("--len", type=int, required=True, dest="doc_len")
    g.add_argument("--alpha0", type=_positive, default=1.0)
    g.add_argument("--alpha", type=_alpha_vector, default=None,
                   help="comma-separated concentration vector (overrides --alpha0 split)")
    g.add_argument("--topic-concentration", type=_positive, default=0.1,
                   help="Dirichlet concentration for the random topic columns")
    g.add_argument("--out", required=True)

    w = sub.add_parser("weights", help="print the centering weights for a family")
    w.add_argument("--family", required=True)
    w.add_argument("--alpha0", type=_positive, required=True)
    w.add_argument("--out", default=None)

    l = sub.add_parser("learn", help="learn a topic model from a UCI corpus")
    l.add_argument("--corpus", required=True)
    l.add_argument("--family", required=True)
    l.add_argument("--k", type=int, required=True)
    l.add_argument("--alpha0", type=_alpha0, default="1.0",
                   help="total concentration, or 'fit' to estimate it")
    l.add_argument("--iterations", type=int, default=100)
    l.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="score a model on a corpus")
    e.add_argument("--model", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--vocab", default=None, help="token file, one word per line")
    e.add_argument("--pmi", action="store_true")
    e.add_argument("--top-m", type=int, default=10)
    e.add_argument("--samples", type=int, default=512)
    e.add_argument("--out", default=None)

    t = sub.add_parser("tune", help="grid search over families and alpha0")
    t.add_argument("--corpus", required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--grid", required=True,
                   help="semicolon-joined candidates 'famspec[@a0,a0,...]', "
                        "e.g. 'gamma:1@0.5,1;invgauss:4@1'")
    t.add_argument("--split", type=float, default=0.8)
    t.add_argument("--samples", type=int, default=256)
    t.add_argument("--out-model", default=None)
    t.add_argument("--out", default=None)

    i = sub.add_parser("infer", help="per-document posterior means of the topic "
                                     "proportions, by exact Gibbs sampling")
    i.add_argument("--model", required=True)
    i.add_argument("--corpus", required=True)
    i.add_argument("--steps", type=int, required=True)
    i.add_argument("--burn", type=int, required=True)
    i.add_argument("--thin", type=int, default=1)
    i.add_argument("--out", default=None)

    c = sub.add_parser("correlate", help="correlation-sign sweep over a family parameter")
    c.add_argument("--family", required=True, choices=["gamma", "invgauss", "stable"])
    c.add_argument("--alpha", type=_alpha_vector, required=True,
                   help="comma-separated concentration vector")
    c.add_argument("--sweep", required=True, help="lo:hi:n parameter grid")
    c.add_argument("--log", action="store_true", help="log-spaced grid")
    c.add_argument("--mean-shape", action="store_true",
                   help="invgauss only: per-coordinate means alpha_i with common "
                        "shape (the non-homogeneous variant that admits positive "
                        "correlations)")
    c.add_argument("--out", default=None)
    return p


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _note(args, msg: str):
    if not args.quiet:
        print(msg, file=sys.stderr)


def _cmd_generate(args) -> int:
    for flag, val in (("--k", args.k), ("--d", args.d)):
        if val < 1:
            raise UsageError(f"{flag} is {val}, must be at least 1")
    family = parse_family(args.family)
    rng = np.random.default_rng(args.seed)
    if args.alpha is not None:
        alpha = args.alpha
        if alpha.size != args.k:
            raise UsageError(f"--alpha has {alpha.size} entries but --k is {args.k}")
    else:
        alpha = np.full(args.k, args.alpha0 / args.k)
    A = rng.dirichlet(np.full(args.d, args.topic_concentration), size=args.k).T
    model = TopicModel(A=A, alpha=alpha, family=family)
    corpus, latents = generate(model, SynthConfig(args.docs, args.doc_len, seed=args.seed))
    nio.write_uci(corpus, args.out)
    nio.write_topic_model(model, args.out + ".model.tsv")
    nio.write_ground_truth(latents, args.out + ".truth.tsv")
    _note(args, f"wrote {args.docs} docs (d={args.d}) to {args.out} "
                f"+ .model.tsv + .truth.tsv")
    return 0


def _cmd_weights(args) -> int:
    family = parse_family(args.family)
    w = compute_weights(family, args.alpha0)
    _emit(f"v\tv1\tv2\n{w.v:.6f}\t{w.v1:.6f}\t{w.v2:.6f}\n", args.out)
    return 0


def _cmd_learn(args) -> int:
    power = PowerMethodConfig(n_iterations=args.iterations, seed=args.seed)
    family = parse_family(args.family)
    corpus = nio.read_uci(args.corpus)
    model = learn(corpus, family, args.k, args.alpha0, power)
    nio.write_topic_model(model, args.out)
    eigs = model.diagnostics.get("lambdas", [])
    _note(args, "eigenvalues: " + " ".join(f"{x:.6g}" for x in eigs))
    fitted = f"  fitted alpha0: {model.alpha0:.6g}" if args.alpha0 == "fit" else ""
    _note(args, f"residual: {model.diagnostics.get('residual', float('nan')):.6g}{fitted}")
    for flag in model.diagnostics.get("flags", []):
        _note(args, f"flag: {flag}")
    return 0


def _cmd_eval(args) -> int:
    model = nio.read_topic_model(args.model)
    corpus = nio.read_uci(args.corpus)
    vocab = nio.read_vocab(args.vocab) if args.vocab else None
    if vocab is not None and len(vocab) != corpus.d:
        raise ValueError(f"vocabulary has {len(vocab)} tokens but corpus d={corpus.d}")
    lines = [f"perplexity\t{perplexity(model, corpus, args.samples, args.seed):.6f}"]
    if args.pmi:
        lines.append(f"pmi\t{pmi(model, corpus, args.top_m):.6f}")
    for t, words in enumerate(top_words(model, args.top_m)):
        names = [vocab[w] if vocab else str(w) for w in words]
        lines.append(f"topic\t{t}\t" + "\t".join(names))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_grid(text: str):
    candidates = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        spec, _, a0s = chunk.partition("@")
        family = parse_family(spec)
        try:
            alphas = [_positive(x) for x in a0s.split(",")] if a0s else [1.0]
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"--grid: {exc} in {chunk!r}") from None
        for a0 in alphas:
            candidates.append(TuneCandidate(family, a0))
    if not candidates:
        raise UsageError("empty candidate grid")
    return candidates


def _cmd_tune(args) -> int:
    candidates = _parse_grid(args.grid)
    corpus = nio.read_uci(args.corpus)
    model, report = tune(corpus, args.k, candidates,
                         split=args.split, seed=args.seed, n_h_samples=args.samples)
    header = "family\talpha0\tv\tv1\tv2\tperplexity\tresidual\terror"
    lines = [header]
    for row in report.as_table():
        lines.append(f"{row['family']}\t{row['alpha0']:g}\t{row['v']:.6f}\t"
                     f"{row['v1']:.6f}\t{row['v2']:.6f}\t{row['perplexity']:.6f}\t"
                     f"{row['residual']:.6g}\t{row['error']}")
    lines.append(f"best\t{report.as_table()[report.best_index]['family']}"
                 f"\t{report.rows[report.best_index].candidate.alpha0:g}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.out_model:
        nio.write_topic_model(model, args.out_model)
    return 0


def _cmd_infer(args) -> int:
    model = nio.read_topic_model(args.model)
    corpus = nio.read_uci(args.corpus)
    if corpus.d != model.d:
        raise ValueError(f"model d={model.d} but corpus d={corpus.d}")

    lines = ["doc\t" + "\t".join(f"h{j}" for j in range(model.k))]
    for i in range(corpus.n_docs):
        res = run_chain(corpus.doc_words(i), model, args.steps, args.burn,
                        seed=np.random.SeedSequence(args.seed, spawn_key=(i,))
                        .generate_state(1)[0], thin=args.thin)
        lines.append(f"{i}\t" + "\t".join(f"{x:.6f}" for x in posterior_mean_h(res)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_correlate(args) -> int:
    alpha = args.alpha
    lo_s, _, rest = args.sweep.partition(":")
    hi_s, _, n_s = rest.partition(":")
    try:
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise UsageError(f"bad sweep spec {args.sweep!r}; expected lo:hi:n") from None
    if n < 1 or lo <= 0 or hi < lo:
        raise UsageError("sweep needs 0 < lo <= hi and n >= 1")
    grid = np.geomspace(lo, hi, n) if args.log else np.linspace(lo, hi, n)
    if args.mean_shape and args.family != "invgauss":
        raise UsageError("--mean-shape applies to the invgauss family only")

    lines = ["lambda_or_gamma,positive_proportion"]
    for value in grid:
        if args.mean_shape:
            _, prop = ig_mean_correlation_profile(alpha, float(value))
        else:
            family = parse_family(f"{args.family}:{value:g}")
            _, prop = correlation_profile(NIDModel(family, alpha))
        lines.append(f"{value:g},{prop:g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "weights": _cmd_weights,
    "learn": _cmd_learn,
    "eval": _cmd_eval,
    "tune": _cmd_tune,
    "infer": _cmd_infer,
    "correlate": _cmd_correlate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
