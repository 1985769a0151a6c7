"""File formats: UCI bag-of-words corpora, topic models, ground-truth latents.

The corpus format is three header lines (document count D, vocabulary size
W, number of triples NNZ) followed by one ``docID wordID count`` triple per
line, all 1-indexed on disk and 0-indexed in memory.  Writing then reading
reproduces the corpus exactly.

Topic models are TSV with a versioned tag line so future fields stay
readable; columns of A are written one per line (column-major), with floats
emitted via repr for lossless round trips.

Every reader decodes its file as UTF-8, whatever the locale, and a byte that
does not decode is a ``FormatError`` at its line.
"""
from __future__ import annotations

import io
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .corpus import Corpus
from .decompose import TopicModel, improper_columns
from .families import parse_family
from .synth import TopicAssignment

MODEL_TAG = "nid-topic-model"
MODEL_VERSION = 1
_WRITE_ROWS = 1 << 14  # triples formatted per write; bounds the Python ints held at once


class FormatError(ValueError):
    """Malformed file, with the offending line number where possible."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_text(path) -> str:
    """The file decoded as UTF-8, or FormatError at the line of the first
    undecodable byte (lines end at \\n, \\r\\n or \\r, as in text mode)."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise FormatError(f"{path}:{lineno}: not UTF-8 (byte {raw[exc.start]:#04x})") from None


# ---------------------------------------------------------------------------
# UCI bag-of-words


def read_uci(path) -> Corpus:
    import scipy.sparse as sp

    path = Path(path)
    lines = _read_text(path).splitlines()
    if len(lines) < 3:
        raise FormatError(f"{path}: expected 3 header lines (D, W, NNZ)")

    def header(i: int) -> int:
        try:
            val = int(lines[i].strip())
        except ValueError:
            raise FormatError(f"{path}:{i + 1}: bad header line {lines[i]!r}") from None
        if val < 0:
            raise FormatError(f"{path}:{i + 1}: negative header value")
        return val

    n_docs, d, nnz = header(0), header(1), header(2)
    if len(lines) - 3 < nnz:
        raise FormatError(f"{path}: header promises {nnz} triples, "
                          f"found {len(lines) - 3}")
    extra = next((i for i in range(3 + nnz, len(lines)) if lines[i].strip()), None)
    if extra is not None:
        raise FormatError(f"{path}:{extra + 1}: header promises {nnz} triples, "
                          "found more")
    body = lines[3:3 + nnz]
    triples = None
    if nnz:
        # one C-parsed pass; it accepts a subset of what int() does, with the
        # same values, and anything it rejects goes to the line-by-line parse
        try:
            triples = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, OverflowError):
            pass
    if triples is None or triples.shape != (nnz, 3) or not _triples_in_range(triples, n_docs, d):
        triples = _parse_triples(path, body, n_docs, d)
    doc, word, count = triples.T
    mat = sp.csr_matrix((count, (doc - 1, word - 1)), shape=(n_docs, d), dtype=np.int64)
    return Corpus(mat)


def _triples_in_range(triples: np.ndarray, n_docs: int, d: int) -> bool:
    doc, word, count = triples.T
    return bool(np.all((doc >= 1) & (doc <= n_docs) & (word >= 1) & (word <= d) & (count > 0)))


def _parse_triples(path: Path, body: Sequence[str], n_docs: int, d: int) -> np.ndarray:
    """Line-by-line parse; raises FormatError at the first malformed triple."""
    triples = np.empty((len(body), 3), dtype=np.int64)
    for i, line in enumerate(body):
        lineno = i + 4
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 'docID wordID count'")
        try:
            doc, word, count = (int(p) for p in parts)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: non-integer field") from None
        if not 1 <= doc <= n_docs:
            raise FormatError(f"{path}:{lineno}: docID {doc} outside 1..{n_docs}")
        if not 1 <= word <= d:
            raise FormatError(f"{path}:{lineno}: wordID {word} outside 1..{d} "
                              "(ids are 1-indexed on disk)")
        if count <= 0:
            raise FormatError(f"{path}:{lineno}: count must be positive")
        if count >= 2**63:
            raise FormatError(f"{path}:{lineno}: count must be below 2**63")
        triples[i] = doc, word, count
    return triples


def write_uci(corpus: Corpus, path) -> None:
    mat = corpus.counts.tocoo()
    order = np.lexsort((mat.col, mat.row))
    triples = np.column_stack((mat.row[order] + 1, mat.col[order] + 1, mat.data[order]))
    with open(path, "w") as fh:
        fh.write(f"{corpus.n_docs}\n{corpus.d}\n{mat.nnz}\n")
        for start in range(0, mat.nnz, _WRITE_ROWS):
            block = triples[start:start + _WRITE_ROWS]
            fh.write(("%d %d %d\n" * len(block)) % tuple(block.ravel().tolist()))


def read_vocab(path) -> List[str]:
    fh = io.StringIO(_read_text(path), newline=None)
    return [line.rstrip("\n") for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# topic models


def write_topic_model(model: TopicModel, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"#{MODEL_TAG} v{MODEL_VERSION}\n")
        fh.write(f"d\t{model.d}\n")
        fh.write(f"k\t{model.k}\n")
        fh.write(f"family\t{model.family.spec()}\n")
        fh.write("alpha\t" + "\t".join(_fmt(a) for a in model.alpha) + "\n")
        for j in range(model.k):
            fh.write("topic\t" + "\t".join(_fmt(x) for x in model.A[:, j]) + "\n")


def _parse(path, lineno: int, items: Sequence[str], kind) -> list:
    """``kind`` of every item of one line, or FormatError naming the line."""
    out = []
    for x in items:
        try:
            out.append(kind(x))
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad {kind.__name__} value {x!r}") from None
    return out


def read_topic_model(path) -> TopicModel:
    path = Path(path)
    lines = _read_text(path).splitlines()
    if not lines or not lines[0].startswith(f"#{MODEL_TAG} v"):
        raise FormatError(f"{path}:1: missing '{MODEL_TAG}' format tag")
    try:
        version = int(lines[0].split("v")[-1])
    except ValueError:
        raise FormatError(f"{path}:1: unreadable version") from None
    if version > MODEL_VERSION:
        raise FormatError(f"{path}: format version {version} is newer than supported "
                          f"{MODEL_VERSION}")
    fields = {}
    topics = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        key, _, rest = line.partition("\t")
        if key == "topic":
            topics.append((lineno, _parse(path, lineno, rest.split("\t"), float)))
        else:
            fields[key] = (lineno, rest)
    for needed in ("d", "k", "family", "alpha"):
        if needed not in fields:
            raise FormatError(f"{path}: missing '{needed}' field")
    (d,) = _parse(path, fields["d"][0], [fields["d"][1]], int)
    (k,) = _parse(path, fields["k"][0], [fields["k"][1]], int)
    lineno, spec = fields["family"]
    try:
        family = parse_family(spec)
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from None
    lineno, rest = fields["alpha"]
    alpha = np.array(_parse(path, lineno, rest.split("\t"), float))
    if alpha.size != k:
        raise FormatError(f"{path}:{lineno}: alpha line has {alpha.size} entries, "
                          f"expected k={k}")
    if np.any(alpha <= 0.0):
        raise FormatError(f"{path}:{lineno}: alpha entries must be positive")
    if len(topics) != k:
        raise FormatError(f"{path}: expected {k} topic lines, found {len(topics)}")
    for lineno, column in topics:
        if len(column) != d:
            raise FormatError(f"{path}:{lineno}: topic line has {len(column)} entries, "
                              f"expected d={d}")
    A = np.column_stack([column for _, column in topics])
    bad = np.flatnonzero(improper_columns(A))
    if bad.size:
        raise FormatError(f"{path}:{topics[bad[0]][0]}: topic line is not a probability vector")
    return TopicModel(A=A, alpha=alpha, family=family)


# ---------------------------------------------------------------------------
# ground-truth sidecar for synthetic corpora


def write_ground_truth(assignments: Sequence[TopicAssignment], path) -> None:
    """TSV: docID, comma-joined h, comma-joined topic indices."""
    with open(path, "w") as fh:
        fh.write("doc\th\tzeta\n")
        for i, ta in enumerate(assignments):
            h = ",".join(_fmt(x) for x in ta.h)
            z = ",".join(str(int(t)) for t in ta.zeta)
            fh.write(f"{i}\t{h}\t{z}\n")


def read_ground_truth(path) -> List[TopicAssignment]:
    out = []
    with io.StringIO(_read_text(path), newline=None) as fh:
        header = fh.readline()
        if not header.startswith("doc\t"):
            raise FormatError(f"{path}:1: missing ground-truth header")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 columns")
            h = np.array(_parse(path, lineno, parts[1].split(","), float))
            zeta = np.array(_parse(path, lineno, parts[2].split(","), int), dtype=int)
            try:
                out.append(TopicAssignment(h=h, zeta=zeta))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    return out
