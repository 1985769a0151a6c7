"""File formats: UCI bag-of-words corpora, topic models, ground-truth latents.

Every reader sees its file through ``_lines``: decoded as UTF-8, whatever the
locale, and split into lines where text mode splits them, at \\n, \\r\\n and
a lone \\r, and nowhere else.  So a form feed, a vertical tab, U+0085 or
U+2028 is whitespace inside its line, lines are numbered as an editor numbers
them, and a byte that does not decode is a ``FormatError`` at its line.

The corpus format is three header lines (document count D, vocabulary size
W, number of triples NNZ) followed by one ``docID wordID count`` triple per
line, all 1-indexed on disk and 0-indexed in memory.  Writing then reading
reproduces the corpus exactly.

Both directions hold the corpus once or twice, never the file.  ``read_uci``
reads runs of whole lines of about ``_READ_BYTES`` bytes and parses each by
``np.loadtxt`` or, to name a fault's line, line by line, into arrays
allocated from the header: doc and word ids (int32 while D and W allow it)
and int64 counts, 16 bytes per nonzero (B/nnz).  The CSR built from those
arrays (12 B/nnz) puts the peak at about 28 B/nnz plus one run's scratch;
the arrays are dropped before the ``Corpus`` copies the CSR.
``write_uci`` formats ``_WRITE_ROWS`` triples at a time straight from the
CSR rows, about 1 B/nnz of traced memory there.

Topic models are TSV with a versioned tag line so future fields stay
readable; columns of A are written one per line (column-major), with floats
emitted via repr for lossless round trips.
"""
from __future__ import annotations

import os
import stat
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import Corpus
from .decompose import TopicModel, improper_columns
from .families import parse_family
from .synth import TopicAssignment

MODEL_TAG = "nid-topic-model"
MODEL_VERSION = 1
_READ_BYTES = 1 << 16  # bytes of a UCI file decoded and parsed at a time
_WRITE_ROWS = 1 << 14  # triples formatted per write; bounds the Python ints held at once


class FormatError(ValueError):
    """Malformed file, with the offending line number where possible."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _lines(path, raw: bytes, first: int = 1) -> List[str]:
    """The lines of ``raw``, whose first line is line ``first`` of ``path``.

    \\n, \\r\\n and a lone \\r end a line, as in text mode, and the last
    line needs no end.  A byte that does not decode as UTF-8 is a FormatError
    at its line.  Neither \\r nor \\n occurs inside a UTF-8 sequence, so the
    ends are unified before decoding.
    """
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = first + raw.count(b"\n", 0, exc.start)
        raise FormatError(f"{path}:{lineno}: not UTF-8 (byte {raw[exc.start]:#04x})") from None
    if not lines[-1]:
        lines.pop()
    return lines


# ---------------------------------------------------------------------------
# UCI bag-of-words


def read_uci(path) -> Corpus:
    """The corpus of a UCI file; a fault is a FormatError naming its line.

    A fault is reported in one order wherever it sits in the file: an
    undecodable byte, then the header, then too few lines, then a non-blank
    line past the promised triples, then the first malformed triple.  So
    after a fault the rest of the file is still decoded and its lines counted.
    """
    import scipy.sparse as sp

    path = Path(path)
    header: List[str] = []
    n_lines = 0
    arrays = None   # 0-based doc, 0-based word, count, once the header is read
    fault = extra = None   # the first bad header or triple; the first line past the triples
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        # a pipe or a terminal reports no size to bound the header's promise by
        size = st.st_size if stat.S_ISREG(st.st_mode) else None
        for raw in _line_blocks(fh):
            first = n_lines + 1
            lines = _lines(path, raw, first)
            n_lines += len(lines)
            if extra is not None:
                continue
            if len(header) < 3:
                take = 3 - len(header)
                header += lines[:take]
                lines, first = lines[take:], first + take
                if len(header) == 3:
                    try:
                        n_docs, d, nnz, arrays = _uci_header(path, header, size)
                    except FormatError as exc:
                        fault = exc
            if arrays is None:
                continue
            # triples up to line 3 + nnz, blank lines after it
            n = min(len(lines), max(nnz + 4 - first, 0))
            if n and fault is None:
                try:
                    _store_triples(path, lines[:n], first, arrays, n_docs, d, nnz)
                except FormatError as exc:
                    fault = exc
            past = next((first + i for i in range(n, len(lines)) if lines[i].strip()), None)
            if past is not None:
                extra = FormatError(f"{path}:{past}: header promises {nnz} triples, found more")
    raw = lines = None   # the last run is not held at the peak
    if n_lines < 3:
        raise FormatError(f"{path}: expected 3 header lines (D, W, NNZ)")
    if arrays is None:
        raise fault
    if n_lines - 3 < nnz:
        raise FormatError(f"{path}: header promises {nnz} triples, found {n_lines - 3}")
    for error in (extra, fault):
        if error is not None:
            raise error
    counts = sp.csr_matrix((arrays[2], arrays[:2]), shape=(n_docs, d), dtype=np.int64)
    del arrays   # so the peak is the triples and one CSR, or two CSRs, never all three
    return Corpus(counts)


def _line_blocks(fh) -> Iterator[bytes]:
    """The file in runs of whole lines of about ``_READ_BYTES`` each.

    Every run but the last ends in a \\n, or in a \\r that is not the last
    byte read, so none splits a line, a \\r\\n or a UTF-8 sequence, and runs
    decode and split into lines as the whole file would.  A line longer than
    ``_READ_BYTES`` is held whole, as its run.
    """
    pieces: List[bytes] = []
    while chunk := fh.read(_READ_BYTES):
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:
            yield b"".join(pieces) + chunk[:cut]
            pieces = [chunk[cut:]]
        else:
            pieces.append(chunk)
    if tail := b"".join(pieces):
        yield tail


def _uci_header(path: Path, header: Sequence[str],
                size: Optional[int]) -> Tuple[int, int, int, Tuple[np.ndarray, ...]]:
    """D, W and NNZ of the three header lines, and the doc, word and count
    arrays for the triples, no longer than a file of ``size`` bytes can fill."""
    vals = []
    for lineno, line in enumerate(header, start=1):
        try:
            val = int(line.strip())
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad header line {line!r}") from None
        if val < 0:
            raise FormatError(f"{path}:{lineno}: negative header value")
        if val >= 2**63:
            raise FormatError(f"{path}:{lineno}: header value must be below 2**63")
        vals.append(val)
    n_docs, d, nnz = vals
    idx = np.int32 if max(n_docs, d) < 2**31 else np.int64
    try:   # the CSR's D + 1 row offsets, which no count of lines bounds
        np.empty(n_docs + 1, idx)
    except (MemoryError, ValueError):
        raise FormatError(f"{path}:1: header promises {n_docs} documents, "
                          f"too many to allocate {n_docs + 1} row offsets for") from None
    # a valid triple line takes at least 6 bytes, the last one 5, so a
    # regular file holds at most (size + 1) // 6 triples; a pipe's arrays
    # start at _READ_BYTES triples.  Either way they grow as triples
    # arrive, so a header's false promise allocates no more than that
    n = min(nnz, _READ_BYTES if size is None else (size + 1) // 6)
    return n_docs, d, nnz, (np.empty(n, idx), np.empty(n, idx), np.empty(n, np.int64))


def _store_triples(path: Path, body: Sequence[str], first: int,
                   arrays: Tuple[np.ndarray, ...], n_docs: int, d: int, nnz: int) -> None:
    """The triples of lines ``first``.. of ``path``, 0-based, into ``arrays``
    at their places, growing them (to at most ``nnz``) to fit; FormatError at
    the first malformed triple."""
    rows = None
    # one C-parsed pass; it accepts a subset of what int() does, with the
    # same values, and anything it rejects goes to the line-by-line parse.
    # A blank line here is a fault, and loadtxt would skip it.
    if body[-1].strip():
        try:
            rows = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, OverflowError):
            pass
    if (rows is None or rows.shape != (len(body), 3) or rows.min() <= 0
            or rows[:, 0].max() > n_docs or rows[:, 1].max() > d):
        rows = _parse_triples(path, body, first, n_docs, d)
    start, end = first - 4, first - 4 + len(rows)
    if end > len(arrays[0]):
        grown = min(nnz, max(end, 2 * len(arrays[0])))
        for arr in arrays:
            arr.resize(grown, refcheck=False)   # realloc: no second copy held
    doc_ids, word_ids, counts = arrays
    doc_ids[start:end] = rows[:, 0] - 1
    word_ids[start:end] = rows[:, 1] - 1
    counts[start:end] = rows[:, 2]


def _parse_triples(path: Path, body: Sequence[str], first: int, n_docs: int,
                   d: int) -> np.ndarray:
    """Line-by-line parse of lines ``first``..; raises FormatError at the
    first malformed triple."""
    triples = np.empty((len(body), 3), dtype=np.int64)
    for i, line in enumerate(body):
        lineno = first + i
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
    """Triples in (doc, word) order, the order of the canonical CSR rows,
    formatted ``_WRITE_ROWS`` at a time."""
    mat = corpus.counts
    indptr = mat.indptr
    with open(path, "w") as fh:
        fh.write(f"{corpus.n_docs}\n{corpus.d}\n{mat.nnz}\n")
        for start in range(0, mat.nnz, _WRITE_ROWS):
            stop = min(start + _WRITE_ROWS, mat.nnz)
            # the rows with entries in start..stop, and how many each has there
            r0 = int(np.searchsorted(indptr, start, side="right")) - 1
            r1 = int(np.searchsorted(indptr, stop, side="left"))
            per_row = np.diff(np.clip(indptr[r0:r1 + 1], start, stop))
            block = np.column_stack((np.repeat(np.arange(r0 + 1, r1 + 1), per_row),
                                     mat.indices[start:stop] + 1, mat.data[start:stop]))
            fh.write(("%d %d %d\n" * len(block)) % tuple(block.ravel().tolist()))


def read_vocab(path) -> List[str]:
    return [line for line in _lines(path, Path(path).read_bytes()) if line.strip()]


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
    lines = _lines(path, path.read_bytes())
    if not lines or not lines[0].startswith(f"#{MODEL_TAG} v"):
        raise FormatError(f"{path}:1: missing '{MODEL_TAG}' format tag")
    try:
        version = int(lines[0].split("v")[-1])
    except ValueError:
        raise FormatError(f"{path}:1: unreadable version") from None
    if version < 1:
        raise FormatError(f"{path}:1: format version {version} is below 1")
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
        elif key in fields:
            raise FormatError(f"{path}:{lineno}: repeated '{key}' field")
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
    """The records of a ground-truth file: the i-th names doc i, and its h is
    a probability vector."""
    lines = _lines(path, Path(path).read_bytes())
    if not lines or not lines[0].startswith("doc\t"):
        raise FormatError(f"{path}:1: missing ground-truth header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 columns")
        h = np.array(_parse(path, lineno, parts[1].split(","), float))
        zeta = np.array(_parse(path, lineno, parts[2].split(","), int), dtype=int)
        (doc,) = _parse(path, lineno, [parts[0]], int)
        if doc != len(out):
            raise FormatError(f"{path}:{lineno}: doc id {doc}, expected {len(out)}")
        if not np.all(np.isfinite(h)) or improper_columns(h[:, None])[0]:
            raise FormatError(f"{path}:{lineno}: h is not a probability vector")
        try:
            out.append(TopicAssignment(h=h, zeta=zeta))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    return out
