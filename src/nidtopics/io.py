"""File formats: UCI bag-of-words corpora, topic models, ground-truth latents.

The corpus format is three header lines (document count D, vocabulary size
W, number of triples NNZ) followed by one ``docID wordID count`` triple per
line, all 1-indexed on disk and 0-indexed in memory.  Writing then reading
reproduces the corpus exactly.

Both directions hold the corpus once or twice, never the file.  ``read_uci``
reads runs of whole lines of about ``_READ_BYTES`` bytes (a line ends at
\\n, \\r\\n or \\r; a longer line is one run) and parses each by ``np.loadtxt``
or, to name a fault's line, line by line, into arrays allocated from the
header: doc and word ids (int32 while D and W allow it) and int64 counts,
16 bytes per nonzero (B/nnz).  The CSR built from those arrays (12 B/nnz)
and the ``Corpus``'s own copy of it then put the peak at about 28 B/nnz plus
one run's scratch: 28 B/nnz of RSS above the start on a 1.94M-nnz file.
``write_uci`` formats ``_WRITE_ROWS`` triples at a time straight from the
CSR rows, about 1 B/nnz of traced memory there.

Topic models are TSV with a versioned tag line so future fields stay
readable; columns of A are written one per line (column-major), with floats
emitted via repr for lossless round trips.

Every reader decodes its file as UTF-8, whatever the locale, and a byte that
does not decode is a ``FormatError`` at its line.
"""
from __future__ import annotations

import io
import os
import stat
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

import numpy as np

from .corpus import Corpus
from .decompose import TopicModel, improper_columns
from .families import parse_family
from .synth import TopicAssignment

if TYPE_CHECKING:
    import scipy.sparse as sp

MODEL_TAG = "nid-topic-model"
MODEL_VERSION = 1
_READ_BYTES = 1 << 16  # bytes of a UCI file decoded and parsed at a time
_WRITE_ROWS = 1 << 14  # triples formatted per write; bounds the Python ints held at once


class FormatError(ValueError):
    """Malformed file, with the offending line number where possible."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _text_lines(raw: bytes) -> int:
    """Line breaks in ``raw`` as text mode counts them: \\n, \\r\\n and a lone \\r."""
    return raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")


def _decode(path, raw: bytes, first_line: int = 1) -> str:
    """``raw`` decoded as UTF-8, or FormatError at the line of its first
    undecodable byte, counting from ``first_line`` as text mode does."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = first_line + _text_lines(raw[:exc.start])
        raise FormatError(f"{path}:{lineno}: not UTF-8 (byte {raw[exc.start]:#04x})") from None


def _read_text(path) -> str:
    """The whole file decoded as UTF-8 (see ``_decode``)."""
    return _decode(path, Path(path).read_bytes())


# ---------------------------------------------------------------------------
# UCI bag-of-words


def read_uci(path) -> Corpus:
    """The corpus of a UCI file; a fault is a FormatError naming its line."""
    path = Path(path)
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        # a pipe or a terminal reports no size to bound the header's promise by
        reader = _UciReader(path, st.st_size if stat.S_ISREG(st.st_mode) else None)
        for raw in _line_blocks(fh):
            reader.feed(raw)
    return Corpus(reader.matrix())


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


class _UciReader:
    """A UCI file, fed to ``feed`` in runs of whole lines and parsed into
    arrays allocated from the header; ``matrix`` gives the counts.

    A fault is reported in one order wherever it sits in the file: an
    undecodable byte, then the header, then too few lines, then a non-blank
    line past the promised triples, then the first malformed triple.  So
    after a fault the rest of the file is still decoded and its lines counted.
    """

    def __init__(self, path: Path, size: Optional[int]):
        self.path = path
        self.size = size
        self.header: List[str] = []
        self.lines = 0        # lines fed so far, as str.splitlines counts them
        self.text_lines = 0   # the same, as text mode counts them
        self.n_docs = self.d = self.nnz = None
        self.arrays: Optional[tuple] = None     # 0-based doc, 0-based word, count
        self.fault: Optional[FormatError] = None   # in the header or a triple
        self.extra: Optional[FormatError] = None   # a line past the promised triples

    def feed(self, raw: bytes) -> None:
        first = self.lines + 1
        text = _decode(self.path, raw, self.text_lines + 1)
        self.text_lines += _text_lines(raw)
        lines = text.splitlines()
        self.lines += len(lines)
        if self.extra is not None:
            return
        if len(self.header) < 3:
            start = 3 - len(self.header)
            self.header += lines[:start]
            if len(self.header) < 3:
                return
            self._read_header()
            lines, first = lines[start:], first + start
        if self.nnz is not None:
            self._body(lines, first)

    def _read_header(self) -> None:
        vals = []
        for i, line in enumerate(self.header):
            try:
                val = int(line.strip())
            except ValueError:
                self.fault = FormatError(f"{self.path}:{i + 1}: bad header line {line!r}")
                return
            if val < 0:
                self.fault = FormatError(f"{self.path}:{i + 1}: negative header value")
                return
            if val >= 2**63:
                self.fault = FormatError(f"{self.path}:{i + 1}: header value must be below 2**63")
                return
            vals.append(val)
        idx = np.int32 if max(vals[:2]) < 2**31 else np.int64
        try:   # the CSR's D + 1 row offsets, which no count of lines bounds
            np.empty(vals[0] + 1, idx)
        except (MemoryError, ValueError):
            self.fault = FormatError(f"{self.path}:1: header promises {vals[0]} documents, "
                                     f"too many to allocate {vals[0] + 1} row offsets for")
            return
        self.n_docs, self.d, self.nnz = vals
        # a valid triple line takes at least 6 bytes, the last one 5, so a
        # regular file holds at most (size + 1) // 6 triples; a pipe's arrays
        # start at _READ_BYTES triples.  Either way they grow as triples
        # arrive, so a header's false promise allocates no more than that
        bound = _READ_BYTES if self.size is None else (self.size + 1) // 6
        n = min(self.nnz, bound)
        self.arrays = (np.empty(n, idx), np.empty(n, idx), np.empty(n, np.int64))

    def _body(self, lines: List[str], first: int) -> None:
        """Lines from line ``first`` on: triples up to line 3 + nnz, blank after it."""
        n = min(len(lines), max(self.nnz + 4 - first, 0))
        if n and self.fault is None:
            self._parse(lines[:n], first)
        extra = next((i for i in range(n, len(lines)) if lines[i].strip()), None)
        if extra is not None:
            self.extra = FormatError(f"{self.path}:{first + extra}: header promises "
                                     f"{self.nnz} triples, found more")

    def _parse(self, body: List[str], first: int) -> None:
        """Triples of lines ``first``..; a fault is kept, not raised."""
        rows = None
        # one C-parsed pass; it accepts a subset of what int() does, with the
        # same values, and anything it rejects goes to the line-by-line parse.
        # A blank line here is a fault, and loadtxt would skip it.
        if body[-1].strip():
            try:
                rows = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
            except (ValueError, OverflowError):
                pass
        if rows is None or rows.shape != (len(body), 3) or not self._store(rows, first):
            try:
                self._store(_parse_triples(self.path, body, first, self.n_docs, self.d), first)
            except FormatError as exc:
                self.fault = exc

    def _store(self, rows: np.ndarray, first: int) -> bool:
        """Keep the triples of lines ``first``.. if every one is in range."""
        doc, word, count = rows.T
        if not np.all((doc >= 1) & (doc <= self.n_docs) & (word >= 1) & (word <= self.d)
                      & (count > 0)):
            return False
        end = first - 4 + len(rows)
        if end > len(self.arrays[0]):
            grown = min(self.nnz, max(end, 2 * len(self.arrays[0])))
            for arr in self.arrays:
                arr.resize(grown, refcheck=False)   # realloc: no second copy held
        doc_ids, word_ids, counts = self.arrays
        doc_ids[first - 4:end] = doc - 1
        word_ids[first - 4:end] = word - 1
        counts[first - 4:end] = count
        return True

    def matrix(self) -> sp.csr_matrix:
        """The counts as CSR, or the file's first fault in the order above."""
        import scipy.sparse as sp

        if self.lines < 3:
            raise FormatError(f"{self.path}: expected 3 header lines (D, W, NNZ)")
        if self.nnz is None:
            raise self.fault
        if self.lines - 3 < self.nnz:
            raise FormatError(f"{self.path}: header promises {self.nnz} triples, "
                              f"found {self.lines - 3}")
        for fault in (self.extra, self.fault):
            if fault is not None:
                raise fault
        doc, word, count = self.arrays
        self.arrays = None
        return sp.csr_matrix((count, (doc, word)), shape=(self.n_docs, self.d),
                             dtype=np.int64)


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
