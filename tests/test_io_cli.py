import io
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidtopics import Corpus, corpus_from_docs, gamma_family, invgauss_family
from nidtopics import io as nio
from nidtopics.cli import main
from nidtopics.decompose import TopicModel
from nidtopics.io import (
    FormatError, read_ground_truth, read_topic_model, read_uci, read_vocab,
    write_ground_truth, write_topic_model, write_uci,
)
from nidtopics.synth import TopicAssignment


# ---------------------------------------------------------------------------
# UCI format


def test_minimal_uci_file(tmp_path):
    p = tmp_path / "c.uci"
    p.write_text("2\n3\n3\n1 1 2\n1 3 1\n2 2 4\n")
    corpus = read_uci(p)
    assert corpus.n_docs == 2
    assert corpus.d == 3
    assert corpus.counts[0, 0] == 2
    assert corpus.counts[0, 2] == 1
    assert corpus.counts[1, 1] == 4


def test_uci_round_trip(tmp_path):
    corpus = corpus_from_docs([{0: 2, 2: 1}, {1: 5}, {0: 1, 1: 1, 2: 1}], d=3)
    p = tmp_path / "c.uci"
    write_uci(corpus, p)
    back = read_uci(p)
    assert (corpus.counts != back.counts).nnz == 0


@given(st.lists(st.dictionaries(st.integers(0, 7), st.integers(1, 9),
                                min_size=1, max_size=5),
                min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_uci_round_trip_property(tmp_path_factory, docs):
    corpus = corpus_from_docs(docs, d=8)
    p = tmp_path_factory.mktemp("uci") / "c.uci"
    write_uci(corpus, p)
    back = read_uci(p)
    assert (corpus.counts != back.counts).nnz == 0


def test_uci_rejects_zero_word_id(tmp_path):
    p = tmp_path / "bad.uci"
    p.write_text("1\n3\n1\n1 0 2\n")
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert ":4:" in str(exc.value)


def test_uci_rejects_bad_counts_and_headers(tmp_path):
    p = tmp_path / "bad.uci"
    p.write_text("1\n3\n1\n1 2 0\n")
    with pytest.raises(FormatError):
        read_uci(p)
    p.write_text("1\nx\n1\n1 2 1\n")
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert ":2:" in str(exc.value)
    p.write_text("1\n3\n5\n1 2 1\n")
    with pytest.raises(FormatError):
        read_uci(p)


@pytest.mark.parametrize("text, message", [
    # D + 1 row offsets are 7.28 TiB: no line count bounds D, so the header is the fault
    ("1000000000000\n3\n1\n1 1 1\n",
     ":1: header promises 1000000000000 documents, too many to allocate"),
    (f"{2**62}\n3\n1\n1 1 1\n", f":1: header promises {2**62} documents"),
    (f"1\n{2**63}\n1\n1 1 1\n", ":2: header value must be below 2**63"),
])
def test_uci_rejects_header_sizes_beyond_memory(tmp_path, text, message):
    p = tmp_path / "huge.uci"
    p.write_text(text)
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert f"{p}{message}" in str(exc.value)


def test_uci_rejects_out_of_range_doc(tmp_path):
    p = tmp_path / "bad.uci"
    p.write_text("2\n3\n1\n3 1 1\n")
    with pytest.raises(FormatError):
        read_uci(p)


def _uci_with_bad_row(bad, n_good=150):
    """Header for 4 docs x 6 words, n_good valid rows, then ``bad``, then
    one more valid row; ``bad`` sits on line n_good + 4."""
    good = [f"{1 + i % 4} {1 + i % 6} {1 + i % 3}" for i in range(n_good)]
    rows = good + [bad, "2 2 2"]
    return f"4\n6\n{len(rows)}\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("bad, message", [
    ("1 2", "expected 'docID wordID count'"),
    ("1 2 3 4", "expected 'docID wordID count'"),
    ("", "expected 'docID wordID count'"),
    ("1 2 3 # note", "expected 'docID wordID count'"),
    ("1 two 3", "non-integer field"),
    ("1 2 3.0", "non-integer field"),
    ("5 2 1", "docID 5 outside 1..4"),
    ("0 2 1", "docID 0 outside 1..4"),
    ("1 7 1", "wordID 7 outside 1..6 (ids are 1-indexed on disk)"),
    ("1 2 0", "count must be positive"),
    ("1 2 -3", "count must be positive"),
    (f"1 2 {2**63}", "count must be below 2**63"),
])
def test_uci_reports_the_line_of_a_bad_row_after_good_ones(tmp_path, bad, message):
    p = tmp_path / "bad.uci"
    p.write_text(_uci_with_bad_row(bad))
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert str(exc.value) == f"{p}:154: {message}"


def test_uci_first_bad_row_wins(tmp_path):
    p = tmp_path / "bad.uci"
    p.write_text("2\n3\n4\n1 1 1\n1 9 1\n1 1\n3 1 1\n")
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert ":5: wordID 9" in str(exc.value)


def test_uci_rejects_lines_after_the_promised_triples(tmp_path):
    p = tmp_path / "c.uci"
    p.write_text("2\n3\n2\n1 1 2\n2 3 1\nnot a triple\n9 9 9\n")
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert str(exc.value) == f"{p}:6: header promises 2 triples, found more"
    p.write_text("2\n3\n2\n1 1 2\n2 3 1\n1 2 1\n")  # one triple too many
    with pytest.raises(FormatError, match=r":6: header promises 2 triples"):
        read_uci(p)
    p.write_text("2\n3\n2\n1 1 2\n2 3 1\n\n  \n\t\n3 1 1\n")  # first extra line past blanks
    with pytest.raises(FormatError, match=r":9: "):
        read_uci(p)


def test_uci_accepts_trailing_blank_lines(tmp_path):
    p = tmp_path / "c.uci"
    p.write_text("2\n3\n2\n1 1 2\n2 3 1\n\n   \n")
    corpus = read_uci(p)
    assert corpus.counts.toarray().tolist() == [[2, 0, 0], [0, 0, 1]]


def test_uci_reader_accepts_what_int_accepts(tmp_path):
    p = tmp_path / "c.uci"
    p.write_text("2\n3\n3\n 1\t1  2 \n+1 3 1_0\n02 2 4\n")
    corpus = read_uci(p)
    assert corpus.counts.toarray().tolist() == [[2, 0, 10], [0, 4, 0]]


def test_write_uci_bytes(tmp_path):
    corpus = corpus_from_docs([{2: 1, 0: 12}, {}, {3: 2, 1: 1}], d=4)
    p = tmp_path / "c.uci"
    write_uci(corpus, p)
    assert p.read_bytes() == b"3\n4\n4\n1 1 12\n1 3 1\n3 2 1\n3 4 2\n"


# ---------------------------------------------------------------------------
# UCI files read in blocks: every fault names its line, wherever the blocks
# split the file, and the C-parsed and line-wise paths read the same counts


@pytest.fixture(params=[1, 5, 16, 64])
def small_blocks(request, monkeypatch):
    monkeypatch.setattr(nio, "_READ_BYTES", request.param)


@pytest.mark.parametrize("bad, message", [
    ("1 2", "expected 'docID wordID count'"),
    ("", "expected 'docID wordID count'"),
    ("1 two 3", "non-integer field"),
    ("5 2 1", "docID 5 outside 1..4"),
    ("1 7 1", "wordID 7 outside 1..6 (ids are 1-indexed on disk)"),
    ("1 2 0", "count must be positive"),
    (f"1 2 {2**63}", "count must be below 2**63"),
])
def test_uci_bad_row_in_a_later_block(tmp_path, small_blocks, bad, message):
    p = tmp_path / "bad.uci"
    p.write_text(_uci_with_bad_row(bad, n_good=30))
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert str(exc.value) == f"{p}:34: {message}"


def test_uci_extra_triple_past_blanks_in_a_later_block(tmp_path, small_blocks):
    p = tmp_path / "c.uci"
    p.write_text("2\n3\n2\n1 1 2\n2 3 1\n\n  \n\t\n3 1 1\n")
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert str(exc.value) == f"{p}:9: header promises 2 triples, found more"


@pytest.mark.parametrize("raw, lineno", [
    (b"\xff2\n3\n1\n1 2 1\n", 1),
    (b"2\n3\n2\n1 2 1\n2 \xff 1\n", 5),
    (b"2\r\n3\r\n2\r\n1 2 1\r\n2 \xff 1\r\n", 5),
    (b"2\r3\r2\r1 2 1\r2 \xff 1\r", 5),
    (b"2\n3\n2\n1 2 1\n2 2 1\n\n\xff\n", 7),
], ids=["header", "triple", "crlf", "cr", "past-the-triples"])
def test_uci_non_utf8_byte_in_a_later_block(tmp_path, small_blocks, raw, lineno):
    p = tmp_path / "c.uci"
    p.write_bytes(raw)
    _assert_bad_byte_at(read_uci, p, lineno)


@pytest.mark.parametrize("eol", ["\r\n", "\r", "mixed"])
def test_uci_line_endings_in_blocks(tmp_path, small_blocks, eol):
    def uci(last):
        lines = ["2", "3", "3", "1 1 2", "1 3 1", last]
        ends = ["\r", "\n", "\r\n"] * 2 if eol == "mixed" else [eol] * 6
        return "".join(line + end for line, end in zip(lines, ends)).encode()

    p = tmp_path / "c.uci"
    p.write_bytes(uci("2 2 4"))
    assert read_uci(p).counts.toarray().tolist() == [[2, 0, 1], [0, 4, 0]]
    p.write_bytes(uci("2 9 4"))
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert str(exc.value) == f"{p}:6: wordID 9 outside 1..3 (ids are 1-indexed on disk)"


def test_uci_int_only_tokens_in_blocks(tmp_path, small_blocks):
    # a multi-byte digit and a multi-byte blank line must not be split either
    p = tmp_path / "c.uci"
    rows = " 1\t1  2 \n+1 3 1_0\n02 2 4\n2 1 \u0661\n"
    p.write_bytes(f"2\n3\n4\n{rows}\u3000\n".encode("utf-8"))
    assert read_uci(p).counts.toarray().tolist() == [[2, 0, 10], [1, 4, 0]]
    p.write_bytes(f"2\n3\n5\n{rows}2 1 1_\n".encode("utf-8"))
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert str(exc.value) == f"{p}:8: non-integer field"


def test_uci_round_trip_in_blocks(tmp_path, small_blocks):
    rng = np.random.default_rng(3)
    docs = [{int(w): int(c) for w, c in zip(rng.choice(40, size=6, replace=False),
                                            rng.integers(1, 300, size=6))}
            for _ in range(30)]
    docs[4] = {}
    docs[9] = {7: 2**63 - 1}
    corpus = corpus_from_docs(docs, d=40)
    p = tmp_path / "c.uci"
    write_uci(corpus, p)
    back = read_uci(p)
    assert back.counts.shape == corpus.counts.shape
    assert (back.counts != corpus.counts).nnz == 0


def test_uci_runs_end_at_lone_cr(monkeypatch):
    monkeypatch.setattr(nio, "_READ_BYTES", 4)
    raw = b"2\r3\r2\r1 1 2\r\n2 3 1\r"
    runs = list(nio._line_blocks(io.BytesIO(raw)))
    assert b"".join(runs) == raw
    assert len(runs) > 3
    assert all(run.endswith((b"\r", b"\n")) for run in runs)
    assert not any(run.startswith(b"\n") for run in runs)


def _read_uci_through_a_fifo(p, raw):
    os.mkfifo(p)

    def write():
        with open(p, "wb") as fh:
            fh.write(raw)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return read_uci(p)
    finally:
        writer.join()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_uci_reads_through_a_pipe(tmp_path, small_blocks):
    rng = np.random.default_rng(5)
    docs = [{int(w): int(c) for w, c in zip(rng.choice(30, size=5, replace=False),
                                            rng.integers(1, 9, size=5))}
            for _ in range(40)]
    corpus = corpus_from_docs(docs, d=30)
    p = tmp_path / "c.uci"
    write_uci(corpus, p)
    back = _read_uci_through_a_fifo(tmp_path / "fifo.uci", p.read_bytes())
    assert back.counts.shape == corpus.counts.shape
    assert (back.counts != corpus.counts).nnz == 0
    with pytest.raises(FormatError) as exc:   # nothing is allocated for the promise
        _read_uci_through_a_fifo(tmp_path / "promise.uci", f"2\n3\n{10**15}\n1 1 1\n".encode())
    assert str(exc.value) == f"{tmp_path / 'promise.uci'}: header promises {10**15} triples, found 1"


def test_uci_too_few_lines_is_reported_before_a_bad_row(tmp_path):
    p = tmp_path / "c.uci"
    p.write_text("2\n3\n5\n1 x 1\n")
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert str(exc.value) == f"{p}: header promises 5 triples, found 1"
    p.write_text(f"2\n3\n{10**15}\n1 1 1\n")   # nothing is allocated for the promise
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert str(exc.value) == f"{p}: header promises {10**15} triples, found 1"


@pytest.mark.parametrize("blank", ["\f", "\v", "\u0085", "\u2028", "\x1c"],
                         ids=["ff", "vt", "nel", "ls", "fs"])
def test_uci_other_breaks_are_whitespace_inside_a_line(tmp_path, small_blocks, blank):
    # only \n, \r\n and a lone \r end a line, so the bad row is line 6, as
    # an editor numbers it; no seventh line is counted as a triple too many
    p = tmp_path / "c.uci"
    p.write_bytes(f"3\n3\n3\n1 1 1{blank}\n2 2 2\n3 3 x\n".encode("utf-8"))
    with pytest.raises(FormatError) as exc:
        read_uci(p)
    assert str(exc.value) == f"{p}:6: non-integer field"
    p.write_bytes(f"3\n3\n3\n1 1 1{blank}\n2 2 2\n3 3 3\n".encode("utf-8"))
    assert read_uci(p).counts.toarray().tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 3]]


def test_uci_form_feed_between_fields_is_one_triple(tmp_path, small_blocks):
    p = tmp_path / "c.uci"
    p.write_bytes(b"3\n3\n2\n1 1 1\n2 2 \x0c2\n")
    assert read_uci(p).counts.toarray().tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 0]]


def test_read_uci_peak_memory_per_nonzero(tmp_path):
    import tracemalloc

    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    n_docs, d, per_doc = 2000, 3000, 80
    docs = np.repeat(np.arange(n_docs), per_doc)
    words = rng.integers(0, d, size=docs.size)
    corpus = Corpus(sp.csr_matrix((rng.integers(1, 5, size=docs.size), (docs, words)),
                                  shape=(n_docs, d)))
    nnz = corpus.counts.nnz
    assert nnz >= 100_000
    p = tmp_path / "c.uci"
    write_uci(corpus, p)
    read_uci(p)   # first-call imports are not the reader's memory
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        back = read_uci(p)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert (back.counts != corpus.counts).nnz == 0
    assert peak < 40 * nnz


# ---------------------------------------------------------------------------
# model serialization


def _model():
    rng = np.random.default_rng(0)
    A = rng.dirichlet(np.ones(7) * 0.4, size=3).T
    return TopicModel(A=A, alpha=np.array([0.4, 0.25, 0.35]),
                      family=invgauss_family(4.0))


def test_model_round_trip(tmp_path):
    model = _model()
    p = tmp_path / "m.tsv"
    write_topic_model(model, p)
    back = read_topic_model(p)
    assert np.array_equal(back.A, model.A)
    assert np.array_equal(back.alpha, model.alpha)
    assert back.family.kind == "invgauss"
    assert back.family.param == 4.0


def test_model_requires_format_tag(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("d\t3\n")
    with pytest.raises(FormatError):
        read_topic_model(p)


def test_model_rejects_newer_version(tmp_path):
    model = _model()
    p = tmp_path / "m.tsv"
    write_topic_model(model, p)
    text = p.read_text().replace("v1", "v99")
    p.write_text(text)
    with pytest.raises(FormatError):
        read_topic_model(p)


@pytest.mark.parametrize("line, replacement, lineno", [
    ("topic\t", "topic\t0.5\tx\t", 6),      # non-numeric topic entry
    ("d\t7", "d\ttwo", 2),                  # non-numeric dimension
    ("topic\t", "topic\t0.5\t", 6),         # topic line one entry too long
])
def test_model_bad_line_names_its_line(tmp_path, line, replacement, lineno):
    p = tmp_path / "m.tsv"
    write_topic_model(_model(), p)
    p.write_text(p.read_text().replace(line, replacement, 1))
    with pytest.raises(FormatError) as exc:
        read_topic_model(p)
    assert f"{p}:{lineno}:" in str(exc.value)


def test_model_alpha_of_wrong_length_names_its_line(tmp_path):
    p = tmp_path / "m.tsv"
    write_topic_model(_model(), p)
    p.write_text(p.read_text().replace("alpha\t", "alpha\t0.5\t", 1))
    with pytest.raises(FormatError) as exc:
        read_topic_model(p)
    assert f"{p}:5:" in str(exc.value)


def test_model_nonpositive_alpha_names_its_line(tmp_path):
    p = tmp_path / "m.tsv"
    write_topic_model(_model(), p)
    p.write_text(p.read_text().replace("alpha\t0.4\t", "alpha\t-1.0\t", 1))
    with pytest.raises(FormatError) as exc:
        read_topic_model(p)
    assert f"{p}:5:" in str(exc.value)


@pytest.mark.parametrize("scale", [-1.0, 2.0])   # a negative column; one summing to 2
def test_model_improper_topic_names_its_line(tmp_path, scale):
    model = _model()
    p = tmp_path / "m.tsv"
    write_topic_model(model, p)
    lines = p.read_text().splitlines()
    lines[6] = "topic\t" + "\t".join(str(scale * float(x)) for x in model.A[:, 1])
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as exc:
        read_topic_model(p)
    assert f"{p}:7:" in str(exc.value)


def test_model_form_feed_inside_a_topic_line_reads(tmp_path):
    model = _model()
    p = tmp_path / "m.tsv"
    write_topic_model(model, p)
    p.write_bytes(p.read_bytes().replace(b"topic\t", b"topic\t\x0c", 1))
    assert np.array_equal(read_topic_model(p).A, model.A)


@pytest.mark.parametrize("field, lineno", [("d", 2), ("k", 3), ("family", 4), ("alpha", 5)])
def test_model_repeated_field_names_its_line(tmp_path, field, lineno):
    p = tmp_path / "m.tsv"
    write_topic_model(_model(), p)
    lines = p.read_text().splitlines(keepends=True)
    p.write_text("".join(lines + [lines[lineno - 1]]))
    with pytest.raises(FormatError) as exc:
        read_topic_model(p)
    assert str(exc.value) == f"{p}:{len(lines) + 1}: repeated '{field}' field"


@pytest.mark.parametrize("tag", ["v-2", "v0"])
def test_model_rejects_a_version_below_one(tmp_path, tag):
    p = tmp_path / "m.tsv"
    write_topic_model(_model(), p)
    p.write_text(p.read_text().replace("v1", tag, 1))
    with pytest.raises(FormatError) as exc:
        read_topic_model(p)
    assert str(exc.value).startswith(f"{p}:1: format version ")


def test_ground_truth_topic_out_of_range_names_its_line(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("doc\th\tzeta\n0\t0.5,0.5\t1,0\n1\t0.25,0.75\t0,2\n")
    with pytest.raises(FormatError) as exc:
        read_ground_truth(p)
    assert f"{p}:3:" in str(exc.value)


def test_ground_truth_negative_topic_names_its_line(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text("doc\th\tzeta\n0\t0.5,0.5\t1,0\n1\t0.25,0.75\t0,-1\n")
    with pytest.raises(FormatError) as exc:
        read_ground_truth(p)
    assert f"{p}:3:" in str(exc.value)


@pytest.mark.parametrize("row", ["0\t0.25,0.75\t0,x\n", "0\t0.25,y\t0,1\n"])
def test_ground_truth_bad_field_names_its_line(tmp_path, row):
    p = tmp_path / "t.tsv"
    p.write_text("doc\th\tzeta\n0\t0.5,0.5\t1,0\n" + row)
    with pytest.raises(FormatError) as exc:
        read_ground_truth(p)
    assert f"{p}:3:" in str(exc.value)


@pytest.mark.parametrize("row, message", [
    ("x\t0.25,0.75\t0,1\n", "bad int value 'x'"),
    ("0\t0.25,0.75\t0,1\n", "doc id 0, expected 1"),
    ("2\t0.25,0.75\t0,1\n", "doc id 2, expected 1"),
    ("1\tnan,0.75\t0,1\n", "h is not a probability vector"),
    ("1\tinf,0.75\t0,1\n", "h is not a probability vector"),
    ("1\t-0.25,1.25\t0,1\n", "h is not a probability vector"),
    ("1\t0.25,0.5\t0,1\n", "h is not a probability vector"),
])
def test_ground_truth_record_checks_name_their_line(tmp_path, row, message):
    p = tmp_path / "t.tsv"
    p.write_text("doc\th\tzeta\n0\t0.5,0.5\t1,0\n" + row)
    with pytest.raises(FormatError) as exc:
        read_ground_truth(p)
    assert str(exc.value) == f"{p}:3: {message}"


def test_ground_truth_round_trip(tmp_path):
    assignments = [
        TopicAssignment(h=np.array([0.25, 0.75]), zeta=np.array([1, 0, 1])),
        TopicAssignment(h=np.array([0.5, 0.5]), zeta=np.array([0, 0, 0])),
    ]
    p = tmp_path / "t.tsv"
    write_ground_truth(assignments, p)
    back = read_ground_truth(p)
    for a, b in zip(assignments, back):
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.zeta, b.zeta)


# ---------------------------------------------------------------------------
# non-UTF-8 input: every reader names the line of the first undecodable byte


def _assert_bad_byte_at(read, p, lineno):
    with pytest.raises(FormatError) as exc:
        read(p)
    assert str(exc.value).startswith(f"{p}:{lineno}: not UTF-8 (byte 0xff)")


@pytest.mark.parametrize("raw, lineno", [
    (b"\xff2\n3\n1\n1 2 1\n", 1),
    (b"2\n3\n2\n1 2 1\n2 \xff 1\n", 5),
    (b"2\r\n3\r\n2\r\n1 2 1\r\n2 \xff 1\r\n", 5),
], ids=["header", "triple", "crlf"])
def test_uci_rejects_a_non_utf8_byte_at_its_line(tmp_path, raw, lineno):
    p = tmp_path / "c.uci"
    p.write_bytes(raw)
    _assert_bad_byte_at(read_uci, p, lineno)


@pytest.mark.parametrize("raw, lineno", [
    (b"w\xff\nbeta\n", 1),
    (b"alpha\n\nbeta\rgam\xffma\n", 4),   # blank lines count; a lone \r ends a line
], ids=["first", "later"])
def test_vocab_rejects_a_non_utf8_byte_at_its_line(tmp_path, raw, lineno):
    p = tmp_path / "vocab.txt"
    p.write_bytes(raw)
    _assert_bad_byte_at(read_vocab, p, lineno)


@pytest.mark.parametrize("line, lineno", [(0, 1), (6, 7)], ids=["tag", "topic"])
def test_model_rejects_a_non_utf8_byte_at_its_line(tmp_path, line, lineno):
    p = tmp_path / "m.tsv"
    write_topic_model(_model(), p)
    lines = p.read_bytes().splitlines(keepends=True)
    lines[line] = lines[line][:-1] + b"\xff\n"
    p.write_bytes(b"".join(lines))
    _assert_bad_byte_at(read_topic_model, p, lineno)


@pytest.mark.parametrize("raw, lineno", [
    (b"doc\th\xff\tzeta\n0\t0.5,0.5\t1,0\n", 1),
    (b"doc\th\tzeta\n0\t0.5,0.5\t1,0\n1\t0.5,0.5\t\xff\n", 3),
], ids=["header", "row"])
def test_ground_truth_rejects_a_non_utf8_byte_at_its_line(tmp_path, raw, lineno):
    p = tmp_path / "t.tsv"
    p.write_bytes(raw)
    _assert_bad_byte_at(read_ground_truth, p, lineno)


def test_vocab_reads_utf8_words(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_bytes("caf\u00e9\r\n\u03b1\u03b2\n".encode("utf-8"))
    assert read_vocab(p) == ["caf\u00e9", "\u03b1\u03b2"]


def test_cli_learn_names_the_line_of_a_non_utf8_byte(tmp_path, capsys):
    p = tmp_path / "c.uci"
    p.write_bytes(b"1\n3\n1\n\xff 2 1\n")
    assert main(["learn", "--corpus", str(p), "--family", "gamma:1", "--k", "2",
                 "--out", str(tmp_path / "m.tsv")]) == 2
    assert f"error [learn]: {p}:4: not UTF-8" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI


def test_cli_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_unknown_flag_is_usage_error(capsys):
    assert main(["weights", "--no-such-flag"]) == 1


def test_cli_weights_row(capsys):
    assert main(["weights", "--family", "gamma:1", "--alpha0", "1"]) == 0
    out = capsys.readouterr().out
    assert "-0.333333" in out
    header, row = out.strip().splitlines()
    assert header.split("\t")[:3] == ["v", "v1", "v2"]
    assert row.split("\t")[0] == "-0.500000"


def test_cli_weights_bad_family(capsys):
    assert main(["weights", "--family", "nope:1", "--alpha0", "1"]) == 2


def test_cli_learn_parses_the_family_before_reading_the_corpus(tmp_path, capsys):
    rc = main(["learn", "--corpus", str(tmp_path / "missing.uci"), "--family", "nope:1",
               "--k", "2", "--out", str(tmp_path / "m.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown family 'nope'" in err and "missing.uci" not in err


def test_cli_generate_learn_eval_round_trip(tmp_path, capsys):
    corpus_path = str(tmp_path / "c.uci")
    rc = main(["--seed", "7", "generate", "--family", "invgauss:4", "--k", "3",
               "--d", "40", "--docs", "800", "--len", "30", "--out", corpus_path])
    assert rc == 0
    model_path = str(tmp_path / "m.tsv")
    rc = main(["--seed", "7", "learn", "--corpus", corpus_path, "--family",
               "invgauss:4", "--k", "3", "--alpha0", "1.0", "--out", model_path])
    assert rc == 0
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("".join(f"word{i}\n" for i in range(40)))
    rc = main(["eval", "--model", model_path, "--corpus", corpus_path, "--pmi",
               "--vocab", str(vocab_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("perplexity\t")
    assert "pmi\t" in out
    assert "topic\t0\tword" in out


def test_cli_learn_notes_the_fitted_alpha0(tmp_path, capsys):
    corpus_path = str(tmp_path / "c.uci")
    assert main(["--seed", "7", "generate", "--family", "gamma:1", "--k", "3",
                 "--d", "40", "--docs", "800", "--len", "30", "--out", corpus_path]) == 0
    capsys.readouterr()
    rc = main(["--seed", "7", "learn", "--corpus", corpus_path, "--family", "gamma:1",
               "--k", "3", "--alpha0", "fit", "--out", str(tmp_path / "m.tsv")])
    assert rc == 0
    residual_line = [line for line in capsys.readouterr().err.splitlines()
                     if line.startswith("residual: ")]
    assert len(residual_line) == 1 and "fitted alpha0: " in residual_line[0]


def test_cli_learn_has_no_restarts_option(tmp_path, capsys):
    rc = main(["learn", "--corpus", str(tmp_path / "c.uci"), "--family", "gamma:1",
               "--k", "3", "--restarts", "5", "--out", str(tmp_path / "m.tsv")])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


def test_cli_learn_refuses_fewer_than_one_iteration(tmp_path, capsys):
    corpus_path = str(tmp_path / "c.uci")
    assert main(["--seed", "7", "generate", "--family", "gamma:1", "--k", "3",
                 "--d", "40", "--docs", "800", "--len", "30", "--out", corpus_path]) == 0
    rc = main(["learn", "--corpus", corpus_path, "--family", "gamma:1", "--k", "3",
               "--alpha0", "1", "--iterations", "0", "--out", str(tmp_path / "m.tsv")])
    assert rc != 0
    assert "n_iterations" in capsys.readouterr().err
    assert not (tmp_path / "m.tsv").exists()


def test_cli_learn_stage_error_exit_code(tmp_path, capsys):
    corpus_path = str(tmp_path / "c.uci")
    (tmp_path / "c.uci").write_text("1\n3\n1\n1 1 3\n")
    rc = main(["learn", "--corpus", corpus_path, "--family", "gamma:1",
               "--k", "9", "--alpha0", "1", "--out", str(tmp_path / "m.tsv")])
    assert rc == 2
    assert "[input]" in capsys.readouterr().err


def test_cli_learn_refuses_to_fit_alpha0_for_stable(tmp_path, capsys):
    corpus_path = str(tmp_path / "c.uci")
    assert main(["--seed", "7", "generate", "--family", "stable:0.5", "--k", "3",
                 "--d", "40", "--docs", "800", "--len", "30", "--out", corpus_path]) == 0
    rc = main(["--seed", "7", "learn", "--corpus", corpus_path, "--family", "stable:0.5",
               "--k", "3", "--alpha0", "fit", "--out", str(tmp_path / "m.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "[recover]" in err and "stable:0.5" in err


def test_cli_infer_outputs_means(tmp_path, capsys):
    model = TopicModel(A=np.eye(2), alpha=np.array([1.0, 1.0]),
                       family=gamma_family(1.0))
    model_path = tmp_path / "m.tsv"
    write_topic_model(model, model_path)
    corpus_path = tmp_path / "c.uci"
    write_uci(corpus_from_docs([{0: 4, 1: 2}], d=2), corpus_path)
    rc = main(["infer", "--model", str(model_path), "--corpus", str(corpus_path),
               "--steps", "800", "--burn", "200"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "doc\th0\th1"
    h0 = float(lines[1].split("\t")[1])
    assert 0.45 < h0 < 0.85  # posterior mean around (1+4)/(2+6)


def test_cli_correlate_gamma_constant_zero(tmp_path):
    out = tmp_path / "corr.csv"
    rc = main(["correlate", "--family", "gamma", "--alpha", "1,2,3",
               "--sweep", "0.5:2:3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda_or_gamma,positive_proportion"
    assert len(lines) == 4
    assert all(line.endswith(",0") for line in lines[1:])


def test_cli_tune_report(tmp_path, capsys):
    corpus_path = str(tmp_path / "c.uci")
    main(["--seed", "3", "generate", "--family", "gamma:1", "--k", "2",
          "--d", "15", "--docs", "400", "--len", "20", "--out", corpus_path])
    capsys.readouterr()
    rc = main(["tune", "--corpus", corpus_path, "--k", "2",
               "--grid", "gamma:1@1", "--split", "0.8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("family\talpha0")
    assert "best\tgamma:1" in out


@pytest.mark.parametrize("argv, flag", [
    (["learn", "--family", "gamma:1", "--k", "2", "--alpha0", "abc"], "--alpha0"),
    (["learn", "--family", "gamma:1", "--k", "2", "--alpha0", "-1"], "--alpha0"),
    (["learn", "--family", "gamma:1", "--k", "2", "--alpha0", "nan"], "--alpha0"),
    (["learn", "--family", "gamma:1", "--k", "2", "--alpha0", "Fit"], "--alpha0"),
    (["tune", "--k", "2", "--grid", "gamma:1@x"], "--grid"),
    (["tune", "--k", "2", "--grid", "gamma:1@1,0"], "--grid"),
])
def test_cli_malformed_number_is_a_usage_error_before_the_corpus_is_read(
        tmp_path, capsys, argv, flag):
    # the corpus does not exist: reading it would be a runtime error, exit 2
    argv = argv + ["--corpus", str(tmp_path / "missing.uci")]
    if argv[0] == "learn":
        argv += ["--out", str(tmp_path / "m.tsv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--family", "gamma:1", "--k", "3", "--d", "5", "--docs", "2", "--len", "3",
      "--alpha", "1,,2"], "--alpha"),
    (["generate", "--family", "gamma:1", "--k", "3", "--d", "5", "--docs", "2", "--len", "3",
      "--alpha0", "nan"], "--alpha0"),
    (["correlate", "--family", "gamma", "--sweep", "0.5:2:3", "--alpha", "1,a"], "--alpha"),
    (["weights", "--family", "gamma:1", "--alpha0", "-1"], "--alpha0"),
])
def test_cli_malformed_alpha_is_a_usage_error(tmp_path, capsys, argv, flag):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert f"argument {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha0", [-1.0, float("nan"), 0.0, float("inf"), "Fit"])
def test_learn_rejects_a_bad_alpha0_before_the_corpus_stage(monkeypatch, alpha0):
    import importlib

    from nidtopics.decompose import StageError, learn, learn_from_moments

    decompose = importlib.import_module("nidtopics.decompose")

    corpus = corpus_from_docs([{0: 2, 1: 1}, {1: 3, 2: 1}, {0: 1, 2: 2}], d=3)
    ms = decompose.accumulate(corpus)

    def corpus_stage(*args, **kwargs):
        raise AssertionError("the corpus stage ran")

    monkeypatch.setattr(decompose, "accumulate", corpus_stage)
    monkeypatch.setattr(decompose, "project", corpus_stage)
    for run in (lambda: learn(corpus, gamma_family(1.0), 2, alpha0),
                lambda: learn_from_moments(ms, gamma_family(1.0), 2, alpha0)):
        with pytest.raises(StageError) as exc:
            run()
        assert exc.value.stage == "input" and "alpha0" in str(exc.value)


def _run_twice(tmp_path, argv, out_name):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"{out_name}.{run}"
        assert main(argv + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    return outs


def test_cli_weights_deterministic(tmp_path):
    a, b = _run_twice(tmp_path, ["weights", "--family", "stable:0.5",
                                 "--alpha0", "2"], "w")
    assert a == b


def test_cli_generate_deterministic(tmp_path):
    paths = []
    for run in ("a", "b"):
        out = tmp_path / f"c.{run}.uci"
        rc = main(["--seed", "9", "generate", "--family", "gamma:1", "--k", "2",
                   "--d", "10", "--docs", "50", "--len", "8",
                   "--out", str(out)])
        assert rc == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert ((paths[0].parent / "c.a.uci.model.tsv").read_bytes()
            == (paths[1].parent / "c.b.uci.model.tsv").read_bytes())
