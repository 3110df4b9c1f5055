from __future__ import annotations

import dataclasses
import json
import os
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import seqpack
from seqpack import (
    ConfigError,
    CorpusError,
    DocumentRecord,
    EmitError,
    FileTokenStore,
    InMemoryTokenStore,
    corpus_stats,
    ingest_corpus,
)
from seqpack.cli import main
from seqpack.corpus import render_stats

from oracle import reference_ingest
from util import write_token_corpus


def test_document_record_is_its_corpus_line():
    assert [f.name for f in dataclasses.fields(DocumentRecord)] == [
        "doc_id", "length", "token_file", "offset",
    ]
    assert [name for name in dir(seqpack) if name.startswith("Token")] == []  # no locator class


@pytest.mark.parametrize("mode", ["lengths_only", "full"])
def test_ingest_reads_token_file_and_offset_into_the_record(tmp_path, mode):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id":"a","length":3,"token_file":"t.bin","offset":12}\n')
    (tmp_path / "t.bin").write_bytes(bytes(24))
    table = ingest_corpus(path, mode)
    assert list(table) == [DocumentRecord("a", 3, "t.bin", 12)]
    assert (table.ids, table.lengths.tolist(), table.files, table.file.tolist(), table.offset.tolist()) == (
        ["a"], [3], ["t.bin"], [0], [12]
    )


def test_ingest_keeps_order_and_fields(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 3}\n{"doc_id": "b", "length": 4}\n')
    table = ingest_corpus(path)
    assert list(table) == [DocumentRecord("a", 3), DocumentRecord("b", 4)]
    # no row has a token reference, so the reference columns stay empty
    assert (table.files, table.file.tolist(), table.offset.tolist()) == ([], [], [])


def test_ingest_rejects_zero_length_with_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 0}\n')
    with pytest.raises(CorpusError, match=r"line 1.*non-positive"):
        ingest_corpus(path)


def test_ingest_reports_malformed_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 3}\nnot json\n')
    with pytest.raises(CorpusError, match="line 2"):
        ingest_corpus(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "malformed record"),
        ('"x"', "malformed record"),
        ('{"doc_id": "a"}', "record needs doc_id and length"),
        ('{"doc_id": 1.5, "length": 3}', "doc_id must be a string"),
        ('{"doc_id": true, "length": 3}', "doc_id must be a string"),
    ],
    ids=["array", "string", "no_length", "float_id", "bool_id"],
)
def test_cli_rejects_bad_record_with_line_number(tmp_path, capsys, line, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text(line + "\n")
    assert main(["stats", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: line 1: {message}\n")


# every ingest message with the line it names, as (modes, corpus bytes,
# message); _GOOD is a good line and a whitespace-only one, which counts
_BOTH = ("lengths_only", "full")
_REF = b', "token_file": "t.bin", "offset": 0'
_GOOD = b'{"doc_id": "g", "length": 2' + _REF + b'}\n \t\n'
_INGEST_MESSAGES = [
    (_BOTH, b"not json", "line 1: malformed record"),
    (_BOTH, _GOOD + b"not json", "line 3: malformed record"),
    (_BOTH, _GOOD + b"[1, 2]", "line 3: malformed record"),
    (_BOTH, _GOOD + b'"x"', "line 3: malformed record"),
    (_BOTH, _GOOD + b"null", "line 3: malformed record"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3} x', "line 3: malformed record"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3}{"doc_id": "b", "length": 3}', "line 3: malformed record"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3},', "line 3: malformed record"),
    (_BOTH, _GOOD + b'{"doc_id": "a",\n"length": 3}', "line 3: malformed record"),
    (_BOTH, _GOOD + b'\xef\xbb\xbf{"doc_id": "a", "length": 3}', "line 3: malformed record"),
    (_BOTH, b'\xef\xbb\xbf{"doc_id": "a", "length": 3}', "line 1: malformed record"),
    (_BOTH, _GOOD + b'{"doc_id": "\xff", "length": 3}', "line 3: malformed record"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3}\x80', "line 3: malformed record"),
    (_BOTH, _GOOD + b'{"doc_id": "a\\ud800", "length": 1' + _REF + b'}\n{"doc_id": "\xc3", "length": 1}', "line 4: malformed record"),
    (_BOTH, _GOOD + b"[" * 100_000 + b"]" * 100_000, "line 3: malformed record"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": ' + b"9" * 5000 + b"}", "line 3: malformed record"),
    (_BOTH, _GOOD + b'{"doc_id": "a"}', "line 3: record needs doc_id and length"),
    (_BOTH, _GOOD + b'{"length": 3}', "line 3: record needs doc_id and length"),
    (_BOTH, _GOOD + b'{"doc_id": null, "length": 3}', "line 3: record needs doc_id and length"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": null}', "line 3: record needs doc_id and length"),
    (_BOTH, _GOOD + b'{"doc_id": 1.5, "length": 3}', "line 3: doc_id must be a string"),
    (_BOTH, _GOOD + b'{"doc_id": true, "length": 3}', "line 3: doc_id must be a string"),
    (_BOTH, _GOOD + b'{"doc_id": ["a"], "length": 3}', "line 3: doc_id must be a string"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": "3"}', "line 3: length must be an integer"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3.0}', "line 3: length must be an integer"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": true}', "line 3: length must be an integer"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": false}', "line 3: length must be an integer"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": NaN}', "line 3: length must be an integer"),
    (_BOTH, _GOOD + b'{"doc_id": 1.5, "length": "3"}', "line 3: doc_id must be a string"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 0}', "line 3: non-positive length for 'a'"),
    (_BOTH, _GOOD + b'{"doc_id": 7, "length": -1}', "line 3: non-positive length for '7'"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3, "offset": 0}', "line 3: invalid token_file/offset for 'a'"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3, "token_file": "t.bin"}', "line 3: invalid token_file/offset for 'a'"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3, "token_file": 3, "offset": 0}', "line 3: invalid token_file/offset for 'a'"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3, "token_file": null, "offset": 0}', "line 3: invalid token_file/offset for 'a'"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3, "token_file": "t.bin", "offset": true}', "line 3: invalid token_file/offset for 'a'"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3, "token_file": "t.bin", "offset": 4.0}', "line 3: invalid token_file/offset for 'a'"),
    (_BOTH, _GOOD + b'{"doc_id": "a", "length": 3, "token_file": "t.bin", "offset": -4}', "line 3: invalid token_file/offset for 'a'"),
    (("lengths_only",), _GOOD + b'{"doc_id": "g", "length": 1}', "line 3: duplicate doc_id 'g'"),
    (("lengths_only",), _GOOD + b'{"doc_id": 7, "length": 1}\n{"doc_id": "7", "length": 1}', "line 4: duplicate doc_id '7'"),
    # a line's own fault comes before the duplicate
    (("lengths_only",), _GOOD + b'{"doc_id": "g", "length": 0}', "line 3: non-positive length for 'g'"),
    (("full",), _GOOD + b'{"doc_id": "h", "length": 1}', "line 3: full mode requires token_file/offset for 'h'"),
    (("full",), b'{"doc_id": "a", "length": 1' + _REF + b'}\n\n{"doc_id": "a", "length": 1}', "line 3: duplicate doc_id 'a'"),
    (("full",), b'{"doc_id": "a", "length": 1' + _REF + b'}\n\n{"doc_id": "b", "length": 1}', "line 3: full mode requires token_file/offset for 'b'"),
    (("full",), b'{"doc_id": "a", "length": 1, "token_file": "gone.bin", "offset": 0}', "line 1: unresolvable token_ref for 'a': missing store 'gone.bin'"),
    (("full",), b'{"doc_id": "a", "length": 1, "token_file": "sub", "offset": 0}', "line 1: unresolvable token_ref for 'a': store 'sub' is not a regular file"),
    (("full",), b'{"doc_id": "a", "length": 1' + _REF + b'}\n{"doc_id": "b", "length": 1, "token_file": "odd.bin", "offset": 0}', "line 2: unresolvable token_ref for 'b': store size 41 is not a multiple of 4"),
    (("full",), b'{"doc_id": "a", "length": 1, "token_file": "t.bin", "offset": 2}', "line 1: unresolvable token_ref for 'a': offset 2 not 4-byte aligned"),
    (("full",), b'{"doc_id": "a", "length": 4' + _REF + b'}\n{"doc_id": "b", "length": 2, "token_file": "t.bin", "offset": 12}', "line 2: unresolvable token_ref for 'b': span exceeds store size 16"),
    # the store's size is judged before the offset, the offset before the span
    (("full",), b'{"doc_id": "a", "length": 99, "token_file": "odd.bin", "offset": 2}', "line 1: unresolvable token_ref for 'a': store size 41 is not a multiple of 4"),
    (("full",), b'{"doc_id": "a", "length": 99, "token_file": "t.bin", "offset": 2}', "line 1: unresolvable token_ref for 'a': offset 2 not 4-byte aligned"),
]


@pytest.mark.parametrize(
    "mode, text, message",
    [
        pytest.param(mode, text, message, id=f"{mode}-{i}")
        for i, (modes, text, message) in enumerate(_INGEST_MESSAGES)
        for mode in modes
    ],
)
def test_ingest_message_and_line_number(tmp_path, mode, text, message):
    (tmp_path / "t.bin").write_bytes(bytes(16))
    (tmp_path / "odd.bin").write_bytes(bytes(41))
    (tmp_path / "sub").mkdir()
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(text + b"\n")
    with pytest.raises(CorpusError) as caught:
        ingest_corpus(path, mode)
    assert str(caught.value) == message


_IDS = st.one_of(st.text("ab#7", min_size=1, max_size=2), st.integers(0, 20))
_GOOD_RECORDS = st.one_of(
    st.fixed_dictionaries({"doc_id": _IDS, "length": st.integers(1, 4)}),
    st.fixed_dictionaries(
        {"doc_id": _IDS, "length": st.integers(1, 4), "token_file": st.just("t.bin"), "offset": st.sampled_from([0, 4, 8])}
    ),
)
_ANY_RECORDS = st.fixed_dictionaries(
    {
        "doc_id": st.one_of(_IDS, st.sampled_from([True, 1.5, None])),
        "length": st.one_of(st.integers(-1, 6), st.sampled_from([True, 2.0, "3", None])),
    },
    optional={
        "token_file": st.sampled_from(["t.bin", "odd.bin", "gone.bin", "sub", 3, None]),
        "offset": st.sampled_from([0, 4, 8, 2, -4, True, 4.0, "0"]),
    },
)
# (position, bytes): a cut where the bytes are empty, else an insertion; a
# newline cut joins two records on one line, one inserted splits a record
_DAMAGE = st.tuples(
    st.integers(0, 10_000),
    st.sampled_from([b"", b"\n", b" ", b"\r", b"{", b"}", b",", b'"', b"x", b"\xff", b"\xef\xbb\xbf"]),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    records=st.lists(_GOOD_RECORDS, max_size=8),
    odd=st.lists(_ANY_RECORDS, max_size=1),
    damage=st.lists(_DAMAGE, max_size=2),
    mode=st.sampled_from(_BOTH),
)
@example(  # one object split across two lines
    records=[{"doc_id": "a", "length": 1}, {"doc_id": "b", "length": 2}], odd=[], damage=[(14, b"\n")], mode="lengths_only"
)
def test_ingest_matches_the_per_line_reference(tmp_path, records, odd, damage, mode):
    # the same rows, or the same first error, as one json.loads per line
    (tmp_path / "t.bin").write_bytes(bytes(16))
    (tmp_path / "odd.bin").write_bytes(bytes(41))
    (tmp_path / "sub").mkdir(exist_ok=True)
    records[len(records) // 2:len(records) // 2] = odd
    text = b"".join(json.dumps(r).encode() + b"\n" for r in records)
    for at, piece in damage:
        at %= len(text) + 1
        text = text[:at] + piece + text[at + (not piece):]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(text)
    outcomes = []
    for read in (ingest_corpus, reference_ingest):
        try:
            outcomes.append(list(read(path, mode)))
        except CorpusError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_ingest_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 3}\n{"doc_id": "a", "length": 4}\n')
    with pytest.raises(CorpusError, match="duplicate doc_id"):
        ingest_corpus(path)


def test_ingest_rejects_non_integer_length(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": "3"}\n')
    with pytest.raises(CorpusError, match="length must be an integer"):
        ingest_corpus(path)


@pytest.mark.parametrize("offset", ["false", "true", '"0"', "0.0", "-4"])
def test_ingest_rejects_non_integer_offset(tmp_path, offset):
    path = tmp_path / "corpus.jsonl"
    path.write_text(f'{{"doc_id": "a", "length": 3, "token_file": "t.bin", "offset": {offset}}}\n')
    with pytest.raises(CorpusError, match=r"line 1: invalid token_file/offset for 'a'"):
        ingest_corpus(path)


def test_ingest_accepts_integer_doc_ids_and_blank_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": 7, "length": 2}\n\n{"doc_id": "x", "length": 1}\n')
    records = ingest_corpus(path)
    assert [r.doc_id for r in records] == ["7", "x"]


def test_ingest_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.jsonl"
    with pytest.raises(CorpusError, match=re.escape(str(missing))):
        ingest_corpus(missing)


def test_ingest_total_matches_independent_resummation(tmp_path):
    # oracle: a second, unrelated pass over the raw lines
    rng = random.Random(11)
    lengths = [rng.randint(1, 256) for _ in range(1000)]
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        "".join(json.dumps({"doc_id": str(i), "length": n}) + "\n" for i, n in enumerate(lengths))
    )
    expected_total = sum(
        int(re.search(r'"length": (\d+)', line).group(1))
        for line in path.read_text().splitlines()
    )
    records = ingest_corpus(path)
    assert len(records) == 1000
    assert sum(r.length for r in records) == expected_total


def test_unknown_ingest_mode_is_a_config_error(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 3}\n')
    with pytest.raises(ConfigError, match=r"^unknown ingest mode 'bogus'$"):
        ingest_corpus(path, mode="bogus")


def test_full_mode_requires_token_refs(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 3}\n')
    with pytest.raises(CorpusError, match="full mode requires token_file"):
        ingest_corpus(path, mode="full")


def test_full_mode_rejects_missing_store(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 3, "token_file": "gone.bin", "offset": 0}\n')
    with pytest.raises(CorpusError, match="unresolvable token_ref"):
        ingest_corpus(path, mode="full")


def test_full_mode_rejects_short_store(tmp_path):
    (tmp_path / "t.bin").write_bytes(b"\x00" * 8)  # two tokens
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 3, "token_file": "t.bin", "offset": 0}\n')
    with pytest.raises(CorpusError, match="unresolvable token_ref"):
        ingest_corpus(path, mode="full")


def test_full_mode_rejects_misaligned_offset(tmp_path):
    (tmp_path / "t.bin").write_bytes(b"\x00" * 16)
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 2, "token_file": "t.bin", "offset": 2}\n')
    with pytest.raises(CorpusError, match="aligned"):
        ingest_corpus(path, mode="full")


def test_full_mode_rejects_store_of_partial_ids(tmp_path):
    # 41 bytes: room for the two 5-token documents plus one stray byte
    (tmp_path / "t.bin").write_bytes(b"\x00" * 41)
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"doc_id": "a", "length": 5, "token_file": "t.bin", "offset": 0}\n'
        '{"doc_id": "b", "length": 5, "token_file": "t.bin", "offset": 20}\n'
    )
    message = "line 1: unresolvable token_ref for 'a': store size 41 is not a multiple of 4"
    with pytest.raises(CorpusError, match=re.escape(message)):
        ingest_corpus(path, mode="full")


def test_full_mode_rejects_store_that_is_not_a_regular_file(tmp_path):
    (tmp_path / "sub").mkdir()
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 1, "token_file": "sub", "offset": 0}\n')
    message = "line 1: unresolvable token_ref for 'a': store 'sub' is not a regular file"
    with pytest.raises(CorpusError, match=re.escape(message)):
        ingest_corpus(path, mode="full")


def test_full_mode_round_trips_through_store(tmp_path):
    rng = random.Random(3)
    corpus_path, tokens = write_token_corpus(tmp_path, [3, 5, 1], rng)
    records = ingest_corpus(corpus_path, mode="full")
    store = FileTokenStore(records, base_dir=tmp_path)
    for rec in records:
        assert store.get(rec.doc_id, 0, rec.length).tolist() == tokens[rec.doc_id]
    assert store.get("d1", 1, 4).tolist() == tokens["d1"][1:4]


def test_file_store_rejects_unknown_and_out_of_range(tmp_path):
    rng = random.Random(4)
    corpus_path, _ = write_token_corpus(tmp_path, [3], rng)
    store = FileTokenStore(ingest_corpus(corpus_path, mode="full"), base_dir=tmp_path)
    with pytest.raises(EmitError, match="no token data"):
        store.get("ghost", 0, 1)
    with pytest.raises(EmitError, match="outside document"):
        store.get("d0", 0, 4)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda p: p.unlink(), "cannot open token store 'tokens.bin': "),
        (lambda p: os.truncate(p, 8), "token_ref for 'd1' exceeds store 'tokens.bin'"),
        (
            lambda p: p.write_bytes(p.read_bytes() + b"\x00"),
            "cannot open token store 'tokens.bin': store size 41 is not a multiple of 4",
        ),
    ],
    ids=["removed", "truncated", "partial_id"],
)
def test_file_store_rejects_store_changed_after_ingest(tmp_path, change, message):
    corpus_path, _ = write_token_corpus(tmp_path, [3, 5, 2], random.Random(5))
    store = FileTokenStore(ingest_corpus(corpus_path, mode="full"), base_dir=tmp_path)
    change(tmp_path / "tokens.bin")
    with store, pytest.raises(EmitError, match=re.escape(message)):
        store.get("d1", 0, 5)


def test_file_store_reports_read_error(tmp_path):
    (tmp_path / "sub").mkdir()  # opens for reading, but cannot be read
    with FileTokenStore([DocumentRecord("a", 2, "sub", 0)], base_dir=tmp_path) as store:
        with pytest.raises(EmitError, match="^cannot read token store 'sub': "):
            store.get("a", 0, 2)


def test_file_store_close(tmp_path):
    corpus_path, tokens = write_token_corpus(tmp_path, [3], random.Random(6))
    with FileTokenStore(ingest_corpus(corpus_path, mode="full"), base_dir=tmp_path) as store:
        assert store.get("d0", 0, 3).tolist() == tokens["d0"]
    store.close()  # a second close does nothing
    with pytest.raises(EmitError, match="token store 'tokens.bin' is closed"):
        store.get("d0", 0, 3)


def test_in_memory_store_bounds():
    store = InMemoryTokenStore({"a": [1, 2, 3]})
    assert store.get("a", 1, 3).tolist() == [2, 3]
    with pytest.raises(EmitError):
        store.get("a", 0, 4)
    with pytest.raises(EmitError):
        store.get("b", 0, 1)


@pytest.mark.parametrize("ids", [[1.5], ["7"], [-1], [2**32], [1, None], "12", 5])
def test_in_memory_store_rejects_ids_outside_uint32(ids):
    # no id is rounded, parsed or wrapped into range
    with pytest.raises(EmitError, match=re.escape("token ids of 'a' must be integers in [0, 2**32)")):
        InMemoryTokenStore({"b": [0, 2**32 - 1], "a": ids})


def test_in_memory_store_reads_bytes_as_one_id_per_byte():
    assert InMemoryTokenStore({"a": b"\x07\x00"}).get("a", 0, 2).tolist() == [7, 0]


def test_corpus_stats_counts_and_histogram(toy_docs):
    stats = corpus_stats(toy_docs, context_length=3)
    assert stats.document_count == 3
    assert stats.total_tokens == 9
    assert stats.min_length == 2
    assert stats.max_length == 4
    assert stats.over_length_count == 1
    # lengths 3, 4, 2: buckets [2,4) -> 2 docs, [4,8) -> 1 doc
    assert stats.histogram == ((2, 4, 2), (4, 8, 1))
    text = render_stats(stats)
    assert "documents      3" in text
    assert "[2, 4)" in text


def test_corpus_stats_empty():
    stats = corpus_stats([])
    assert stats.document_count == 0
    assert stats.over_length_count is None
    assert stats.histogram == ()


def test_token_values_preserved_exactly(tmp_path):
    ids = [0, 1, 2**32 - 1, 12345]
    blob = np.asarray(ids, dtype="<u4").tobytes()
    (tmp_path / "t.bin").write_bytes(blob)
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 4, "token_file": "t.bin", "offset": 0}\n')
    store = FileTokenStore(ingest_corpus(path, mode="full"), base_dir=tmp_path)
    assert store.get("a", 0, 4).tolist() == ids
