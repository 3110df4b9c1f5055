from __future__ import annotations

import dataclasses
import json
import os
import random
import re

import numpy as np
import pytest

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
    assert ingest_corpus(path, mode) == [DocumentRecord("a", 3, "t.bin", 12)]


def test_ingest_keeps_order_and_fields(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "length": 3}\n{"doc_id": "b", "length": 4}\n')
    records = ingest_corpus(path)
    assert records == [DocumentRecord("a", 3), DocumentRecord("b", 4)]
    assert all(r.token_file is None for r in records)


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
