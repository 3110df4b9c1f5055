from __future__ import annotations

import io
import itertools
import os
import random
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqpack import (
    DecodeError,
    DocumentRecord,
    EmitError,
    FileTokenStore,
    InMemoryTokenStore,
    Strategy,
    decode_samples,
    emit_samples,
    ingest_corpus,
    pack_corpus,
    verify_manifest,
)
from seqpack.emitter import MAGIC, VERSION
from seqpack.longdoc import apply_policy
from seqpack.manifest_io import write_bytes_atomic

from util import (
    ALL_STRATEGIES, docs_from_lengths, make_config, plan_table, random_lengths, replace_row,
    samples_of, write_token_corpus,
)

HEADER = struct.Struct("<4sHHIQ")


def _toy_store():
    return InMemoryTokenStore(
        {"A": [10, 11, 12], "B": [20, 21, 22, 23], "C": [30, 31]}
    )


def _emit(manifest, store=None, **kw):
    sink = io.BytesIO()
    summary = emit_samples(manifest, store or _toy_store(), sink, **kw)
    return sink.getvalue(), summary


def _random_store(rng, lengths, prefix="d"):
    return InMemoryTokenStore(
        {f"{prefix}{i}": [rng.randrange(2, 2**31) for _ in range(n)] for i, n in enumerate(lengths)}
    )


def test_header_fields(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, summary = _emit(m)
    magic, version, flags, L, count = HEADER.unpack(blob[: HEADER.size])
    assert magic == MAGIC == b"PKSB"
    assert version == VERSION == 1
    assert flags == 3  # mask and boundary planes present
    assert L == 5
    assert count == 3
    assert summary.samples_written == 3
    assert summary.tokens_written == 15


def test_sample_planes_bit_exact(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, _ = _emit(m)
    body = blob[HEADER.size :]
    # sample 0: A's three tokens, separator, padding
    tokens = np.frombuffer(body[:20], dtype="<u4")
    assert tokens.tolist() == [10, 11, 12, 1, 0]
    mask = np.frombuffer(body[20:25], dtype=np.uint8)
    assert mask.tolist() == [1, 1, 1, 1, 0]
    (n_bounds,) = struct.unpack("<H", body[25:27])
    assert n_bounds == 1
    assert np.frombuffer(body[27:31], dtype="<u4").tolist() == [0]


def test_mask_separators_flag(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, _ = _emit(m, mask_separators=True)
    body = blob[HEADER.size :]
    mask = np.frombuffer(body[20:25], dtype=np.uint8)
    assert mask.tolist() == [1, 1, 1, 0, 0]


def test_emission_is_deterministic(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.BEST_FIT))
    blob1, s1 = _emit(m)
    blob2, s2 = _emit(m)
    assert blob1 == blob2
    assert s1.checksum == s2.checksum


def test_decode_round_trip(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, summary = _emit(m)
    result = decode_samples(io.BytesIO(blob), m, _toy_store(), summary.checksum)
    assert result.checksum == summary.checksum
    assert result.zero_mask_tokens == m.metrics.padding_token_count == 3


def test_decode_reassembles_fragments_and_partial_prefixes(toy_docs):
    store = _toy_store()
    # concat fragments B across two samples; C loses its last token
    m = pack_corpus(toy_docs, make_config(Strategy.CONCAT_THEN_SPLIT))
    blob, summary = _emit(m, store)
    result = decode_samples(io.BytesIO(blob), m, store, summary.checksum)
    assert result.zero_mask_tokens == 0


def test_decode_rejects_token_that_differs_from_store(toy_docs):
    # concat places B's first token at the end of sample 0 (offset 4) and
    # the rest at the head of sample 1; flip that first token
    m = pack_corpus(toy_docs, make_config(Strategy.CONCAT_THEN_SPLIT))
    assert samples_of(m.samples)[0][0][-1] == ("B", 0, 1, 4)
    blob, _ = _emit(m)
    i = HEADER.size + 4 * 4
    tampered = blob[:i] + bytes([blob[i] ^ 1]) + blob[i + 1 :]
    with pytest.raises(DecodeError, match="^sample 0 doc B: tokens differ from the store$"):
        decode_samples(io.BytesIO(tampered), m, _toy_store())


def test_decode_rejects_truncation(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, _ = _emit(m)
    with pytest.raises(DecodeError, match="truncation"):
        decode_samples(io.BytesIO(blob[:-3]), m, _toy_store())


def test_decode_rejects_trailing_bytes(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, _ = _emit(m)
    with pytest.raises(DecodeError, match="trailing bytes"):
        decode_samples(io.BytesIO(blob + b"\x00"), m, _toy_store())


def test_decode_rejects_wrong_magic(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, _ = _emit(m)
    with pytest.raises(DecodeError, match="not a packed sample stream"):
        decode_samples(io.BytesIO(b"XXXX" + blob[4:]), m, _toy_store())


def test_decode_rejects_wrong_version(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, _ = _emit(m)
    tampered = blob[:4] + struct.pack("<H", 9) + blob[6:]
    with pytest.raises(DecodeError, match="unsupported stream version"):
        decode_samples(io.BytesIO(tampered), m, _toy_store())


def test_decode_rejects_checksum_mismatch(toy_docs):
    # an intact stream, checked against the checksum of another emission of
    # the same manifest (separators masked): every sample matches its rendering
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, _ = _emit(m)
    _, masked = _emit(m, mask_separators=True)
    with pytest.raises(DecodeError, match="^checksum mismatch$"):
        decode_samples(io.BytesIO(blob), m, _toy_store(), masked.checksum)


def _pair_at_8():
    # A and C with their separators, then one padding slot:
    # tokens [10 11 12 1 30 31 1 0], mask [1 1 1 1 1 1 1 0]
    m = pack_corpus(
        [DocumentRecord("A", 3), DocumentRecord("C", 2)],
        make_config(Strategy.PAD_LAST_DOCUMENT, context_length=8),
    )
    assert len(m.samples) == 1
    return m


@pytest.mark.parametrize(
    "index, message",
    [
        (HEADER.size + 4 * 7, "^sample 0: token plane differs from the manifest at offset 7$"),
        (HEADER.size + 4 * 3, "^sample 0: token plane differs from the manifest at offset 3$"),
        (HEADER.size + 4 * 8 + 0, "^sample 0: mask plane differs from the manifest$"),
        (HEADER.size + 4 * 8 + 7, "^sample 0: mask plane differs from the manifest$"),
    ],
    ids=["padding_token", "separator_token", "document_mask_bit", "padding_mask_bit"],
)
def test_decode_without_checksum_checks_every_byte(index, message):
    # damage that no placement reads: decode still names the plane
    m = _pair_at_8()
    blob, _ = _emit(m)
    damaged = blob[:index] + bytes([blob[index] ^ 1]) + blob[index + 1 :]
    with pytest.raises(DecodeError, match=message):
        decode_samples(io.BytesIO(damaged), m, _toy_store())


def test_decode_needs_the_emitted_mask_separators():
    m = _pair_at_8()
    blob, summary = _emit(m, mask_separators=True)
    result = decode_samples(io.BytesIO(blob), m, _toy_store(), summary.checksum, mask_separators=True)
    assert result.zero_mask_tokens == 1 + 2  # padding and both separators
    with pytest.raises(DecodeError, match="^sample 0: mask plane differs from the manifest$"):
        decode_samples(io.BytesIO(blob), m, _toy_store())


def test_decode_rejects_manifest_stream_mismatch(toy_docs):
    pld = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    cts = pack_corpus(toy_docs, make_config(Strategy.CONCAT_THEN_SPLIT))
    blob, _ = _emit(pld)
    with pytest.raises(DecodeError, match="manifest/stream mismatch"):
        decode_samples(io.BytesIO(blob), cts, _toy_store())


def test_decode_rejects_boundary_disagreement(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, _ = _emit(m)
    # boundary plane of sample 0 sits after token+mask planes; overwrite its offset
    i = HEADER.size + 20 + 5 + 2
    tampered = blob[:i] + struct.pack("<I", 2) + blob[i + 4 :]
    with pytest.raises(DecodeError, match="boundary plane"):
        decode_samples(io.BytesIO(tampered), m, _toy_store())


def test_decode_rejects_other_plane_flags(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, _ = _emit(m)
    magic, version, _, L, count = HEADER.unpack(blob[: HEADER.size])
    for flags in (0, 1, 2, 7):
        tampered = HEADER.pack(magic, version, flags, L, count) + blob[HEADER.size :]
        with pytest.raises(DecodeError, match="unsupported plane flags"):
            decode_samples(io.BytesIO(tampered), m, _toy_store())


@pytest.mark.parametrize(
    "change, message",
    [
        ({"end": 6}, "sample 0 doc A: capacity exceeded: offset 0 \\+ length 6 > 5"),
        (
            {"start": 2**40, "end": 2**40 + 3},
            "^sample 0: token range \\[1099511627776, 1099511627779\\) outside document 'A'",
        ),
    ],
    ids=["end_past_L", "start_at_2**40"],
)
def test_decode_checks_placement_before_use(toy_docs, change, message):
    # a sound stream read against a manifest whose first placement (A's three
    # tokens at offset 0) was edited: no numpy error, only DecodeError
    m = pack_corpus(toy_docs[:2], make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, summary = _emit(m)
    (placements, separators), *rest = samples_of(m.samples)
    first = replace_row(placements[0], **change)
    bad = replace(m, samples=plan_table([((first,), separators), *rest]))
    with pytest.raises(DecodeError, match=message):
        decode_samples(io.BytesIO(blob), bad, _toy_store(), summary.checksum)


def test_emit_rejects_short_token_store(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))

    class Short:
        def get(self, doc_id, start, end):
            return np.zeros(max(0, end - start - 1), dtype="<u4")

    with pytest.raises(EmitError, match="token store returned"):
        emit_samples(m, Short(), io.BytesIO())


def _file_store_plan(tmp_path):
    """A 3-document token corpus under pld at L=5, one document per
    sample, with its ingested records and manifest."""
    corpus_path, _ = write_token_corpus(tmp_path, [3, 4, 2], random.Random(8))
    docs = ingest_corpus(corpus_path, mode="full")
    m = pack_corpus(docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    assert [[doc_id for doc_id, *_ in placements] for placements, _ in samples_of(m.samples)] == [
        ["d0"], ["d1"], ["d2"]
    ]
    return docs, m


def test_store_truncated_after_open_is_a_short_read(tmp_path):
    docs, m = _file_store_plan(tmp_path)
    with FileTokenStore(docs, base_dir=tmp_path) as store:
        blob, summary = _emit(m, store)
        os.truncate(tmp_path / "tokens.bin", 12)  # d0's three tokens remain
        message = r"^sample 1: short read of 'd1' from token store 'tokens.bin': 0 of 16 bytes$"
        with pytest.raises(EmitError, match=message):
            emit_samples(m, store, io.BytesIO())
        with pytest.raises(DecodeError, match=message):
            decode_samples(io.BytesIO(blob), m, store, summary.checksum)


def test_failed_emit_leaves_no_output(tmp_path):
    docs, m = _file_store_plan(tmp_path)
    store_path = tmp_path / "tokens.bin"
    before = sorted(tmp_path.iterdir())

    class TruncateStoreAfterFirstSample:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.fh.write(data)
            self.writes += 1
            if self.writes == 2:  # the header, then sample 0
                os.truncate(store_path, 0)

    out = tmp_path / "samples.bin"
    with FileTokenStore(docs, base_dir=tmp_path) as store:
        with pytest.raises(EmitError, match="^sample 1: short read of 'd1'"):
            write_bytes_atomic(
                out, lambda fh: emit_samples(m, store, TruncateStoreAfterFirstSample(fh))
            )
    assert not out.exists()
    assert sorted(tmp_path.iterdir()) == before


def test_store_built_from_the_verify_report_resolves_derived_chunks(tmp_path):
    # under split only the policy's output names the chunks the plan places
    (tmp_path / "t.bin").write_bytes(np.arange(100, 115, dtype="<u4").tobytes())
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(
        '{"doc_id": "a", "length": 12, "token_file": "t.bin", "offset": 0}\n'
        '{"doc_id": "b", "length": 3, "token_file": "t.bin", "offset": 48}\n'
    )
    docs = ingest_corpus(corpus_path, mode="full")
    m = pack_corpus(docs, make_config(Strategy.BEST_FIT))
    with FileTokenStore(docs, base_dir=tmp_path) as raw:
        with pytest.raises(EmitError, match="no token data for document 'a#0'"):
            emit_samples(m, raw, io.BytesIO())
    report = verify_manifest(m, docs)
    assert report.ok
    with FileTokenStore(report.retained, base_dir=tmp_path) as store:
        blob, summary = _emit(m, store)
        decode_samples(io.BytesIO(blob), m, store, summary.checksum)


def test_emit_rejects_boundary_overflow(toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    # graft 65536 single-token placements onto one sample
    many = (("A", 0, 1, 0),) * 65536
    (_, separators), *rest = samples_of(m.samples)
    bad = replace(m, samples=plan_table([(many, separators), *rest]))
    with pytest.raises(EmitError, match="boundary plane holds at most"):
        emit_samples(bad, _toy_store(), io.BytesIO())


@pytest.mark.parametrize(
    "placements, separators, message",
    [
        ((("A", 0, 3, 3),), (3,), "doc A: capacity exceeded: offset 3 \\+ length 3 > 5"),
        ((("A", -1, 2, 0),), (3,), "doc A: bad placement range \\[-1, 2\\)"),
        ((("A", 0, 3, 0),), (5,), "separator position 5 out of range"),
        ((("A", 0, 3, 0),), (-1,), "separator position -1 out of range"),
        (
            (("A", 0, 3, 0), ("B", 0, 1, 2)),
            (3,),
            "overlapping spans within sample",
        ),
    ],
    ids=[
        "offset_past_L", "negative_start", "separator_at_L", "separator_below_zero",
        "overlapping_placements",
    ],
)
def test_emit_and_decode_check_sample_layout(toy_docs, placements, separators, message):
    # sample 0 of a sound 2-document plan at L=5, replaced by a broken layout:
    # emit writes nothing of it, and decode refuses it before reading a plane
    m = pack_corpus(toy_docs[:2], make_config(Strategy.PAD_LAST_DOCUMENT))
    blob, summary = _emit(m)
    bad = replace(m, samples=plan_table([(placements, separators), *samples_of(m.samples)[1:]]))
    sink = io.BytesIO()
    with pytest.raises(EmitError, match=rf"^sample 0\b.*{message}"):
        emit_samples(bad, _toy_store(), sink)
    assert len(sink.getvalue()) == HEADER.size
    with pytest.raises(DecodeError, match=rf"^sample 0\b.*{message}"):
        decode_samples(io.BytesIO(blob), bad, _toy_store(), summary.checksum)


def test_random_round_trips_across_strategies():
    rng = random.Random(51)
    for trial in range(12):
        lengths = random_lengths(rng, rng.randint(1, 30), 10)
        docs = docs_from_lengths(lengths)
        store = _random_store(rng, lengths)
        strategy = ALL_STRATEGIES[trial % 4]
        cfg = make_config(
            strategy,
            context_length=10,
            sep_after_every_doc=rng.random() < 0.5,
            drop_final_partial=rng.random() < 0.5,
        )
        m = pack_corpus(docs, cfg)
        masked = trial // 4 % 2 == 1  # each strategy both ways
        sink = io.BytesIO()
        summary = emit_samples(m, store, sink, mask_separators=masked)
        result = decode_samples(
            io.BytesIO(sink.getvalue()), m, store, summary.checksum, mask_separators=masked
        )
        separators = sum(len(s.separators) for s in m.samples)
        assert result.zero_mask_tokens == m.metrics.padding_token_count + (separators if masked else 0)


def test_decode_empty_stream_round_trip():
    m = pack_corpus([], make_config(Strategy.BEST_FIT))
    blob, summary = _emit(m, InMemoryTokenStore({}))
    assert len(blob) == HEADER.size
    result = decode_samples(io.BytesIO(blob), m, InMemoryTokenStore({}), summary.checksum)
    assert result.zero_mask_tokens == 0


@st.composite
def _damaged_streams(draw):
    """A small corpus packed under any strategy and emitted, then damaged
    in one way: truncated, one bit flipped, two differing samples swapped,
    or one byte appended."""
    L = draw(st.integers(2, 12))
    lengths = draw(st.lists(st.integers(1, 2 * L), max_size=12))
    cfg = make_config(
        draw(st.sampled_from(ALL_STRATEGIES)),
        context_length=L,
        sep_after_every_doc=draw(st.booleans()),
        drop_final_partial=draw(st.booleans()),
    )
    docs = docs_from_lengths(lengths)
    m = pack_corpus(docs, cfg)
    rng = random.Random(draw(st.integers(0, 2**32)))
    store = InMemoryTokenStore(
        {d.doc_id: [rng.randrange(2, 2**31) for _ in range(d.length)] for d in apply_policy(docs, cfg)[0]}
    )
    blob, summary = _emit(m, store)
    kind = draw(st.sampled_from(["truncate", "flip", "swap", "append"]))
    if kind == "truncate":
        damaged = blob[: draw(st.integers(0, len(blob) - 1))]
    elif kind == "flip":
        bit = draw(st.integers(0, 8 * len(blob) - 1))
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
    elif kind == "swap":
        spans, pos = [], HEADER.size
        for sample in m.samples:
            size = 5 * L + 2 + 4 * len(sample.placements)
            spans.append((pos, pos + size))
            pos += size
        pairs = [
            (a, b) for a, b in itertools.combinations(spans, 2) if blob[a[0] : a[1]] != blob[b[0] : b[1]]
        ]
        assume(pairs)
        (a0, a1), (b0, b1) = draw(st.sampled_from(pairs))
        damaged = blob[:a0] + blob[b0:b1] + blob[a1:b0] + blob[a0:a1] + blob[b1:]
    else:
        damaged = blob + bytes([draw(st.integers(0, 255))])
    return m, store, bytes(damaged), summary.checksum


@settings(max_examples=300, deadline=None)
@given(_damaged_streams())
def test_damaged_stream_always_raises_decode_error(case):
    m, store, damaged, checksum = case
    with pytest.raises(DecodeError):
        decode_samples(io.BytesIO(damaged), m, store, expected_checksum=checksum)


@settings(max_examples=300, deadline=None)
@given(_damaged_streams())
def test_damaged_stream_raises_decode_error_without_checksum(case):
    m, store, damaged, _ = case
    with pytest.raises(DecodeError):
        decode_samples(io.BytesIO(damaged), m, store, expected_checksum=None)
