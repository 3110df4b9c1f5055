from __future__ import annotations

import random

import pytest

from seqpack import (
    CorpusError,
    CorpusTable,
    DocumentRecord,
    LongDocPolicy,
    PackingConfig,
    Strategy,
)
from seqpack.longdoc import apply_policy

from util import make_config


def _doc(n, doc_id="X", offset=0):
    return DocumentRecord(doc_id, n, "t.bin", offset)


def _split(doc, context_length):
    cfg = make_config(Strategy.BEST_FIT, context_length=context_length)
    return list(apply_policy([doc], cfg)[0])


def _slide(doc, context_length, overlap):
    cfg = make_config(
        Strategy.BEST_FIT,
        context_length=context_length,
        long_doc_policy=LongDocPolicy.SLIDE,
        slide_overlap=overlap,
    )
    return list(apply_policy([doc], cfg)[0])


def test_split_partitions_into_context_sized_chunks():
    chunks = _split(_doc(11), 4)
    assert [(c.doc_id, c.length) for c in chunks] == [("X#0", 4), ("X#1", 4), ("X#2", 3)]
    # byte offsets advance by 4 bytes per token
    assert [c.offset for c in chunks] == [0, 16, 32]
    assert all(c.token_file == "t.bin" for c in chunks)


def test_split_leaves_short_docs_alone():
    doc = _doc(4)
    assert _split(doc, 4) == [doc]
    assert _split(doc, 9) == [doc]


def test_split_partition_property():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 500)
        limit = rng.randint(2, 64)
        chunks = _split(DocumentRecord("d", n), limit)
        assert sum(c.length for c in chunks) == n
        assert all(1 <= c.length <= limit for c in chunks)
        assert all(c.length == limit for c in chunks[:-1])


def test_slide_windows_match_hand_trace():
    # length 11, window 4, overlap 1 -> stride 3 -> starts 0, 3, 6, 7
    chunks = _slide(_doc(11, offset=100), 4, overlap=1)
    assert [(c.doc_id, c.length) for c in chunks] == [
        ("X#0", 4),
        ("X#1", 4),
        ("X#2", 4),
        ("X#3", 4),
    ]
    assert [c.offset for c in chunks] == [100, 112, 124, 128]


def test_slide_final_window_pulls_back_flush():
    # length 8, window 4, overlap 2 -> stride 2 -> starts 0, 2, 4
    chunks = _slide(_doc(8), 4, overlap=2)
    assert [c.offset // 4 for c in chunks] == [0, 2, 4]
    assert all(c.length == 4 for c in chunks)


def test_slide_covers_every_token_property():
    rng = random.Random(6)
    for _ in range(200):
        limit = rng.randint(2, 32)
        overlap = rng.randint(1, limit - 1)
        n = rng.randint(limit + 1, limit * 20)
        chunks = _slide(DocumentRecord("d", n, "f", 0), limit, overlap)
        starts = [c.offset // 4 for c in chunks]
        assert all(c.length == limit for c in chunks)
        assert starts[0] == 0
        assert starts == sorted(set(starts))  # strictly increasing
        assert starts[-1] == n - limit  # last window ends flush
        covered = set()
        for s in starts:
            covered.update(range(s, s + limit))
        assert covered == set(range(n))


def test_slide_short_doc_untouched():
    doc = _doc(4)
    assert _slide(doc, 4, 1) == [doc]


def test_apply_policy_split_is_identity_for_short_corpora(toy_docs):
    cfg = make_config(Strategy.CONCAT_THEN_SPLIT, context_length=5)
    retained, dropped = apply_policy(toy_docs, cfg)
    assert list(retained) == toy_docs
    assert dropped == ()


def test_apply_policy_returns_a_table_that_fits_as_it_is(toy_docs):
    # compare's passes over retained rows allocate nothing
    table = CorpusTable.from_records(toy_docs)
    for policy in LongDocPolicy:
        cfg = make_config(Strategy.BEST_FIT, context_length=4, long_doc_policy=policy,
                          slide_overlap=1 if policy is LongDocPolicy.SLIDE else None)
        retained, dropped = apply_policy(table, cfg)
        assert retained is table and dropped == ()


def test_apply_policy_keeps_each_rows_token_reference():
    # a table holds rows with and without a token reference side by side
    docs = [DocumentRecord("a", 2, "t", 8), DocumentRecord("b", 9), DocumentRecord("c", 5, "u", 4)]
    retained, _ = apply_policy(docs, make_config(Strategy.BEST_FIT, context_length=4))
    assert list(retained) == [
        DocumentRecord("a", 2, "t", 8),
        DocumentRecord("b#0", 4), DocumentRecord("b#1", 4), DocumentRecord("b#2", 1),
        DocumentRecord("c#0", 4, "u", 4), DocumentRecord("c#1", 1, "u", 20),
    ]
    cfg = make_config(Strategy.BEST_FIT, context_length=4, long_doc_policy=LongDocPolicy.DROP)
    retained, dropped = apply_policy(docs, cfg)
    assert (list(retained), dropped) == ([DocumentRecord("a", 2, "t", 8)], ("b", "c"))


def test_apply_policy_drop_records_ids():
    cfg = make_config(Strategy.BEST_FIT, context_length=4, long_doc_policy=LongDocPolicy.DROP)
    docs = [DocumentRecord("a", 3), DocumentRecord("b", 9), DocumentRecord("c", 4), DocumentRecord("d", 5)]
    retained, dropped = apply_policy(docs, cfg)
    assert [d.doc_id for d in retained] == ["a", "c"]
    assert dropped == ("b", "d")


def test_apply_policy_slide_requires_overlap():
    with pytest.raises(Exception):
        PackingConfig(
            context_length=4,
            strategy=Strategy.BEST_FIT,
            long_doc_policy=LongDocPolicy.SLIDE,
        )


def test_apply_policy_rejects_derived_id_collision():
    cfg = make_config(Strategy.BEST_FIT, context_length=4)
    docs = [DocumentRecord("a", 9), DocumentRecord("a#0", 2)]
    with pytest.raises(CorpusError, match="collide"):
        apply_policy(docs, cfg)


def test_apply_policy_idempotent_on_its_own_output():
    cfg = make_config(Strategy.BEST_FIT, context_length=4)
    docs = [DocumentRecord("a", 11, "t", 0), DocumentRecord("b", 2)]
    retained, _ = apply_policy(docs, cfg)
    again, dropped = apply_policy(retained, cfg)
    assert again == retained
    assert dropped == ()


def test_split_chunk_lengths_never_exceed_context():
    rng = random.Random(7)
    for policy, overlap in (
        (LongDocPolicy.SPLIT, None),
        (LongDocPolicy.SLIDE, 5),
        (LongDocPolicy.DROP, None),
    ):
        cfg = make_config(
            Strategy.BEST_FIT, context_length=16, long_doc_policy=policy, slide_overlap=overlap
        )
        docs = [DocumentRecord(f"d{i}", rng.randint(1, 80)) for i in range(100)]
        retained, _ = apply_policy(docs, cfg)
        assert all(d.length <= 16 for d in retained)
