from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpack import (
    CorpusError,
    CorpusTable,
    DocumentRecord,
    LongDocPolicy,
    PackingConfig,
    Strategy,
)
from seqpack.corpus import ingest_corpus
from seqpack.longdoc import apply_policy

from oracle import reference_collision
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


def _collision(docs, cfg=None):
    """The message ``apply_policy`` raises for ``docs`` (L=4, split by
    default), or ``None``."""
    try:
        apply_policy(docs, cfg or make_config(Strategy.BEST_FIT, context_length=4))
    except CorpusError as exc:
        return str(exc)
    return None


_A = DocumentRecord("a", 9)  # over L=4: a#0, a#1, a#2


@pytest.mark.parametrize("docs", [
    [DocumentRecord("a#1", 2), _A],  # the fitting row comes before the chunk
    [_A, DocumentRecord("a#1", 2)],  # and after it
], ids=["before", "after"])
def test_a_fitting_row_named_like_a_chunk_collides(docs):
    assert _collision(docs) == "derived chunk id 'a#1' collides with another document"


def test_a_collision_names_the_first_id_seen_twice_in_output_order():
    # a#2 comes first in the corpus, but b#0 is the first id repeated in the output
    docs = [DocumentRecord("a#2", 1), DocumentRecord("b#0", 1), DocumentRecord("b", 5), _A]
    assert _collision(docs) == "derived chunk id 'b#0' collides with another document"


@pytest.mark.parametrize("doc_id", [
    "a#3",  # a has chunks 0 to 2 only
    "a#01", "a#+1", "a# 1", "a#\u0661", "a#", "a##1",  # not the canonical ASCII decimal of a chunk
    "b#0",  # b fits, so it has no chunks
])
def test_a_fitting_row_named_unlike_any_chunk_is_kept(doc_id):
    docs = [_A, DocumentRecord("b", 2), DocumentRecord(doc_id, 2)]
    assert _collision(docs) is None
    assert [d.doc_id for d in apply_policy(docs, make_config(Strategy.BEST_FIT, context_length=4))[0]] == [
        "a#0", "a#1", "a#2", "b", doc_id,
    ]


def test_a_parent_id_that_holds_a_hash_splits_at_its_own_end():
    # a#1 over L is split into a#1#0, a#1#1, a#1#2 and leaves the output, so it
    # does not collide with a's chunk a#1; a fitting a#1#0 collides with its chunk
    assert _collision([_A, DocumentRecord("a#1", 9)]) is None
    assert _collision([DocumentRecord("a#1", 9), DocumentRecord("a#1#0", 2)]) == (
        "derived chunk id 'a#1#0' collides with another document"
    )


def test_a_collision_counts_the_slide_policys_chunks():
    # length 11, window 4, overlap 1: four windows where split cuts three chunks
    cfg = make_config(Strategy.BEST_FIT, context_length=4, long_doc_policy=LongDocPolicy.SLIDE, slide_overlap=1)
    x = DocumentRecord("X", 11)
    assert _collision([x, DocumentRecord("X#3", 1)], cfg) == "derived chunk id 'X#3' collides with another document"
    assert _collision([x, DocumentRecord("X#4", 1)], cfg) is None
    assert _collision([x, DocumentRecord("X#3", 1)]) is None


def test_a_duplicate_plain_id_is_left_to_ingest(tmp_path):
    # the policy checks derived ids only; a corpus file with a repeated id is
    # refused where it is read
    docs = [_A, DocumentRecord("b", 2), DocumentRecord("b", 3), _A]
    assert [d.doc_id for d in apply_policy(docs, make_config(Strategy.BEST_FIT, context_length=4))[0]] == [
        "a#0", "a#1", "a#2", "b", "b", "a#0", "a#1", "a#2",
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(f'{{"doc_id": "{d.doc_id}", "length": {d.length}}}\n' for d in docs))
    with pytest.raises(CorpusError, match="line 3: duplicate doc_id 'b'"):
        ingest_corpus(path)


def test_ids_that_are_not_str_are_checked_by_the_output_walk():
    # the int 7 and the str "7" are distinct ids whose chunks are both named 7#0
    assert _collision([DocumentRecord(7, 9), DocumentRecord("7", 9)]) == (
        "derived chunk id '7#0' collides with another document"
    )
    assert _collision([DocumentRecord(7, 9), DocumentRecord(8, 2)]) is None


@st.composite
def _hash_named_corpora(draw):
    """Up to 12 documents with distinct ids over ``a``, ``#`` and digits, so
    many name another's chunk, and a split or slide config."""
    L = draw(st.integers(2, 6))
    ids = draw(st.lists(st.text("a#01", min_size=1, max_size=5), unique=True, max_size=12))
    docs = [DocumentRecord(doc_id, draw(st.integers(1, 3 * L))) for doc_id in ids]
    slide = draw(st.booleans())
    cfg = make_config(Strategy.BEST_FIT, context_length=L,
                      long_doc_policy=LongDocPolicy.SLIDE if slide else LongDocPolicy.SPLIT,
                      slide_overlap=draw(st.integers(1, L - 1)) if slide else None)
    return docs, cfg


@settings(max_examples=300, deadline=None)
@given(_hash_named_corpora())
def test_the_collision_rule_is_the_full_set_rule(case):
    docs, cfg = case
    assert _collision(docs, cfg) == reference_collision(docs, cfg)


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
