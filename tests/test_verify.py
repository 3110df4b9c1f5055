from __future__ import annotations

import random
from dataclasses import replace

import pytest

from seqpack import (
    LongDocPolicy,
    Placement,
    Strategy,
    pack_corpus,
    verify_manifest,
)
from seqpack.metrics import compute_metrics

from util import ALL_STRATEGIES, docs_from_lengths, make_config, random_lengths


def _messages(report):
    return " | ".join(v.message for v in report.violations)


def test_engine_output_verifies_clean_across_strategies_and_policies():
    rng = random.Random(41)
    policies = [
        (LongDocPolicy.SPLIT, None),
        (LongDocPolicy.SLIDE, 3),
        (LongDocPolicy.DROP, None),
    ]
    for strategy in ALL_STRATEGIES:
        for policy, overlap in policies:
            for drop_tail in (True, False):
                lengths = random_lengths(rng, 40, 30)
                docs = docs_from_lengths(lengths)
                cfg = make_config(
                    strategy,
                    context_length=12,
                    long_doc_policy=policy,
                    slide_overlap=overlap,
                    drop_final_partial=drop_tail,
                )
                manifest = pack_corpus(docs, cfg)
                report = verify_manifest(manifest, docs)
                assert report.ok, f"{strategy} {policy} drop={drop_tail}: {_messages(report)}"


def _tamper_sample(manifest, sample_idx, **changes):
    samples = list(manifest.samples)
    samples[sample_idx] = replace(samples[sample_idx], **changes)
    return replace(manifest, samples=tuple(samples))


def _tamper_placement(manifest, sample_idx, placement_idx, **changes):
    sample = manifest.samples[sample_idx]
    pls = list(sample.placements)
    pls[placement_idx] = replace(pls[placement_idx], **changes)
    return _tamper_sample(manifest, sample_idx, placements=tuple(pls))


def _pack(toy_docs, strategy, **kw):
    cfg = make_config(strategy, **kw)
    return pack_corpus(toy_docs, cfg), toy_docs


def test_detects_capacity_overflow(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.PAD_LAST_DOCUMENT)
    bad = _tamper_placement(manifest, 0, 0, offset=3)
    report = verify_manifest(bad, docs)
    assert not report.ok
    assert "capacity exceeded" in _messages(report)


def test_detects_out_of_bounds_placement(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.PAD_LAST_DOCUMENT)
    bad = _tamper_placement(manifest, 0, 0, end=9)
    assert "outside document bounds" in _messages(verify_manifest(bad, docs))


def test_detects_unknown_doc_id(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.PAD_LAST_DOCUMENT)
    bad = _tamper_placement(manifest, 0, 0, doc_id="ghost")
    msgs = _messages(verify_manifest(bad, docs))
    assert "unknown doc_id" in msgs


def test_detects_duplicate_coverage(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.BEST_FIT)
    # point sample 2's placement at a doc that is already fully placed
    sample2 = manifest.samples[2]
    dup = replace(sample2.placements[0], doc_id="A", start=0, end=3)
    bad = _tamper_sample(manifest, 2, placements=(dup,), separator_positions=(3,))
    msgs = _messages(verify_manifest(bad, docs))
    assert "duplicate coverage" in msgs
    assert "missing from packing" in msgs  # C disappeared


def test_detects_fragment_under_fragment_free_strategy(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.BEST_FIT)
    bad = _tamper_placement(manifest, 1, 0, end=2)  # truncate A's placement
    msgs = _messages(verify_manifest(bad, docs))
    assert "fragmented document under fragment-free strategy" in msgs


def test_detects_metrics_mismatch(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.PAD_LAST_DOCUMENT)
    bad = replace(manifest, metrics=replace(manifest.metrics, padding_token_count=0))
    msgs = _messages(verify_manifest(bad, docs))
    assert "metrics mismatch: padding_token_count stored 0" in msgs


def test_detects_head_rule_violation(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.BEST_FIT)
    # shift sample 1's lone placement off the sample head
    sample = manifest.samples[1]
    shifted = replace(sample.placements[0], offset=1, start=1)
    bad = _tamper_sample(manifest, 1, placements=(shifted,), separator_positions=(4,))
    msgs = _messages(verify_manifest(bad, docs))
    assert "must start with a document head" in msgs


def test_detects_unexpected_padding_under_zero_padding_strategy(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.CONCAT_THEN_SPLIT)
    sample = manifest.samples[1]
    # drop the trailing placement and call the space padding
    bad = _tamper_sample(
        manifest,
        1,
        placements=sample.placements[:1],
        separator_positions=(3,),
    )
    msgs = _messages(verify_manifest(bad, docs))
    assert "unexpected padding under zero-padding strategy" in msgs


def test_detects_overlapping_spans(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.CONCAT_THEN_SPLIT)
    bad = _tamper_placement(manifest, 0, 1, offset=2)
    msgs = _messages(verify_manifest(bad, docs))
    assert "overlapping spans" in msgs or "out of order" in msgs


# each case adds one kind of separator damage next to the pinned violation;
# the damage must not hide it, and is reported itself (L=5)
@pytest.mark.parametrize(
    "separators, extra",
    [
        ((4,), None),
        ((-1, 4), "separator position -1 out of range"),
        ((4, 5), "separator position 5 out of range"),
        ((4, 8), "separator position 8 out of range"),
        ((4, 4), "separator at 4 inside a placement"),
        ((4, 2), "separator at 2 inside a placement"),
    ],
    ids=["pinned", "below_zero", "at_L", "past_L", "duplicated", "out_of_order"],
)
def test_detects_gap(toy_docs, separators, extra):
    manifest, docs = _pack(toy_docs, Strategy.RESTART_LAST_DOCUMENT)
    # sample 1 holds B[0,4)+sep; shrink B to [0,3) at offset 0 and move the
    # separator to 4, leaving offset 3 uncovered
    sample = manifest.samples[1]
    shrunk = replace(sample.placements[0], end=3)
    bad = _tamper_sample(manifest, 1, placements=(shrunk,), separator_positions=separators)
    msgs = _messages(verify_manifest(bad, docs))
    assert "gap in sample at offset 3" in msgs
    assert extra is None or extra in msgs


@pytest.mark.parametrize(
    "separators, extra",
    [
        ((1,), None),
        ((-1, 1), "separator position -1 out of range"),
        ((1, 5), "separator position 5 out of range"),
        ((1, 8), "separator position 8 out of range"),
        ((1, 3, 3), "separator at 3 inside a placement"),
        ((3, 1), None),
    ],
    ids=["pinned", "below_zero", "at_L", "past_L", "duplicated", "out_of_order"],
)
def test_detects_separator_inside_placement(toy_docs, separators, extra):
    # sample 0 holds A[0,3) at 0, its separator at 3, then B[0,1) at 4
    manifest, docs = _pack(toy_docs, Strategy.CONCAT_THEN_SPLIT)
    bad = _tamper_sample(manifest, 0, separator_positions=separators)
    msgs = _messages(verify_manifest(bad, docs))
    assert "separator at 1 inside a placement" in msgs
    assert extra is None or extra in msgs


def test_detects_corpus_summary_mismatch(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.BEST_FIT)
    report = verify_manifest(manifest, docs[:2])
    msgs = _messages(report)
    assert "corpus summary mismatch" in msgs


@pytest.mark.parametrize(
    "dropped", [(), ("d1", "d0"), ("d1", "bogus")], ids=["emptied", "plus_retained", "plus_bogus"]
)
def test_detects_wrong_dropped_list(dropped):
    docs = docs_from_lengths([3, 9])
    manifest = pack_corpus(docs, make_config(Strategy.BEST_FIT, long_doc_policy=LongDocPolicy.DROP))
    assert manifest.documents.dropped == ("d1",)
    bad = replace(manifest, documents=replace(manifest.documents, dropped=dropped))
    assert _messages(verify_manifest(bad, docs)) == "dropped documents differ"


def test_detects_empty_sample(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.PAD_LAST_DOCUMENT)
    bad = _tamper_sample(manifest, 0, placements=(), separator_positions=())
    msgs = _messages(verify_manifest(bad, docs))
    assert "sample has no placements" in msgs


def test_detects_restart_order_violation():
    from seqpack.model import CorpusSummary, PackedSample, PackingManifest

    # a manifest claiming the full copy came before the tail fragment
    docs = docs_from_lengths([4])
    cfg = make_config(Strategy.RESTART_LAST_DOCUMENT, drop_final_partial=False)
    s0 = PackedSample((Placement("d0", 0, 4, 0),), (4,))
    s1 = PackedSample((Placement("d0", 0, 2, 0),))
    metrics = compute_metrics([s0, s1], docs, 5)
    bad = PackingManifest(cfg, CorpusSummary(1, 4), (s0, s1), metrics, 0)
    msgs = _messages(verify_manifest(bad, docs))
    assert "restart precedes its tail fragment" in msgs


@pytest.mark.parametrize(
    "strategy, message",
    [
        (Strategy.RESTART_LAST_DOCUMENT, "document missing from packing"),
        (Strategy.CONCAT_THEN_SPLIT, "sample count 2 is not 3 for a 15-token stream"),
    ],
    ids=["restart", "concat"],
)
def test_detects_missing_middle_sample(strategy, message):
    # every document fills one sample whole; sample 1 (d1) is removed and
    # the metrics recomputed, so only coverage can tell
    docs = docs_from_lengths([4, 4, 4])
    manifest = pack_corpus(docs, make_config(strategy))
    assert len(manifest.samples) == 3
    samples = (manifest.samples[0], manifest.samples[2])
    metrics = compute_metrics(list(samples), docs, 5)
    bad = replace(manifest, samples=samples, metrics=metrics)
    assert message in _messages(verify_manifest(bad, docs))


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.value)
def test_detects_wrong_discarded_tail(toy_docs, strategy):
    manifest, docs = _pack(toy_docs, strategy)
    want = manifest.discarded_tail_tokens
    bad = replace(manifest, discarded_tail_tokens=999)
    msgs = _messages(verify_manifest(bad, docs))
    assert f"discarded tail mismatch: manifest says 999 tokens, corpus gives {want}" in msgs


def test_restart_kept_tail_must_place_every_document(toy_docs):
    # with the final sample kept, the dropped-tail suffix must be empty
    manifest, docs = _pack(toy_docs, Strategy.RESTART_LAST_DOCUMENT, drop_final_partial=False)
    bad = replace(manifest, samples=manifest.samples[:-1])
    bad = replace(bad, metrics=compute_metrics(list(bad.samples), docs, 5))
    assert [v.doc_id for v in verify_manifest(bad, docs).violations] == ["C"]


def test_violation_str_includes_location():
    from seqpack.verify import Violation

    assert str(Violation(3, "x", "boom")) == "sample 3 doc x: boom"
    assert str(Violation(None, None, "boom")) == "boom"
    assert str(Violation(2, None, "boom")) == "sample 2: boom"
