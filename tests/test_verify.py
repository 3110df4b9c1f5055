from __future__ import annotations

import random
from dataclasses import replace

import pytest

from seqpack import (
    CorpusSummary,
    LongDocPolicy,
    PackingManifest,
    Strategy,
    pack_corpus,
    verify_manifest,
)
from seqpack.longdoc import apply_policy
from seqpack.metrics import compute_metrics

from util import (
    ALL_STRATEGIES,
    docs_from_lengths,
    make_config,
    plan_table,
    random_lengths,
    replace_row,
    samples_of,
    separator_mutant,
    structural_violations,
)


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
                violations = structural_violations(manifest, docs)
                assert not violations, f"{strategy} {policy} drop={drop_tail}: {list(map(str, violations))}"


@pytest.mark.parametrize(
    "strategy, sep, lengths, L, samples, expected",
    [
        # C is replaced by a separator and never trained on
        (Strategy.CONCAT_THEN_SPLIT, True, {"A": 3, "B": 4, "C": 2}, 5,
         (((("A", 0, 3, 0), ("B", 0, 1, 4)), (3,)),
          ((("B", 1, 4, 0),), (3, 4))),
         ["sample 1: separator at 4 does not follow a document's last token"]),
        # A ends flush with the sample: its separator must open the next one
        (Strategy.CONCAT_THEN_SPLIT, True, {"A": 5, "B": 3, "C": 1}, 5,
         (((("A", 0, 5, 0),), ()), ((("B", 0, 3, 0), ("C", 0, 1, 4)), (3,))),
         ["sample 1 doc A: no separator after its last token at 0"]),
        # A and B trained as one document
        *[(s, True, {"A": 2, "B": 2, "C": 2}, 8,
           (((("A", 0, 2, 0), ("B", 0, 2, 2), ("C", 0, 2, 5)), (4, 7)),),
           ["sample 0 doc A: no separator after its last token at 2"])
          for s in (Strategy.BEST_FIT, Strategy.PAD_LAST_DOCUMENT)],
        # the config says there are no separators
        *[(s, False, {"A": 2, "B": 2}, 8, ((pls, seps),),
           [f"sample 0: separator at {seps[0]} does not follow a document's last token"])
          for s in (Strategy.BEST_FIT, Strategy.PAD_LAST_DOCUMENT)
          for pls, seps in [((("A", 0, 2, 0), ("B", 0, 2, 2)), (4,)),
                            ((("A", 0, 2, 0), ("B", 0, 2, 3)), (2,))]],
    ],
    ids=["cts_lost_doc", "cts_flush_end", "bf_merged", "pld_merged",
         "bf_sep_off_added", "bf_sep_off_moved", "pld_sep_off_added", "pld_sep_off_moved"],
)
def test_separators_stand_only_after_last_tokens(strategy, sep, lengths, L, samples, expected):
    manifest, docs = separator_mutant(strategy, sep, lengths, L, samples)
    assert [str(v) for v in verify_manifest(manifest, docs).violations] == expected


@pytest.mark.parametrize(
    "policy, overlap",
    [(LongDocPolicy.SPLIT, None), (LongDocPolicy.SLIDE, 2), (LongDocPolicy.DROP, None)],
    ids=lambda p: getattr(p, "value", p),
)
def test_report_holds_the_retained_records(policy, overlap):
    docs = docs_from_lengths([12, 3, 7, 4])
    cfg = make_config(Strategy.BEST_FIT, long_doc_policy=policy, slide_overlap=overlap)
    manifest = pack_corpus(docs, cfg)
    assert not structural_violations(manifest, docs)
    assert list(verify_manifest(manifest, docs).retained) == list(apply_policy(docs, cfg)[0])


def _tamper_sample(manifest, sample_idx, placements=None, separators=None):
    samples = samples_of(manifest.samples)
    old_placements, old_separators = samples[sample_idx]
    samples[sample_idx] = (
        old_placements if placements is None else placements,
        old_separators if separators is None else separators,
    )
    return replace(manifest, samples=plan_table(samples))


def _tamper_placement(manifest, sample_idx, placement_idx, **changes):
    pls = list(samples_of(manifest.samples)[sample_idx][0])
    pls[placement_idx] = replace_row(pls[placement_idx], **changes)
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


def test_detects_more_placements_than_the_boundary_plane_holds():
    # the sample format's uint16 boundary count cannot record this
    # one-sample plan's placements, so emit would refuse it and pack
    # refuses to write it: build the plan pad_last_document gives by hand
    docs = docs_from_lengths([1] * 70_000)
    cfg = make_config(Strategy.PAD_LAST_DOCUMENT, context_length=200_000)
    sample = (
        tuple((d.doc_id, 0, 1, 2 * i) for i, d in enumerate(docs)),
        tuple(2 * i + 1 for i in range(len(docs))),
    )
    plan = plan_table([sample])
    metrics = compute_metrics(plan, docs, cfg.context_length)
    manifest = PackingManifest(cfg, CorpusSummary(len(docs), len(docs)), plan, metrics)
    assert [str(v) for v in verify_manifest(manifest, docs).violations] == [
        "sample 0: 70000 placements; the boundary plane holds at most 65535"
    ]


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
    placements2, _ = samples_of(manifest.samples)[2]
    dup = replace_row(placements2[0], doc_id="A", start=0, end=3)
    bad = _tamper_sample(manifest, 2, placements=(dup,), separators=(3,))
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
    placements, _ = samples_of(manifest.samples)[1]
    shifted = replace_row(placements[0], offset=1, start=1)
    bad = _tamper_sample(manifest, 1, placements=(shifted,), separators=(4,))
    msgs = _messages(verify_manifest(bad, docs))
    assert "must start with a document head" in msgs


def test_detects_unexpected_padding_under_zero_padding_strategy(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.CONCAT_THEN_SPLIT)
    placements, _ = samples_of(manifest.samples)[1]
    # drop the trailing placement and call the space padding
    bad = _tamper_sample(manifest, 1, placements=placements[:1], separators=(3,))
    msgs = _messages(verify_manifest(bad, docs))
    assert "unexpected padding under zero-padding strategy" in msgs


@pytest.mark.parametrize(
    "strategy", [Strategy.CONCAT_THEN_SPLIT, Strategy.RESTART_LAST_DOCUMENT], ids=lambda s: s.value
)
def test_only_a_kept_final_sample_may_pad(toy_docs, strategy):
    # --no-final-drop keeps a padded final sample, not a padded one
    # mid-stream: each document alone with its separator, metrics recomputed
    samples = plan_table((((d.doc_id, 0, d.length, 0),), (d.length,)) for d in toy_docs)
    manifest, docs = _pack(toy_docs, strategy, drop_final_partial=False)
    bad = replace(manifest, samples=samples, metrics=compute_metrics(samples, docs, 5))
    assert [str(v) for v in verify_manifest(bad, docs).violations] == [
        "sample 0: unexpected padding under zero-padding strategy"
    ]


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
    placements, _ = samples_of(manifest.samples)[1]
    shrunk = replace_row(placements[0], end=3)
    bad = _tamper_sample(manifest, 1, placements=(shrunk,), separators=separators)
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
    bad = _tamper_sample(manifest, 0, separators=separators)
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
    bad = _tamper_sample(manifest, 0, placements=(), separators=())
    msgs = _messages(verify_manifest(bad, docs))
    assert "sample has no placements" in msgs


def test_detects_restart_order_violation():
    from seqpack.model import CorpusSummary, PackingManifest

    # a manifest claiming the full copy came before the tail fragment
    docs = docs_from_lengths([4])
    cfg = make_config(Strategy.RESTART_LAST_DOCUMENT, drop_final_partial=False)
    s0 = ((("d0", 0, 4, 0),), (4,))
    s1 = ((("d0", 0, 2, 0),), ())
    plan = plan_table([s0, s1])
    metrics = compute_metrics(plan, docs, 5)
    bad = PackingManifest(cfg, CorpusSummary(1, 4), plan, metrics, 0)
    msgs = _messages(verify_manifest(bad, docs))
    assert "restart precedes its tail fragment" in msgs


def test_detects_gap_in_concat_coverage(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.CONCAT_THEN_SPLIT)
    # sample 1 opens with B's continuation [1, 4); start it at 2 instead
    bad = _tamper_placement(manifest, 1, 0, start=2)
    assert [str(v) for v in verify_manifest(bad, docs).violations] == [
        "sample 1: gap in sample at offset 2",
        "doc B: gap in coverage at token 1",
        "metrics mismatch: padding_token_count stored 0, recomputed 1",
        "metrics mismatch: padding_rate stored 0.0, recomputed 0.1",
    ]


def test_detects_duplicate_concat_coverage(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.CONCAT_THEN_SPLIT)
    # sample 1 opens with B's continuation [1, 4); cover [0, 3) again instead
    assert samples_of(manifest.samples)[1][0][0] == ("B", 1, 4, 0)
    bad = _tamper_placement(manifest, 1, 0, start=0, end=3)
    assert [str(v) for v in verify_manifest(bad, docs).violations] == ["doc B: duplicate coverage"]


def test_detects_restart_fragment_off_the_document_head(toy_docs):
    manifest, docs = _pack(toy_docs, Strategy.RESTART_LAST_DOCUMENT)
    # sample 0 ends with B's tail fragment [0, 1); move it to [1, 2)
    bad = _tamper_placement(manifest, 0, 1, start=1, end=2)
    assert [str(v) for v in verify_manifest(bad, docs).violations] == [
        "doc B: placement must start at document offset 0",
    ]


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
    samples = plan_table(samples_of(manifest.samples)[::2])
    metrics = compute_metrics(samples, docs, 5)
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
    bad = replace(manifest, samples=plan_table(samples_of(manifest.samples)[:-1]))
    bad = replace(bad, metrics=compute_metrics(bad.samples, docs, 5))
    assert [v.doc_id for v in verify_manifest(bad, docs).violations] == ["C"]


def test_violation_str_includes_location():
    from seqpack.verify import Violation

    assert str(Violation(3, "x", "boom")) == "sample 3 doc x: boom"
    assert str(Violation(None, None, "boom")) == "boom"
    assert str(Violation(2, None, "boom")) == "sample 2: boom"
