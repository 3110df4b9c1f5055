from __future__ import annotations

import random
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpack import (
    DocumentRecord,
    LongDocPolicy,
    Strategy,
    apply_policy,
    effective_length,
    pack_corpus,
)
from seqpack.manifest_io import manifest_to_json

from util import ALL_STRATEGIES, docs_from_lengths, make_config, random_lengths, samples_of


def _spans(sample):
    return list(sample[0])


def _occupied(sample):
    """A sample's placed tokens plus its separators."""
    placements, separators = sample
    return len(separators) + sum(end - start for _, start, end, _ in placements)


# --- concat_then_split -------------------------------------------------------

def test_concat_toy_layout(toy_docs):
    cfg = make_config(Strategy.CONCAT_THEN_SPLIT)
    m = pack_corpus(toy_docs, cfg)
    samples = samples_of(m.samples)
    assert len(samples) == 2
    assert _spans(samples[0]) == [("A", 0, 3, 0), ("B", 0, 1, 4)]
    assert samples[0][1] == (3,)
    assert _spans(samples[1]) == [("B", 1, 4, 0), ("C", 0, 1, 4)]
    assert samples[1][1] == (3,)
    assert m.discarded_tail_tokens == 2
    assert m.metrics.fragmented_doc_count == 2
    assert m.metrics.fragmentation_rate == pytest.approx(2 / 3)
    assert m.metrics.padding_rate == 0.0


def test_concat_keep_tail_pads_final_sample(toy_docs):
    cfg = make_config(Strategy.CONCAT_THEN_SPLIT, drop_final_partial=False)
    m = pack_corpus(toy_docs, cfg)
    assert len(m.samples) == 3
    assert m.discarded_tail_tokens == 0
    last = samples_of(m.samples)[-1]
    assert _spans(last) == [("C", 1, 2, 0)]
    assert last[1] == (1,)
    assert _occupied(last) == 2  # padded from offset 2
    assert m.metrics.padding_token_count == 3
    # B and C straddle sample borders; A stays intact
    assert m.metrics.fragmented_doc_count == 2


def test_concat_without_separators():
    cfg = make_config(Strategy.CONCAT_THEN_SPLIT, sep_after_every_doc=False)
    m = pack_corpus(docs_from_lengths([3, 4, 2]), cfg)
    # stream is 9 tokens; L=5 -> one full sample, 4 dropped
    assert len(m.samples) == 1
    assert samples_of(m.samples)[0][1] == ()
    assert m.discarded_tail_tokens == 4


def test_concat_handles_long_docs_via_split_policy():
    cfg = make_config(Strategy.CONCAT_THEN_SPLIT, context_length=4)
    m = pack_corpus(docs_from_lengths([11], prefix="big"), cfg)
    placed = {doc_id for placements, _ in samples_of(m.samples) for doc_id, *_ in placements}
    assert placed <= {"big0#0", "big0#1", "big0#2"}
    # stream: 4+1 + 4+1 + 3+1 = 14 tokens -> three full samples, 2 dropped
    assert m.metrics.sample_count == 3
    assert m.discarded_tail_tokens == 2


# --- restart_last_document ---------------------------------------------------

def test_restart_toy_layout(toy_docs):
    cfg = make_config(Strategy.RESTART_LAST_DOCUMENT)
    m = pack_corpus(toy_docs, cfg)
    samples = samples_of(m.samples)
    assert len(samples) == 2
    assert _spans(samples[0]) == [("A", 0, 3, 0), ("B", 0, 1, 4)]
    assert _spans(samples[1]) == [("B", 0, 4, 0)]
    assert samples[1][1] == (4,)
    assert m.discarded_tail_tokens == 3  # C and its separator never fill a sample
    assert m.metrics.fragmented_doc_count == 1
    assert m.metrics.fragmentation_rate == pytest.approx(1 / 3)
    assert m.metrics.padding_token_count == 0


def test_restart_elides_separator_when_doc_completes_flush():
    # doc 0 (+sep) leaves 4 slots; doc 1 is exactly 4 tokens, so it
    # completes at the boundary with its separator waived, no restart
    cfg = make_config(Strategy.RESTART_LAST_DOCUMENT, context_length=6)
    m = pack_corpus(docs_from_lengths([1, 4], prefix=""), cfg)
    assert samples_of(m.samples) == [((("0", 0, 1, 0), ("1", 0, 4, 2)), (1,))]
    assert m.metrics.fragmented_doc_count == 0
    assert m.metrics.padding_token_count == 0


def test_restart_exact_fill_with_separator():
    cfg = make_config(Strategy.RESTART_LAST_DOCUMENT, context_length=5)
    m = pack_corpus(docs_from_lengths([4, 4]), cfg)
    samples = samples_of(m.samples)
    assert _spans(samples[0]) == [("d0", 0, 4, 0)]
    assert samples[0][1] == (4,)
    assert _spans(samples[1]) == [("d1", 0, 4, 0)]
    assert m.discarded_tail_tokens == 0


def test_restart_partial_prefix_then_full_copy():
    cfg = make_config(Strategy.RESTART_LAST_DOCUMENT, context_length=5, drop_final_partial=False)
    m = pack_corpus(docs_from_lengths([2, 4]), cfg)
    # d0 spans [0,2) with its separator at 2; the two leftover slots take
    # d1[0:2) as a tail fragment; d1 restarts in full in sample 1
    samples = samples_of(m.samples)
    assert _spans(samples[0]) == [("d0", 0, 2, 0), ("d1", 0, 2, 3)]
    assert _spans(samples[1]) == [("d1", 0, 4, 0)]
    assert _occupied(samples[1]) == 5
    assert m.metrics.fragmented_doc_count == 1


def test_restart_never_pads_when_dropping_tail():
    rng = random.Random(21)
    for _ in range(50):
        lengths = random_lengths(rng, rng.randint(1, 40), 20)
        cfg = make_config(Strategy.RESTART_LAST_DOCUMENT, context_length=8)
        m = pack_corpus(docs_from_lengths(lengths), cfg)
        assert m.metrics.padding_token_count == 0
        for s in samples_of(m.samples):
            assert _occupied(s) == 8


# --- pad_last_document -------------------------------------------------------

def test_pad_toy_layout(toy_docs):
    cfg = make_config(Strategy.PAD_LAST_DOCUMENT)
    m = pack_corpus(toy_docs, cfg)
    samples = samples_of(m.samples)
    assert len(samples) == 3
    assert _spans(samples[0]) == [("A", 0, 3, 0)]
    assert _occupied(samples[0]) == 4
    assert _spans(samples[1]) == [("B", 0, 4, 0)]
    assert _occupied(samples[1]) == 5  # doc plus separator fills it
    assert _spans(samples[2]) == [("C", 0, 2, 0)]
    assert _occupied(samples[2]) == 3
    assert m.metrics.padding_token_count == 3
    assert m.metrics.padding_rate == pytest.approx(3 / 15)
    assert m.metrics.fragmented_doc_count == 0


def test_pad_charges_separator_mid_sample():
    # 3 (+sep) leaves 4 slots; 4 (+sep) needs 5, so the sample is padded
    # even though the bare document would fit
    cfg = make_config(Strategy.PAD_LAST_DOCUMENT, context_length=8)
    m = pack_corpus(docs_from_lengths([3, 4]), cfg)
    assert len(m.samples) == 2
    assert m.metrics.padding_token_count == 7


def test_pad_exact_fit_no_padding():
    cfg = make_config(Strategy.PAD_LAST_DOCUMENT, context_length=5)
    m = pack_corpus(docs_from_lengths([4, 4, 4]), cfg)
    assert len(m.samples) == 3
    assert all(_occupied(s) == 5 for s in samples_of(m.samples))
    assert m.metrics.padding_token_count == 0


def test_pad_doc_filling_whole_sample_elides_separator():
    cfg = make_config(Strategy.PAD_LAST_DOCUMENT, context_length=4)
    m = pack_corpus(docs_from_lengths([4]), cfg)
    assert samples_of(m.samples) == [((("d0", 0, 4, 0),), ())]
    assert m.metrics.padding_token_count == 0


def test_pad_never_fragments_property():
    rng = random.Random(22)
    for _ in range(50):
        lengths = random_lengths(rng, rng.randint(1, 40), 30)
        cfg = make_config(Strategy.PAD_LAST_DOCUMENT, context_length=12)
        m = pack_corpus(docs_from_lengths(lengths), cfg)
        assert m.metrics.fragmented_doc_count == 0
        for s in samples_of(m.samples):
            assert _occupied(s) <= 12


# --- the three sequential overflow rules ---------------------------------------

@pytest.mark.parametrize(
    "strategy, want_samples, want_discarded",
    [
        # the stream keeps every separator, so a's opens sample 1
        (
            Strategy.CONCAT_THEN_SPLIT,
            [([("a", 0, 4, 0)], ()), ([("b", 0, 2, 1)], (0, 3))],
            0,
        ),
        # a completes flush, separator elided; b and its separator are the tail
        (Strategy.RESTART_LAST_DOCUMENT, [([("a", 0, 4, 0)], ())], 3),
        # a fills sample 0 whole; the final partial sample is kept
        (
            Strategy.PAD_LAST_DOCUMENT,
            [([("a", 0, 4, 0)], ()), ([("b", 0, 2, 0)], (2,))],
            0,
        ),
    ],
    ids=["cts", "restart", "pad"],
)
def test_separator_after_a_flush_document(strategy, want_samples, want_discarded):
    cfg = make_config(strategy, context_length=4)
    m = pack_corpus([DocumentRecord("a", 4), DocumentRecord("b", 2)], cfg)
    assert [(_spans(s), s[1]) for s in samples_of(m.samples)] == want_samples
    assert m.discarded_tail_tokens == want_discarded


# --- best_fit ----------------------------------------------------------------

def test_best_fit_toy_layout(toy_docs):
    cfg = make_config(Strategy.BEST_FIT)
    m = pack_corpus(toy_docs, cfg)
    # decreasing effective length: B(5), A(4), C(3); each opens its own bin
    assert [_spans(s)[0][0] for s in samples_of(m.samples)] == ["B", "A", "C"]
    assert len(m.samples) == 3
    assert m.metrics.padding_token_count == 3
    assert m.metrics.fragmented_doc_count == 0


def test_best_fit_two_bins_fixture():
    cfg = make_config(Strategy.BEST_FIT, context_length=8, sep_after_every_doc=False)
    m = pack_corpus(docs_from_lengths([5, 4, 3, 3, 1]), cfg)
    bins = [[doc_id for doc_id, *_ in placements] for placements, _ in samples_of(m.samples)]
    assert bins == [["d0", "d2"], ["d1", "d3", "d4"]]
    assert m.metrics.padding_token_count == 0


def test_best_fit_padding_fixture():
    cfg = make_config(Strategy.BEST_FIT, context_length=8, sep_after_every_doc=False)
    m = pack_corpus(docs_from_lengths([5, 4, 4]), cfg)
    assert len(m.samples) == 2
    assert m.metrics.padding_token_count == 3


def test_best_fit_ties_broken_by_doc_id():
    cfg = make_config(Strategy.BEST_FIT, context_length=4, sep_after_every_doc=False)
    m = pack_corpus(docs_from_lengths([2, 2, 2, 2]), cfg)
    bins = [[doc_id for doc_id, *_ in placements] for placements, _ in samples_of(m.samples)]
    # equal lengths keep corpus order: d0 with d1, d2 with d3
    assert bins == [["d0", "d1"], ["d2", "d3"]]


def test_best_fit_prefers_tightest_bin():
    cfg = make_config(Strategy.BEST_FIT, context_length=10, sep_after_every_doc=False)
    # after 7 and 6 open bins, the 3 fits both; residual 3 beats residual 4
    m = pack_corpus(docs_from_lengths([7, 6, 3, 2]), cfg)
    bins = [[doc_id for doc_id, *_ in placements] for placements, _ in samples_of(m.samples)]
    assert bins == [["d0", "d2"], ["d1", "d3"]]


def test_best_fit_online_keeps_input_order():
    offline_cfg = make_config(Strategy.BEST_FIT, context_length=8, sep_after_every_doc=False)
    online_cfg = make_config(
        Strategy.BEST_FIT, context_length=8, sep_after_every_doc=False, online=True
    )
    docs = docs_from_lengths([4, 5, 4])
    offline = pack_corpus(docs, offline_cfg)
    online = pack_corpus(docs, online_cfg)
    assert [doc_id for doc_id, *_ in samples_of(offline.samples)[0][0]] == ["d1"]
    assert [doc_id for doc_id, *_ in samples_of(online.samples)[0][0]] == ["d0", "d2"]
    assert offline.metrics.sample_count == online.metrics.sample_count == 2


def test_best_fit_full_doc_elides_separator():
    cfg = make_config(Strategy.BEST_FIT, context_length=4)
    m = pack_corpus(docs_from_lengths([4, 2]), cfg)
    assert len(m.samples) == 2
    assert samples_of(m.samples)[0][1] == ()


def test_best_fit_matches_naive_quadratic_on_random_corpora():
    from oracle import simulate_reference

    rng = random.Random(23)
    for _ in range(40):
        lengths = random_lengths(rng, rng.randint(1, 60), 16)
        cfg = make_config(
            Strategy.BEST_FIT,
            context_length=16,
            sep_after_every_doc=rng.random() < 0.5,
        )
        docs = docs_from_lengths(lengths)
        got = pack_corpus(docs, cfg)
        want = simulate_reference(docs, cfg, Strategy.BEST_FIT)
        assert got.metrics == want


@st.composite
def _best_fit_cases(draw):
    """A context length up to 8192 and up to 150 document lengths, drawn
    partly from a small palette so residual ties are common."""
    L = draw(st.integers(2, 8192))
    palette = draw(st.lists(st.integers(1, L), min_size=1, max_size=5))
    free = st.integers(1, draw(st.integers(1, L)))
    lengths = draw(st.lists(st.one_of(st.sampled_from(palette), free), max_size=150))
    cfg = make_config(
        Strategy.BEST_FIT,
        context_length=L,
        sep_after_every_doc=draw(st.booleans()),
        online=draw(st.booleans()),
    )
    return docs_from_lengths(lengths), cfg


@settings(max_examples=150, deadline=None)
@given(_best_fit_cases())
def test_best_fit_picks_smallest_sufficient_residual_lowest_id(case):
    docs, cfg = case
    L = cfg.context_length
    m = pack_corpus(docs, cfg)
    where = {
        doc_id: (i, offset)
        for i, (placements, _) in enumerate(samples_of(m.samples))
        for doc_id, _, _, offset in placements
    }

    order = docs
    if not cfg.online:
        order = sorted(docs, key=lambda d: (-effective_length(d.length, cfg), d.doc_id))
    residuals: list[int] = []  # per sample opened so far
    for doc in order:
        eff = effective_length(doc.length, cfg)
        sample, offset = where[doc.doc_id]
        fits = [(r, i) for i, r in enumerate(residuals) if r >= eff]
        if fits:
            assert sample == min(fits)[1], f"{doc.doc_id} not in the tightest open sample"
        else:
            assert sample == len(residuals), f"{doc.doc_id} did not open the next sample"
            residuals.append(L)
        assert offset == L - residuals[sample]
        residuals[sample] -= eff
    assert len(m.samples) == len(residuals)
    assert [L - _occupied(s) for s in samples_of(m.samples)] == residuals


# --- metamorphic relations ---------------------------------------------------
# Each relation ties two runs of the planner together, so it holds for any
# corpus without an expected plan: offline best_fit ignores corpus order,
# online best_fit over records already in its order is offline best_fit, and
# a sequential strategy never revises a sample it has closed.

def _permuted_plan_is_the_plan(docs, cfg, rng):
    shuffled = list(docs)
    rng.shuffle(shuffled)
    a, b = pack_corpus(docs, cfg), pack_corpus(shuffled, cfg)
    assert (a.samples, a.metrics) == (b.samples, b.metrics)


def _presorted_online_plan_is_the_offline_plan(docs, cfg):
    online = make_config(Strategy.BEST_FIT, cfg.context_length, long_doc_policy=cfg.long_doc_policy,
                         slide_overlap=cfg.slide_overlap, sep_after_every_doc=cfg.sep_after_every_doc,
                         online=True)
    retained = apply_policy(docs, cfg)[0]
    presorted = sorted(retained, key=lambda d: (-effective_length(d.length, cfg), d.doc_id))
    a, b = pack_corpus(docs, cfg), pack_corpus(presorted, online)
    assert (a.samples, a.metrics) == (b.samples, b.metrics)


def _prefix_plan_is_a_prefix(docs, cfg, cut):
    closed = samples_of(pack_corpus(docs[:cut], cfg).samples)[:-1]
    assert samples_of(pack_corpus(docs, cfg).samples)[:len(closed)] == closed


@st.composite
def _corpora(draw, strategies):
    """A small corpus, some of it over-length, and a config of any policy
    and flags for one of ``strategies``."""
    L = draw(st.integers(2, 24))
    policy = draw(st.sampled_from(LongDocPolicy))
    cfg = make_config(
        draw(st.sampled_from(strategies)),
        context_length=L,
        long_doc_policy=policy,
        slide_overlap=draw(st.integers(1, L - 1)) if policy is LongDocPolicy.SLIDE else None,
        sep_after_every_doc=draw(st.booleans()),
        drop_final_partial=draw(st.booleans()),
    )
    return docs_from_lengths(draw(st.lists(st.integers(1, 2 * L), max_size=40))), cfg


@settings(max_examples=100, deadline=None)
@given(_corpora([Strategy.BEST_FIT]), st.randoms(use_true_random=False))
def test_offline_best_fit_ignores_corpus_order(case, rng):
    _permuted_plan_is_the_plan(*case, rng)


@settings(max_examples=100, deadline=None)
@given(_corpora([Strategy.BEST_FIT]))
def test_online_best_fit_over_presorted_records_is_offline_best_fit(case):
    _presorted_online_plan_is_the_offline_plan(*case)


_SEQUENTIAL = [Strategy.CONCAT_THEN_SPLIT, Strategy.RESTART_LAST_DOCUMENT, Strategy.PAD_LAST_DOCUMENT]


@settings(max_examples=100, deadline=None)
@given(_corpora(_SEQUENTIAL), st.data())
def test_sequential_plan_of_a_prefix_is_a_prefix(case, data):
    docs, cfg = case
    _prefix_plan_is_a_prefix(docs, cfg, data.draw(st.integers(0, len(docs))))


def test_metamorphic_relations_hold_on_a_large_corpus():
    # the short_docs shape at 1e5 documents: log-normal around 300 tokens, L=2048
    rng = random.Random(14)
    docs = docs_from_lengths(
        [min(16384, max(1, round(rng.lognormvariate(5.7, 1.02)))) for _ in range(100_000)]
    )
    best_fit = make_config(Strategy.BEST_FIT, context_length=2048)
    _permuted_plan_is_the_plan(docs, best_fit, rng)
    _presorted_online_plan_is_the_offline_plan(docs, best_fit)
    for strategy in _SEQUENTIAL:
        _prefix_plan_is_a_prefix(docs, make_config(strategy, context_length=2048), 21_803)


# --- shared properties -------------------------------------------------------

def test_all_strategies_respect_capacity_and_coverage():
    rng = random.Random(24)
    for _ in range(30):
        lengths = random_lengths(rng, rng.randint(1, 50), 12)
        docs = docs_from_lengths(lengths)
        for strategy in ALL_STRATEGIES:
            cfg = make_config(strategy, context_length=12)
            m = pack_corpus(docs, cfg)
            for s in samples_of(m.samples):
                assert _occupied(s) <= 12
                for doc_id, start, end, _ in s[0]:
                    assert 0 <= start < end <= lengths[int(doc_id[1:])]


def test_pack_corpus_applies_long_doc_policy():
    cfg = make_config(Strategy.BEST_FIT, context_length=4, long_doc_policy=LongDocPolicy.DROP)
    m = pack_corpus(docs_from_lengths([3, 9, 4]), cfg)
    assert m.documents.dropped == ("d1",)
    placed = {doc_id for placements, _ in samples_of(m.samples) for doc_id, *_ in placements}
    assert placed == {"d0", "d2"}


def test_manifest_json_is_deterministic(toy_docs):
    cfg = make_config(Strategy.BEST_FIT)
    a = manifest_to_json(pack_corpus(toy_docs, cfg))
    b = manifest_to_json(pack_corpus(list(toy_docs), cfg))
    assert a == b


def test_empty_corpus_yields_empty_manifest():
    for strategy in ALL_STRATEGIES:
        cfg = make_config(strategy)
        m = pack_corpus([], cfg)
        assert samples_of(m.samples) == []
        assert m.metrics.sample_count == 0
        assert m.metrics.fragmentation_rate == 0.0
        assert m.metrics.padding_rate == 0.0


def test_single_token_docs_pack_densely():
    cfg = make_config(Strategy.CONCAT_THEN_SPLIT, context_length=4, sep_after_every_doc=False)
    m = pack_corpus(docs_from_lengths([1] * 8), cfg)
    assert m.metrics.sample_count == 2
    assert m.metrics.padding_token_count == 0
    assert m.metrics.fragmented_doc_count == 0
