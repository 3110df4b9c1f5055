from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqpack import (
    ConfigError,
    CorpusError,
    DocumentRecord,
    LongDocPolicy,
    Strategy,
    compare_strategies,
    pack_corpus,
    scaled_token_budget,
)

from util import ALL_STRATEGIES, docs_from_lengths, make_config, random_lengths


def test_rates_match_frozen_toy_values(toy_docs):
    frozen = {
        Strategy.CONCAT_THEN_SPLIT: (2, 2 / 3, 0.0),
        Strategy.RESTART_LAST_DOCUMENT: (2, 1 / 3, 0.0),
        Strategy.PAD_LAST_DOCUMENT: (3, 0.0, 0.2),
        Strategy.BEST_FIT: (3, 0.0, 0.2),
    }
    for strategy, (samples, frag, pad) in frozen.items():
        m = pack_corpus(toy_docs, make_config(strategy))
        assert m.metrics.sample_count == samples
        assert m.metrics.fragmentation_rate == pytest.approx(frag)
        assert m.metrics.padding_rate == pytest.approx(pad)
        assert m.metrics.total_training_tokens == samples * 5


def test_counter_consistency():
    rng = random.Random(32)
    lengths = random_lengths(rng, 60, 10)
    docs = docs_from_lengths(lengths)
    for strategy in ALL_STRATEGIES:
        m = pack_corpus(docs, make_config(strategy, context_length=10))
        assert m.metrics.total_training_tokens == m.metrics.sample_count * 10
        got_pad = sum(
            10 - len(separators) - sum(end - start for _, start, end, _ in rows) for rows, separators in m.samples
        )
        assert m.metrics.padding_token_count == got_pad


def test_scaled_token_budget_frozen_values():
    assert scaled_token_budget(73_000_000_000, 0.1755) == 88_538_508_187
    assert scaled_token_budget(90, 0.1) == 100
    assert scaled_token_budget(100, 0.0) == 100


def test_scaled_token_budget_is_identity_at_zero():
    for n in (0, 1, 7, 10**12):
        assert scaled_token_budget(n, 0.0) == n


def test_scaled_token_budget_monotone_in_rate():
    budgets = [scaled_token_budget(10**9, r / 100) for r in range(0, 90, 5)]
    assert budgets == sorted(budgets)
    assert len(set(budgets)) == len(budgets)


def test_scaled_token_budget_rejects_bad_rates():
    with pytest.raises(ConfigError):
        scaled_token_budget(100, 1.0)
    with pytest.raises(ConfigError):
        scaled_token_budget(100, -0.1)


def test_compare_strategies_rows(toy_docs):
    cfg = make_config(Strategy.CONCAT_THEN_SPLIT)
    cmp = compare_strategies(toy_docs, cfg, ALL_STRATEGIES)
    rows = cmp.as_rows()
    assert [r["strategy"] for r in rows] == [s.value for s in ALL_STRATEGIES]
    by_name = {r["strategy"]: r for r in rows}
    assert by_name["concat_then_split"]["sample_count"] == 2
    assert by_name["pad_last_document"]["padding_rate"] == pytest.approx(0.2)
    assert by_name["best_fit"]["fragmentation_rate"] == 0.0


def test_compare_strategies_row_order_follows_request(toy_docs):
    cfg = make_config(Strategy.BEST_FIT)
    order = [Strategy.BEST_FIT, Strategy.CONCAT_THEN_SPLIT]
    cmp = compare_strategies(toy_docs, cfg, order)
    assert [strategy for strategy, _ in cmp.rows] == order


def test_compare_strategies_base_strategy_irrelevant(toy_docs):
    a = compare_strategies(toy_docs, make_config(Strategy.CONCAT_THEN_SPLIT), ALL_STRATEGIES)
    b = compare_strategies(toy_docs, make_config(Strategy.BEST_FIT), ALL_STRATEGIES)
    assert a == b


@st.composite
def _compare_cases(draw):
    """A small corpus with over-length documents, a template config under
    any policy and flag setting (online best_fit included), and the
    strategies to compare, in any order."""
    L = draw(st.integers(2, 10))
    policy = draw(st.sampled_from(LongDocPolicy))
    online = draw(st.booleans())
    cfg = make_config(
        Strategy.BEST_FIT if online else draw(st.sampled_from(ALL_STRATEGIES)),
        context_length=L,
        long_doc_policy=policy,
        slide_overlap=draw(st.integers(1, L - 1)) if policy is LongDocPolicy.SLIDE else None,
        sep_after_every_doc=draw(st.booleans()),
        drop_final_partial=draw(st.booleans()),
        online=online,
    )
    docs = docs_from_lengths(draw(st.lists(st.integers(1, 3 * L), max_size=15)))
    strategies = draw(st.permutations(ALL_STRATEGIES))
    return docs, cfg, strategies


@settings(max_examples=100, deadline=None)
@given(_compare_cases())
# online best_fit opens a third sample here, offline best_fit needs two
@example((
    docs_from_lengths([1, 1, 8, 8]),
    make_config(Strategy.BEST_FIT, context_length=9, sep_after_every_doc=False, online=True),
    ALL_STRATEGIES,
))
def test_compare_rows_are_pack_corpus_metrics(case):
    docs, cfg, strategies = case
    rows = compare_strategies(docs, cfg, strategies).rows
    assert [strategy for strategy, _ in rows] == list(strategies)
    for strategy, metrics in rows:
        online = cfg.online and strategy is Strategy.BEST_FIT
        assert metrics == pack_corpus(docs, replace(cfg, strategy=strategy, online=online)).metrics


def test_compare_render_formatting(toy_docs):
    cfg = make_config(Strategy.CONCAT_THEN_SPLIT)
    text = compare_strategies(toy_docs, cfg, ALL_STRATEGIES).render()
    lines = text.splitlines()
    assert lines[0].split() == ["strategy", "samples", "tokens", "frag%", "pad%"]
    assert len(lines) == 5
    concat_line = next(l for l in lines if l.startswith("concat_then_split"))
    assert concat_line.split() == ["concat_then_split", "2", "10", "66.7", "0.00"]
    pad_line = next(l for l in lines if l.startswith("pad_last_document"))
    assert pad_line.split() == ["pad_last_document", "3", "15", "0.0", "20.00"]
    # columns align: every row has the same width
    assert len({len(l) for l in lines if not l.endswith("%")}) <= 2


def test_compare_strategies_names_failing_strategy():
    docs = docs_from_lengths([9])
    cfg = make_config(Strategy.BEST_FIT, context_length=4, long_doc_policy="drop")
    # drop removes the only doc, so packing succeeds with zero samples
    cmp = compare_strategies(docs, cfg, [Strategy.BEST_FIT])
    assert cmp.rows == ((Strategy.BEST_FIT, pack_corpus(docs, cfg).metrics),)
    assert cmp.rows[0][1].sample_count == 0


def test_compare_strategies_raises_policy_errors_unprefixed():
    # the policy runs before any planner, so its error names no strategy
    cfg = make_config(Strategy.BEST_FIT, context_length=4)
    docs = [DocumentRecord("a", 9), DocumentRecord("a#0", 1)]
    with pytest.raises(CorpusError) as packed:
        pack_corpus(docs, cfg)
    with pytest.raises(CorpusError) as compared:
        compare_strategies(docs, cfg, [Strategy.PAD_LAST_DOCUMENT, Strategy.BEST_FIT])
    assert str(compared.value) == str(packed.value)
    assert str(packed.value) == "derived chunk id 'a#0' collides with another document"


def test_empty_corpus_rates_are_zero():
    m = pack_corpus([], make_config(Strategy.PAD_LAST_DOCUMENT))
    assert m.metrics.fragmentation_rate == 0.0
    assert m.metrics.padding_rate == 0.0
