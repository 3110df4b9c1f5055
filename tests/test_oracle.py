from __future__ import annotations

import math
import random

import pytest

from seqpack import (
    ConfigError,
    DocumentRecord,
    Strategy,
    pack_corpus,
)

from oracle import brute_force_min_bins, simulate_reference
from util import ALL_STRATEGIES, docs_from_lengths, make_config, random_lengths


def test_brute_force_frozen_instances():
    assert brute_force_min_bins([], 8) == 0
    assert brute_force_min_bins([1], 8) == 1
    assert brute_force_min_bins([8], 8) == 1
    assert brute_force_min_bins([5, 4, 3, 3, 1], 8) == 2
    assert brute_force_min_bins([5, 4, 4], 8) == 2
    assert brute_force_min_bins([2, 2, 2, 2], 4) == 2
    assert brute_force_min_bins([7, 6, 3, 2], 10) == 2
    assert brute_force_min_bins([4, 4, 4], 5) == 3
    assert brute_force_min_bins([3, 3, 3, 2, 2, 2], 7) == 3
    assert brute_force_min_bins([6, 6, 6, 6], 12) == 2


def test_brute_force_never_below_volume_bound():
    rng = random.Random(61)
    for _ in range(60):
        cap = rng.randint(4, 20)
        items = [rng.randint(1, cap) for _ in range(rng.randint(1, 10))]
        opt = brute_force_min_bins(items, cap)
        assert opt >= math.ceil(sum(items) / cap)
        assert opt <= len(items)


def test_brute_force_input_validation():
    with pytest.raises(ConfigError, match="too large"):
        brute_force_min_bins([1] * 15, 8)
    with pytest.raises(ConfigError, match="exceeds capacity"):
        brute_force_min_bins([9], 8)
    with pytest.raises(ConfigError, match="positive"):
        brute_force_min_bins([0], 8)


def test_best_fit_respects_classic_quality_bound():
    rng = random.Random(62)
    for _ in range(100):
        cap = rng.randint(4, 32)
        items = [rng.randint(1, cap) for _ in range(rng.randint(1, 12))]
        opt = brute_force_min_bins(items, cap)
        cfg = make_config(Strategy.BEST_FIT, context_length=cap, sep_after_every_doc=False)
        got = pack_corpus(docs_from_lengths(items), cfg).metrics.sample_count
        assert opt <= got <= math.ceil(11 * opt / 9) + 1


def test_simulation_matches_engine_on_toy(toy_docs):
    for strategy in ALL_STRATEGIES:
        cfg = make_config(strategy)
        assert simulate_reference(toy_docs, cfg, strategy) == pack_corpus(toy_docs, cfg).metrics


def test_simulation_matches_engine_on_random_corpora():
    rng = random.Random(63)
    for trial in range(100):
        L = rng.choice([5, 8, 16])
        lengths = random_lengths(rng, rng.randint(1, 50), L)
        docs = docs_from_lengths(lengths)
        strategy = ALL_STRATEGIES[trial % 4]
        cfg = make_config(
            strategy,
            context_length=L,
            sep_after_every_doc=rng.random() < 0.7,
            drop_final_partial=rng.random() < 0.7,
            online=(strategy is Strategy.BEST_FIT and rng.random() < 0.3),
        )
        assert simulate_reference(docs, cfg, strategy) == pack_corpus(docs, cfg).metrics, (
            f"strategy={strategy} L={L} lengths={lengths} cfg={cfg}"
        )


def test_simulation_rejects_oversized_corpora():
    docs = [DocumentRecord(str(i), 1) for i in range(1001)]
    cfg = make_config(Strategy.BEST_FIT, context_length=4)
    with pytest.raises(ConfigError, match="capped"):
        simulate_reference(docs, cfg, Strategy.BEST_FIT)


def test_simulation_rejects_over_length_docs():
    cfg = make_config(Strategy.BEST_FIT, context_length=4)
    with pytest.raises(ConfigError):
        simulate_reference(docs_from_lengths([9]), cfg, Strategy.BEST_FIT)
