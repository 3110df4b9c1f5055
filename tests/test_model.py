from __future__ import annotations

import pytest

from seqpack import (
    ConfigError,
    LongDocPolicy,
    PackingConfig,
    Strategy,
    effective_length,
)
from seqpack.model import PackedSample, Placement


def _cfg(**kw):
    kw.setdefault("context_length", 8)
    kw.setdefault("strategy", Strategy.BEST_FIT)
    return PackingConfig(**kw)


def test_config_coerces_enum_strings():
    cfg = _cfg(strategy="pad_last_document", long_doc_policy="drop")
    assert cfg.strategy is Strategy.PAD_LAST_DOCUMENT
    assert cfg.long_doc_policy is LongDocPolicy.DROP


def test_config_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown strategy"):
        _cfg(strategy="mystery")
    with pytest.raises(ConfigError, match="unknown long-document policy"):
        _cfg(long_doc_policy="mystery")


def test_config_rejects_tiny_context():
    with pytest.raises(ConfigError, match="context_length"):
        _cfg(context_length=1)


def test_config_rejects_colliding_special_ids():
    with pytest.raises(ConfigError, match="must differ"):
        _cfg(separator_id=0, padding_id=0)


def test_config_slide_overlap_validation():
    with pytest.raises(ConfigError, match="requires slide_overlap"):
        _cfg(long_doc_policy=LongDocPolicy.SLIDE)
    with pytest.raises(ConfigError, match="slide_overlap must be in"):
        _cfg(long_doc_policy=LongDocPolicy.SLIDE, slide_overlap=8)
    cfg = _cfg(long_doc_policy=LongDocPolicy.SLIDE, slide_overlap=7)
    assert cfg.slide_overlap == 7
    for policy in (LongDocPolicy.SPLIT, LongDocPolicy.DROP):
        with pytest.raises(ConfigError, match="applies only to the slide policy"):
            _cfg(long_doc_policy=policy, slide_overlap=3)


def test_config_online_requires_best_fit():
    with pytest.raises(ConfigError, match="online"):
        _cfg(strategy=Strategy.PAD_LAST_DOCUMENT, online=True)
    assert _cfg(online=True).online


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("context_length", "5", "context_length must be an integer in"),
        ("context_length", 5.5, "context_length must be an integer in"),
        ("context_length", 2**32, "context_length must be an integer in"),
        ("separator_id", "x", "separator_id must be an integer in"),
        ("separator_id", -1, "separator_id must be an integer in"),
        ("padding_id", 4294967297, "padding_id must be an integer in"),
        ("padding_id", False, "padding_id must be an integer in"),
        ("slide_overlap", "2", "slide_overlap must be an integer"),
        ("slide_overlap", 2.0, "slide_overlap must be an integer"),
        ("sep_after_every_doc", 1, "sep_after_every_doc must be true or false"),
        ("drop_final_partial", None, "drop_final_partial must be true or false"),
        ("online", "yes", "online must be true or false"),
        ("strategy", 5, "unknown strategy 5"),
        ("long_doc_policy", None, "unknown long-document policy None"),
    ],
)
def test_config_rejects_wrong_types(field, value, message):
    with pytest.raises(ConfigError, match=message):
        _cfg(**{field: value})


def test_config_accepts_uint32_bounds():
    cfg = _cfg(context_length=2**32 - 1, separator_id=2**32 - 1, padding_id=0)
    assert (cfg.context_length, cfg.separator_id) == (2**32 - 1, 2**32 - 1)


def test_effective_length_rule():
    cfg = _cfg(context_length=8)
    assert effective_length(3, cfg) == 4
    assert effective_length(7, cfg) == 8
    assert effective_length(8, cfg) == 8  # separator elided at full size
    no_sep = _cfg(context_length=8, sep_after_every_doc=False)
    assert effective_length(3, no_sep) == 3
    assert effective_length(8, no_sep) == 8


def test_placement_and_sample_accessors():
    p = Placement("d", 2, 6, 1)
    s = PackedSample((p,), (5,))
    assert s.occupied_tokens == 5
    bare = PackedSample((p,))
    assert bare.occupied_tokens == 4
    assert bare.separator_positions == ()
