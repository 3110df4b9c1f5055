from __future__ import annotations

import io
import json
import random
import re
from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqpack import (
    DecodeError,
    EmitError,
    InMemoryTokenStore,
    LongDocPolicy,
    ManifestError,
    PackingError,
    Strategy,
    decode_samples,
    emit_samples,
    pack_corpus,
    verify_manifest,
)
from seqpack.longdoc import apply_policy
from seqpack.manifest_io import (
    MANIFEST_FORMAT,
    manifest_from_json,
    manifest_to_json,
    read_manifest,
    write_bytes_atomic,
    write_manifest,
)

from util import ALL_STRATEGIES, docs_from_lengths, make_config


def test_round_trip_preserves_manifest(toy_docs):
    for strategy in ALL_STRATEGIES:
        m = pack_corpus(toy_docs, make_config(strategy))
        assert manifest_from_json(manifest_to_json(m)) == m


def test_json_is_compact_sorted_and_newline_terminated(toy_docs):
    text = manifest_to_json(pack_corpus(toy_docs, make_config(Strategy.BEST_FIT)))
    assert text.endswith("\n")
    assert ": " not in text and ", " not in text
    payload = json.loads(text)
    assert payload["format"] == MANIFEST_FORMAT
    assert list(payload.keys()) == sorted(payload.keys())


def test_placement_rows_are_compact(toy_docs):
    payload = json.loads(manifest_to_json(pack_corpus(toy_docs, make_config(Strategy.BEST_FIT))))
    first = payload["samples"][0]["placements"][0]
    assert first == ["B", 0, 4, 0]


def test_file_round_trip(tmp_path, toy_docs):
    m = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    path = tmp_path / "manifest.json"
    write_manifest(m, path)
    assert read_manifest(path) == m
    # no temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_read_missing_file_raises(tmp_path):
    with pytest.raises(ManifestError, match="not found"):
        read_manifest(tmp_path / "nope.json")


def test_rejects_invalid_json():
    with pytest.raises(ManifestError, match="not valid JSON"):
        manifest_from_json("{nope")


def test_rejects_wrong_format_tag(toy_docs):
    text = manifest_to_json(pack_corpus(toy_docs, make_config(Strategy.BEST_FIT)))
    payload = json.loads(text)
    payload["format"] = "other/9"
    with pytest.raises(ManifestError, match="unsupported manifest format"):
        manifest_from_json(json.dumps(payload))
    with pytest.raises(ManifestError, match="unsupported manifest format"):
        manifest_from_json("[]")


def test_rejects_missing_sections(toy_docs):
    text = manifest_to_json(pack_corpus(toy_docs, make_config(Strategy.BEST_FIT)))
    payload = json.loads(text)
    del payload["metrics"]
    with pytest.raises(ManifestError, match="malformed manifest"):
        manifest_from_json(json.dumps(payload))


def test_rejects_bad_config_values(toy_docs):
    text = manifest_to_json(pack_corpus(toy_docs, make_config(Strategy.BEST_FIT)))
    payload = json.loads(text)
    payload["config"]["strategy"] = "mystery"
    with pytest.raises(ManifestError):
        manifest_from_json(json.dumps(payload))


def _tampered(toy_docs, edit):
    """pad_last_document on the toy corpus, as JSON, with ``edit``
    applied to its payload: sample 0 holds A and a separator and is
    padded from 4, sample 1 is full, sample 2 is padded from 3."""
    manifest = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    payload = json.loads(manifest_to_json(manifest))
    edit(payload)
    return json.dumps(payload)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["samples"][0].update(index=5), "sample 0: index 5 is not its position"),
        (lambda p: p["samples"][0].update(padding=[3, 4]), "sample 0: padding [3, 4] is not [4, 5]"),
        (lambda p: p["samples"][0].update(padding=None), "sample 0: padding null is not [4, 5]"),
        (lambda p: p["samples"][1].update(padding=[5, 5]), "sample 1: padding [5, 5] is not null"),
    ],
    ids=["index_not_position", "padding_not_suffix", "null_padding_under_full", "padding_on_full"],
)
def test_rejects_tampered_index_or_padding(toy_docs, edit, message):
    with pytest.raises(ManifestError, match=re.escape(f"malformed manifest: {message}")):
        manifest_from_json(_tampered(toy_docs, edit))


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p["samples"][0].update(padding=[4]),
        lambda p: p["samples"][0].update(padding=[4.0, 5]),
        lambda p: p["samples"][1].update(index=True),
        lambda p: p["samples"][0]["placements"][0].__setitem__(3, "0"),
        lambda p: p["samples"][0]["placements"][0].__setitem__(1, False),
        lambda p: p["samples"][0]["placements"][0].pop(),
        lambda p: p["samples"][0]["placements"].__setitem__(0, "A034"),
        lambda p: p["samples"][0].update(separators=[3.0]),
        lambda p: p["samples"][0].update(separators=3),
        lambda p: p["documents"].update(count="3"),
        lambda p: p["documents"].update(total_tokens=9.0),
        lambda p: p["documents"].update(dropped="ab"),
        lambda p: p["documents"].update(dropped=[7]),
        lambda p: p.update(discarded_tail_tokens="0"),
        lambda p: p["metrics"].update(padding_token_count="3"),
        lambda p: p["metrics"].update(sample_count=True),
        lambda p: p["metrics"].update(padding_rate="0.2"),
        lambda p: p["metrics"].update(fragmentation_rate=False),
    ],
    ids=[
        "short_padding", "float_padding", "bool_index", "string_offset", "bool_start",
        "short_placement", "string_placement", "float_separator", "int_separators",
        "string_count", "float_total_tokens", "string_dropped", "int_dropped_id",
        "string_discarded", "string_metric_counter", "bool_metric_counter",
        "string_rate", "bool_rate",
    ],
)
def test_rejects_malformed_sample_fields(toy_docs, edit):
    with pytest.raises(ManifestError, match="malformed manifest"):
        manifest_from_json(_tampered(toy_docs, edit))


@st.composite
def _packed(draw):
    """A small random corpus packed under any strategy, policy and flag
    setting, with the corpus as read and a token store for its retained
    documents."""
    L = draw(st.integers(2, 12))
    strategy = draw(st.sampled_from(ALL_STRATEGIES))
    policy = draw(st.sampled_from(LongDocPolicy))
    cfg = make_config(
        strategy,
        context_length=L,
        long_doc_policy=policy,
        slide_overlap=draw(st.integers(1, L - 1)) if policy is LongDocPolicy.SLIDE else None,
        sep_after_every_doc=draw(st.booleans()),
        drop_final_partial=draw(st.booleans()),
        online=strategy is Strategy.BEST_FIT and draw(st.booleans()),
    )
    docs = docs_from_lengths(draw(st.lists(st.integers(1, 2 * L), max_size=12)))
    retained = apply_policy(docs, cfg)[0]
    rng = random.Random(draw(st.integers(0, 2**32)))
    store = InMemoryTokenStore({d.doc_id: [rng.randrange(2, 2**31) for _ in range(d.length)] for d in retained})
    return pack_corpus(docs, cfg), docs, store


@settings(max_examples=200, deadline=None)
@given(_packed())
def test_json_round_trip_is_identical_and_verifies(case):
    manifest, docs, _ = case
    text = manifest_to_json(manifest)
    back = manifest_from_json(text)
    assert manifest_to_json(back) == text
    assert verify_manifest(back, docs).ok


def _paths(node, path=()):
    """The path of every value inside a JSON payload, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_TAMPER_VALUES = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=2**32, max_value=2**64),
    st.text(max_size=4),
    st.floats(),
    st.booleans(),
    st.none(),
)


@settings(max_examples=400, deadline=None)
@given(_packed(), st.data())
def test_tampered_json_raises_only_packing_errors(case, data):
    manifest, docs, store = case
    sink = io.BytesIO()
    checksum = emit_samples(manifest, store, sink).checksum
    payload = json.loads(manifest_to_json(manifest))
    *parents, key = data.draw(st.sampled_from(list(_paths(payload))))
    target = payload
    for parent in parents:
        target = target[parent]
    target[key] = data.draw(_TAMPER_VALUES)
    try:
        tampered = manifest_from_json(json.dumps(payload))
    except ManifestError:
        return
    with suppress(PackingError):
        verify_manifest(tampered, docs)
    with suppress(EmitError):
        emit_samples(tampered, store, io.BytesIO())
    with suppress(DecodeError):
        decode_samples(io.BytesIO(sink.getvalue()), tampered, store, checksum)


def test_atomic_write_replaces_existing(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    assert write_bytes_atomic(target, lambda fh: fh.write(b"new")) == 3
    assert target.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_atomic_write_failure_leaves_no_file(tmp_path):
    def fail_midway(fh):
        fh.write(b"partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        write_bytes_atomic(tmp_path / "out.bin", fail_midway)
    assert list(tmp_path.iterdir()) == []
