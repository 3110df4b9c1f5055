from __future__ import annotations

import json
import re

import pytest

from seqpack import ManifestError, Strategy, pack_corpus
from seqpack.manifest_io import (
    MANIFEST_FORMAT,
    manifest_from_json,
    manifest_to_json,
    read_manifest,
    write_bytes_atomic,
    write_manifest,
)

from util import ALL_STRATEGIES, make_config


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
