from __future__ import annotations

import errno
import io
import json
import os
import random
import re
import stat
import tracemalloc
from contextlib import suppress
from dataclasses import fields
from enum import Enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqpack import (
    ConfigError,
    CorpusSummary,
    DecodeError,
    DocumentRecord,
    EmitError,
    InMemoryTokenStore,
    LongDocPolicy,
    ManifestError,
    PackingConfig,
    PackingError,
    PackingManifest,
    PackingMetrics,
    Strategy,
    decode_samples,
    emit_samples,
    ingest_corpus,
    pack_corpus,
    verify_manifest,
)
from seqpack.longdoc import apply_policy
from seqpack.manifest_io import (
    MANIFEST_FORMAT,
    _streamed,
    _whole_text,
    manifest_from_json,
    manifest_to_json,
    read_manifest,
    write_bytes_atomic,
    write_manifest,
)

from util import ALL_STRATEGIES, docs_from_lengths, make_config, plan_table, samples_of, structural_violations


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.update(extra=1), "unknown key 'extra'"),
        (lambda p: p["samples"][1].update(extra=1), "sample 1: unknown key 'extra'"),
        (lambda p: p["documents"].update(extra=1), "documents: unknown key 'extra'"),
        (lambda p: p["metrics"].update(extra=1), "metrics: unknown key 'extra'"),
    ],
    ids=["top_level", "in_a_sample", "in_documents", "in_metrics"],
)
def test_rejects_unknown_keys(toy_docs, edit, message):
    manifest = pack_corpus(toy_docs, make_config(Strategy.PAD_LAST_DOCUMENT))
    _assert_refused(manifest, edit, message)


def _assert_refused(manifest, edit, message):
    """``manifest``'s JSON, edited by ``edit``, is refused with ``message``
    in the writer's layout and in ``json.dumps``' default one."""
    payload = json.loads(manifest_to_json(manifest))
    edit(payload)
    # in the writer's layout the streamed read refuses it, and the whole-text
    # read gives the message; any other layout is read whole
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert _streamed(text) is None
    for layout in (text, json.dumps(payload)):
        with pytest.raises(ManifestError, match=re.escape(f"malformed manifest: {message}")):
            manifest_from_json(layout)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.update(samples={}), "samples must be a list"),
        (lambda p: p["samples"][2].update(placements={}), "sample 2: placements must be a list"),
    ],
    ids=["samples", "placements"],
)
def test_rejects_samples_or_placements_that_are_not_lists(edit, message):
    # A=4, B=5 at L=5 keeps a last sample that holds only B's separator, so
    # an object in place of its empty placements would read as []
    docs = docs_from_lengths([4, 5])
    manifest = pack_corpus(docs, make_config(Strategy.CONCAT_THEN_SPLIT, drop_final_partial=False))
    assert samples_of(manifest.samples)[2] == ((), (0,))
    _assert_refused(manifest, edit, message)


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
    assert not structural_violations(back, docs)


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


def _shuffled(node, rng):
    """``node`` with the keys of every object in it in a random order."""
    if isinstance(node, dict):
        keys = list(node)
        rng.shuffle(keys)
        return {key: _shuffled(node[key], rng) for key in keys}
    if isinstance(node, list):
        return [_shuffled(child, rng) for child in node]
    return node


_EDITS = ("none", "whitespace", "reordered", "duplicate_samples", "truncated", "trailing", "char", "punctuation")
_CHARS = ("", " ", ",", ":", "[", "]", "{", "}", '"', "0", "-", ".", "e", "\\")


@st.composite
def _manifest_texts(draw):
    """The writer's text of a small valid manifest, and one edit of it."""
    manifest = draw(st.one_of(_packed().map(lambda case: case[0]), _manifests()))
    text = manifest_to_json(manifest)
    edit = draw(st.sampled_from(_EDITS))
    at = draw(st.integers(0, len(text)))
    if edit == "whitespace":
        text = text[:at] + draw(st.sampled_from(" \n\t\r")) + text[at:]
    elif edit == "reordered":
        payload = _shuffled(json.loads(text), draw(st.randoms(use_true_random=False)))
        text = json.dumps(payload, separators=(",", ":")) + draw(st.sampled_from(["", "\n"]))
    elif edit == "duplicate_samples":
        # a second samples key before the head or after the samples
        text = draw(st.sampled_from([
            '{"samples":[],' + text[1:],
            text[:-2] + ',"samples":[]}\n',
        ]))
    elif edit == "truncated":
        text = text[:at]
    elif edit == "trailing":
        text += draw(st.text(" \n,]}0x", min_size=1, max_size=3))
    elif edit == "char":
        text = text[:at] + draw(st.sampled_from(_CHARS)) + text[at + 1:]
    elif edit == "punctuation":  # what follows a closing bracket, as between samples
        at = draw(st.sampled_from([i for i in range(1, len(text)) if text[i - 1] in "]}"]))
        text = text[:at] + draw(st.sampled_from(_CHARS)) + text[at + 1:]
    return edit, text


def _outcome(read, text):
    try:
        return read(text)
    except ManifestError as exc:
        return f"ManifestError: {exc}"


@settings(max_examples=300, deadline=None)
@given(_manifest_texts())
def test_streamed_read_agrees_with_the_whole_text_read(case):
    edit, text = case
    whole = _outcome(_whole_text, text)
    streamed = _streamed(text)
    if edit == "none":
        assert streamed is not None  # the writer's layout is read one sample at a time
    if streamed is not None:
        assert streamed == whole
    assert _outcome(manifest_from_json, text) == whole


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


def test_atomic_write_os_error_is_a_config_error(tmp_path):
    # a full disk, without filling one: the writer raises what write() would
    def disk_full(fh):
        fh.write(b"partial")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    out = tmp_path / "out.bin"
    with pytest.raises(ConfigError) as info:
        write_bytes_atomic(out, disk_full)
    assert str(info.value) == f"cannot write {out}: No space left on device"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask_022", "umask_077"]
)
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_bytes_atomic(tmp_path / "out.bin", lambda fh: fh.write(b"new"))
        (tmp_path / "plain.bin").write_bytes(b"new")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.bin").stat().st_mode) == mode
    assert stat.S_IMODE((tmp_path / "plain.bin").stat().st_mode) == mode


def _reference_json(manifest) -> str:
    """The manifest text as one ``json.dumps`` of a dict payload: the
    writer's former encoder, kept as the reference for the streamed one."""

    def flat(obj):
        return {
            f.name: v.value if isinstance(v := getattr(obj, f.name), Enum) else v
            for f in fields(obj)
        }

    L = manifest.config.context_length
    samples = []
    for i, (placements, separators) in enumerate(samples_of(manifest.samples)):
        occupied = len(separators) + sum(end - start for _, start, end, _ in placements)
        samples.append({
            "index": i,
            "placements": [list(row) for row in placements],
            "separators": list(separators),
            "padding": [occupied, L] if occupied < L else None,
        })
    payload = {
        "format": MANIFEST_FORMAT,
        "config": flat(manifest.config),
        "documents": {
            "count": manifest.documents.document_count,
            "total_tokens": manifest.documents.total_tokens,
            "dropped": list(manifest.documents.dropped),
        },
        "discarded_tail_tokens": manifest.discarded_tail_tokens,
        "samples": samples,
        "metrics": flat(manifest.metrics),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# quotes, backslashes, control characters, non-ASCII, astral and lone surrogates
_DOC_ID = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\u00e9\u2028\U0001f600\ud800\udfff'),
        st.characters(exclude_categories=()),
    ),
    max_size=6,
)
_INT = st.integers(0, 2**40)


@st.composite
def _manifests(draw):
    """Any manifest the writer is given, not only ones a planner makes:
    free-form doc ids and counts, padding wherever occupancy < L."""
    L = draw(st.integers(2, 40))
    cfg = PackingConfig(
        context_length=L,
        strategy=draw(st.sampled_from(ALL_STRATEGIES)),
        separator_id=draw(st.integers(1, 2**32 - 1)),
        padding_id=0,
        sep_after_every_doc=draw(st.booleans()),
        drop_final_partial=draw(st.booleans()),
    )
    placement = st.builds(
        lambda doc_id, start, n, offset: (doc_id, start, start + n, offset),
        _DOC_ID, _INT, st.integers(0, 30), _INT,
    )
    sample = st.tuples(
        st.lists(placement, max_size=4).map(tuple),
        st.lists(_INT, max_size=4).map(tuple),
    )
    rate = st.floats(allow_nan=False, allow_infinity=False)
    return PackingManifest(
        cfg,
        CorpusSummary(draw(_INT), draw(_INT), tuple(draw(st.lists(_DOC_ID, max_size=3)))),
        plan_table(draw(st.lists(sample, max_size=6))),
        PackingMetrics(draw(_INT), draw(_INT), draw(_INT), draw(_INT), draw(rate), draw(rate)),
        draw(_INT),
    )


def _toy_manifest(*samples) -> PackingManifest:
    return PackingManifest(
        PackingConfig(8, Strategy.BEST_FIT),
        CorpusSummary(2, 7),
        plan_table(samples),
        PackingMetrics(len(samples), 8 * len(samples), 0, 1, 0.0, 0.125),
    )


_FULL = ((('a"\\\ud800', 0, 4, 0), ("\U0001f600", 0, 3, 5)), (4,))
_PADDED = ((("\x00\u00e9", 2, 5, 0),), ())


@settings(max_examples=100, deadline=None)
@given(_manifests())
@example(_toy_manifest())
@example(_toy_manifest(_FULL))
@example(_toy_manifest(_PADDED))
@example(_toy_manifest(_FULL, _PADDED, _FULL, _PADDED))
def test_json_matches_one_dumps_of_the_whole_payload(manifest):
    text = manifest_to_json(manifest)
    assert text == _reference_json(manifest)
    assert text.isascii()


@pytest.mark.parametrize(
    "docs, message",
    [
        ([DocumentRecord(5, 3)], "sample 0: doc_id 5 is not a str"),
        # ~1500 good samples fill the write buffer several times before the bad one
        (docs_from_lengths([3] * 3000) + [DocumentRecord(None, 3)], "sample 1500: doc_id None is not a str"),
    ],
    ids=["first_sample", "after_bytes_reached_the_file"],
)
def test_write_refuses_a_doc_id_the_reader_rejects(tmp_path, docs, message):
    # the reader takes only str doc ids, so the writer must not write others
    manifest = pack_corpus(docs, PackingConfig(8, Strategy.PAD_LAST_DOCUMENT))
    target = tmp_path / "manifest.json"
    target.write_bytes(b"old manifest")
    with pytest.raises(ManifestError, match=f"cannot write manifest: {message}"):
        manifest_to_json(manifest)
    with pytest.raises(ManifestError, match=f"cannot write manifest: {message}"):
        write_manifest(manifest, target)
    assert target.read_bytes() == b"old manifest"
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_write_memory_does_not_grow_with_the_manifest(tmp_path):
    # 3000 samples of ~1.6 KB: a ~5 MB file from a plan that shares its rows
    row = (tuple((f"{k}" * 400, 0, 1, k) for k in range(4)), (1, 2))
    manifest = _toy_manifest(*[row] * 3000)
    path = tmp_path / "manifest.json"
    tracemalloc.start()
    try:
        write_manifest(manifest, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    assert peak < size / 4, (peak, size)


def _traced(make):
    """What ``make()`` returns, the bytes still allocated after it returns,
    and the most allocated at once while it ran."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = make()
        held, peak = tracemalloc.get_traced_memory()
        return result, held - before, peak - before
    finally:
        tracemalloc.stop()


_SHAPES = pytest.mark.parametrize(
    "strategy, lengths",
    [
        # the plan_only shape: uniform in [1, 2L], half of it split
        (Strategy.RESTART_LAST_DOCUMENT, lambda rng: rng.randint(1, 4096)),
        # the short_docs shape: log-normal around 300 tokens
        (Strategy.BEST_FIT, lambda rng: min(16384, max(1, round(rng.lognormvariate(5.7, 1.02))))),
    ],
    ids=["restart_uniform", "best_fit_lognormal"],
)


def _shaped(strategy, lengths):
    """20 000 documents of the shape ``lengths`` draws, as the policy keeps
    them, and the config that packs them under ``strategy``."""
    rng = random.Random(22)
    cfg = make_config(strategy, context_length=2048)
    return apply_policy(docs_from_lengths([lengths(rng) for _ in range(20_000)]), cfg)[0], cfg


@_SHAPES
def test_plan_memory_is_columnar(strategy, lengths):
    # a placement is four array slots, not a row tuple of boxed ints: the plan
    # pack_corpus returns holds at most 64 B per placement beyond the retained
    # records it indexes, and a manifest read back at most 128 B, its id
    # strings included (row tuples took 150-190 B and ~245 B)
    docs, cfg = _shaped(strategy, lengths)
    manifest, plan_bytes, _ = _traced(lambda: pack_corpus(docs, cfg))
    placements = len(manifest.samples.doc)
    assert plan_bytes / placements <= 64, plan_bytes / placements
    text = manifest_to_json(manifest)
    del manifest
    back, read_bytes, _ = _traced(lambda: manifest_from_json(text))
    assert manifest_to_json(back) == text
    assert read_bytes / placements <= 128, read_bytes / placements


def test_corpus_memory_is_columnar(tmp_path):
    # a lengths-only document is its id string and two column slots, not a
    # record object: with 8-character ids ingest holds at most 96 B per
    # document (records took 146-156 B), and on the plan_only shape the
    # split policy at most 112 B per chunk it derives, the rows it copies
    # as they are included (chunk records took 166 B)
    rng = random.Random(29)
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(
        json.dumps({"doc_id": f"{i:08d}", "length": rng.randint(1, 4096)}) + "\n" for i in range(20_000)
    ))
    table, ingest_bytes, _ = _traced(lambda: ingest_corpus(path))
    assert ingest_bytes / len(table) <= 96, ingest_bytes / len(table)
    cfg = make_config(Strategy.RESTART_LAST_DOCUMENT, context_length=2048)
    (retained, _), policy_bytes, _ = _traced(lambda: apply_policy(table, cfg))
    chunks = len(retained) - sum(n <= 2048 for n in table.lengths)
    assert chunks > 19_000
    assert policy_bytes / chunks <= 112, policy_bytes / chunks


@_SHAPES
def test_read_and_verify_peak_near_the_plan(strategy, lengths):
    # the read decodes one sample at a time and verify groups coverage in
    # array columns, so neither peaks far above the plan: at most 200 B per
    # placement for the read and 280 B for verify, beyond what was allocated
    # before (a whole-text parse peaked at 306-407 B, per-document lists of
    # row tuples at 327-412 B)
    docs, cfg = _shaped(strategy, lengths)
    text = manifest_to_json(pack_corpus(docs, cfg))
    manifest, _, read_peak = _traced(lambda: manifest_from_json(text))
    placements = len(manifest.samples.doc)
    assert read_peak / placements <= 200, read_peak / placements
    # text the streamed read refuses only at its end is read whole, after
    # the partial table is let go
    spaced = text[:-1] + " \n"
    _, _, whole_peak = _traced(lambda: _whole_text(spaced))
    _, _, fallback_peak = _traced(lambda: manifest_from_json(spaced))
    assert fallback_peak <= 1.05 * whole_peak, (fallback_peak, whole_peak)
    report, _, verify_peak = _traced(lambda: verify_manifest(manifest, docs))
    assert report.ok
    assert verify_peak / placements <= 280, verify_peak / placements
