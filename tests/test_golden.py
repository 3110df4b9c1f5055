"""Byte-identity gate: frozen manifest digests over a seeded sweep.

Every strategy packs the same ~200 seeded small corpora (lengths up to
2L, so the long-document policies get work) under every combination of
separator, final-drop and long-document policy; best_fit also runs in
online mode.  The bytes ``write_manifest`` writes for all runs of one
strategy, which must equal ``manifest_to_json``'s, are hashed into one
SHA-256.  A refactor that changes any manifest byte changes a digest; a
deliberate format change must update the table and say why.  Every
manifest must also read back to the same plan, whose placements are the
manifest's rows as tuples, and pass the structural checks.

The small sweep never holds many open samples at once, so best_fit has
one more digest at realistic scale: thousands of log-normal documents
at L=2048, where hundreds of residual sizes are open together.

Sample files have their own digest: part of the sweep is emitted from
both token stores under every strategy, with and without separators and
separator masking, with token, separator and padding ids up to
``2**32 - 1``.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
import struct

import pytest

from seqpack import (
    DocumentRecord,
    FileTokenStore,
    InMemoryTokenStore,
    LongDocPolicy,
    PackingConfig,
    Strategy,
    emit_samples,
    pack_corpus,
)
from seqpack.longdoc import apply_policy
from seqpack.manifest_io import manifest_from_json, manifest_to_json, write_manifest

from util import ALL_STRATEGIES, docs_from_lengths, samples_of, structural_violations

GOLDEN_SHA256 = {
    Strategy.CONCAT_THEN_SPLIT: "4329e4f568df1b08405f0d876e8b3d5fd6f38c5aabd80687eb469b0b01a6abf4",
    Strategy.RESTART_LAST_DOCUMENT: "124c797d1f1b9e09403bf6489c6984edaf72b5fc3216b2a66ab2f22acbc31960",
    Strategy.PAD_LAST_DOCUMENT: "3ecf3f59a3258c23a06e4616a384b29a0698699c0db367f22586189891fbedb9",
    Strategy.BEST_FIT: "edf10e09758c009d1d2cc51d4c1c87a039b839fb90205ed8adcd27f91f7d0bf8",
}

BEST_FIT_AT_SCALE_SHA256 = "e0b08bb54f79ae448fb7623c4d0b88c312d48e2dceffc99e67d75608ff4f4ddc"

SAMPLE_STREAM_SHA256 = "b02f89f7e06a37e028f9c0b02f692cd6d18832d81cf00150cc169c7a2b7141cd"


def _corpora(seed: int = 20260301, count: int = 200):
    rng = random.Random(seed)
    for _ in range(count):
        L = rng.randint(2, 24)
        lengths = [rng.randint(1, 2 * L) for _ in range(rng.randint(0, 30))]
        yield L, rng.randint(1, L - 1), docs_from_lengths(lengths)


def _written(manifest, path) -> bytes:
    """The manifest's file bytes, checked against ``manifest_to_json``."""
    write_manifest(manifest, path)
    data = path.read_bytes()
    assert data == manifest_to_json(manifest).encode("utf-8")
    return data


def _digest(strategy: Strategy, path) -> str:
    h = hashlib.sha256()
    onlines = (False, True) if strategy is Strategy.BEST_FIT else (False,)
    for L, overlap, docs in _corpora():
        for sep, drop_final, policy, online in itertools.product(
            (True, False), (True, False), LongDocPolicy, onlines
        ):
            cfg = PackingConfig(
                context_length=L,
                strategy=strategy,
                long_doc_policy=policy,
                slide_overlap=overlap if policy is LongDocPolicy.SLIDE else None,
                sep_after_every_doc=sep,
                drop_final_partial=drop_final,
                online=online,
            )
            manifest = pack_corpus(docs, cfg)
            data = _written(manifest, path)
            text = data.decode("utf-8")
            read = manifest_from_json(text)
            assert read == manifest
            rows = [s["placements"] for s in json.loads(text)["samples"]]
            assert [placements for placements, _ in samples_of(read.samples)] == [tuple(map(tuple, r)) for r in rows]
            assert not structural_violations(manifest, docs)
            h.update(data)
    return h.hexdigest()


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.value)
def test_manifest_bytes_match_frozen_digest(strategy, tmp_path):
    assert _digest(strategy, tmp_path / "manifest.json") == GOLDEN_SHA256[strategy]


def test_best_fit_bytes_at_scale_match_frozen_digest(tmp_path):
    # 5000 docs, median ~300 tokens; the few over L are split by policy
    rng = random.Random(20261018)
    docs = docs_from_lengths(
        [max(1, round(rng.lognormvariate(math.log(300), 1.0))) for _ in range(5000)]
    )
    h = hashlib.sha256()
    for online, sep in itertools.product((False, True), (True, False)):
        cfg = PackingConfig(
            context_length=2048,
            strategy=Strategy.BEST_FIT,
            sep_after_every_doc=sep,
            online=online,
        )
        h.update(_written(pack_corpus(docs, cfg), tmp_path / "manifest.json"))
    assert h.hexdigest() == BEST_FIT_AT_SCALE_SHA256


def test_sample_bytes_match_frozen_digest(tmp_path):
    top = 2**32 - 1
    id_pairs = ((1, 0), (top, 0), (0, top), (top - 1, top))  # (separator_id, padding_id)
    rng = random.Random(20261019)
    h = hashlib.sha256()
    for k, (L, overlap, lengths_docs) in enumerate(itertools.islice(_corpora(), 60)):
        # one token file per corpus; ids cluster at both ends of the uint32 range
        ids = [rng.choice((0, 1, top - 1, top, rng.getrandbits(32)))
               for _ in range(sum(d.length for d in lengths_docs))]
        (tmp_path / f"t{k}.bin").write_bytes(struct.pack(f"<{len(ids)}I", *ids))
        docs, offset = [], 0
        for d in lengths_docs:
            docs.append(DocumentRecord(d.doc_id, d.length, f"t{k}.bin", 4 * offset))
            offset += d.length
        policy = list(LongDocPolicy)[k % len(LongDocPolicy)]
        separator_id, padding_id = id_pairs[k % len(id_pairs)]
        for strategy, sep, mask in itertools.product(ALL_STRATEGIES, (True, False), (False, True)):
            cfg = PackingConfig(
                context_length=L,
                strategy=strategy,
                long_doc_policy=policy,
                slide_overlap=overlap if policy is LongDocPolicy.SLIDE else None,
                sep_after_every_doc=sep,
                drop_final_partial=k % 2 == 0,
                separator_id=separator_id,
                padding_id=padding_id,
            )
            manifest = pack_corpus(docs, cfg)
            retained, _ = apply_policy(docs, cfg)
            memory = InMemoryTokenStore({
                r.doc_id: ids[r.offset // 4 : r.offset // 4 + r.length]
                for r in retained
            })
            streams = []
            with FileTokenStore(retained, tmp_path) as files:
                for store in (files, memory):
                    sink = io.BytesIO()
                    emit_samples(manifest, store, sink, mask_separators=mask)
                    streams.append(sink.getvalue())
            assert streams[0] == streams[1]
            h.update(streams[0])
    assert h.hexdigest() == SAMPLE_STREAM_SHA256
