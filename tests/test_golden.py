"""Byte-identity gate: frozen manifest digests over a seeded sweep.

Every strategy packs the same ~200 seeded small corpora (lengths up to
2L, so the long-document policies get work) under every combination of
separator, final-drop and long-document policy; best_fit also runs in
online mode.  The ``manifest_to_json`` bytes of all runs of one strategy
are hashed into one SHA-256.  A refactor that changes any manifest byte
changes a digest; a deliberate format change must update the table and
say why.  Every manifest must also read back to the same bytes and pass
``verify_manifest``.

The small sweep never holds many open samples at once, so best_fit has
one more digest at realistic scale: thousands of log-normal documents
at L=2048, where hundreds of residual sizes are open together.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import pytest

from seqpack import LongDocPolicy, PackingConfig, Strategy, pack_corpus, verify_manifest
from seqpack.manifest_io import manifest_from_json, manifest_to_json

from util import ALL_STRATEGIES, docs_from_lengths

GOLDEN_SHA256 = {
    Strategy.CONCAT_THEN_SPLIT: "4329e4f568df1b08405f0d876e8b3d5fd6f38c5aabd80687eb469b0b01a6abf4",
    Strategy.RESTART_LAST_DOCUMENT: "124c797d1f1b9e09403bf6489c6984edaf72b5fc3216b2a66ab2f22acbc31960",
    Strategy.PAD_LAST_DOCUMENT: "3ecf3f59a3258c23a06e4616a384b29a0698699c0db367f22586189891fbedb9",
    Strategy.BEST_FIT: "edf10e09758c009d1d2cc51d4c1c87a039b839fb90205ed8adcd27f91f7d0bf8",
}

BEST_FIT_AT_SCALE_SHA256 = "e0b08bb54f79ae448fb7623c4d0b88c312d48e2dceffc99e67d75608ff4f4ddc"


def _corpora(seed: int = 20260301, count: int = 200):
    rng = random.Random(seed)
    for _ in range(count):
        L = rng.randint(2, 24)
        lengths = [rng.randint(1, 2 * L) for _ in range(rng.randint(0, 30))]
        yield L, rng.randint(1, L - 1), docs_from_lengths(lengths)


def _digest(strategy: Strategy) -> str:
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
            text = manifest_to_json(manifest)
            assert manifest_to_json(manifest_from_json(text)) == text
            assert verify_manifest(manifest, docs).ok
            h.update(text.encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.value)
def test_manifest_bytes_match_frozen_digest(strategy):
    assert _digest(strategy) == GOLDEN_SHA256[strategy]


def test_best_fit_bytes_at_scale_match_frozen_digest():
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
        h.update(manifest_to_json(pack_corpus(docs, cfg)).encode("utf-8"))
    assert h.hexdigest() == BEST_FIT_AT_SCALE_SHA256
