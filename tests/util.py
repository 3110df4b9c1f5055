"""Shared helpers for the test suite: corpus builders and generators."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import numpy as np

from seqpack import (
    DocumentRecord,
    PackingConfig,
    PlanTable,
    Strategy,
    compute_metrics,
    pack_corpus,
)
from seqpack.longdoc import apply_policy
from seqpack.verify import _structural


def docs_from_lengths(lengths, prefix="d") -> list[DocumentRecord]:
    return [DocumentRecord(f"{prefix}{i}", n) for i, n in enumerate(lengths)]


def make_config(strategy, context_length=5, **kwargs) -> PackingConfig:
    return PackingConfig(context_length=context_length, strategy=strategy, **kwargs)


def replace_row(row, **changes) -> tuple:
    """A placement row ``(doc_id, start, end, offset)`` with the named fields changed."""
    fields = dict(zip(("doc_id", "start", "end", "offset"), row), **changes)
    assert len(fields) == 4, f"unknown placement field in {sorted(changes)}"
    return tuple(fields.values())


def samples_of(plan: PlanTable) -> list[tuple[tuple, tuple]]:
    """The plan's samples as ``(placements, separators)`` pairs of tuples,
    each placement a ``(doc_id, start, end, offset)`` row: what a test
    compares, edits and hands back to ``plan_table``."""
    return [
        (tuple((plan.ids[k], start, end, offset) for k, start, end, offset in rows), tuple(separators))
        for rows, separators in plan
    ]


def plan_table(samples) -> PlanTable:
    """The placement table holding ``samples``, ``(placements, separators)``
    pairs as ``samples_of`` gives them: a plan built by hand."""
    plan = PlanTable()
    index_of: dict = {}
    for placements, separators in samples:
        for doc_id, start, end, offset in placements:
            plan.doc.append(index_of.setdefault(doc_id, len(index_of)))
            plan.start.append(start)
            plan.end.append(end)
            plan.offset.append(offset)
        plan.separators.extend(separators)
        plan.end_sample()
    plan.ids.extend(index_of)
    return plan


def structural_violations(manifest, docs) -> list:
    """What the structural checks find in a manifest for the corpus
    ``docs``, as read: a judge of the engine that does not plan, where
    ``verify_manifest`` would compare the engine with itself."""
    return _structural(manifest, *apply_policy(docs, manifest.config))


def separator_mutant(strategy, sep, lengths, context_length, samples):
    """The corpus ``lengths`` (doc_id -> length) and the manifest ``pack_corpus``
    gives it, with ``samples`` (``plan_table``'s pairs) in place of its own
    and the metrics recomputed."""
    docs = [DocumentRecord(doc_id, n) for doc_id, n in lengths.items()]
    cfg = make_config(strategy, context_length, sep_after_every_doc=sep)
    manifest = pack_corpus(docs, cfg)
    plan = plan_table(samples)
    metrics = compute_metrics(plan, docs, context_length)
    return replace(manifest, samples=plan, metrics=metrics), docs


def random_lengths(rng: random.Random, count: int, max_len: int) -> list[int]:
    return [rng.randint(1, max_len) for _ in range(count)]


def write_token_corpus(
    directory: Path, lengths, rng: random.Random, store_name: str = "tokens.bin"
) -> tuple[Path, dict[str, list[int]]]:
    """Write a full-mode corpus: one flat token store plus a JSONL index
    pointing into it.  Returns the corpus path and the tokens per doc."""
    tokens: dict[str, list[int]] = {}
    blob = bytearray()
    lines = []
    offset = 0
    for i, n in enumerate(lengths):
        doc_id = f"d{i}"
        ids = [rng.getrandbits(31) for _ in range(n)]
        tokens[doc_id] = ids
        blob += np.asarray(ids, dtype="<u4").tobytes()
        lines.append(
            json.dumps(
                {"doc_id": doc_id, "length": n, "token_file": store_name, "offset": offset}
            )
        )
        offset += 4 * n
    (directory / store_name).write_bytes(bytes(blob))
    corpus_path = directory / "corpus.jsonl"
    corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return corpus_path, tokens


def write_lengths_corpus(directory: Path, lengths, name: str = "corpus.jsonl") -> Path:
    lines = [
        json.dumps({"doc_id": f"d{i}", "length": n}) for i, n in enumerate(lengths)
    ]
    path = directory / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


ALL_STRATEGIES = (
    Strategy.CONCAT_THEN_SPLIT,
    Strategy.RESTART_LAST_DOCUMENT,
    Strategy.PAD_LAST_DOCUMENT,
    Strategy.BEST_FIT,
)
