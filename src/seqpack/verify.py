"""Structural verification of packing manifests.

``verify_manifest`` re-checks every invariant a strategy promises —
sample capacity, exact tiling, per-document coverage discipline, the
document-head rule, the discarded tail, and metric counters — against
the corpus the manifest claims to describe, taken as read and put
through the manifest's long-document policy.  It reports violations as
data instead of raising, so a caller can show all of them at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

from .longdoc import apply_policy
from .metrics import compute_metrics
from .model import (
    DocumentRecord,
    PackedSample,
    PackingManifest,
    PackingMetrics,
    Placement,
    Strategy,
    effective_length,
)

__all__ = ["Violation", "VerificationReport", "verify_manifest"]

_FRAGMENT_FREE = (Strategy.PAD_LAST_DOCUMENT, Strategy.BEST_FIT)
_HEAD_RULE = (
    Strategy.RESTART_LAST_DOCUMENT,
    Strategy.PAD_LAST_DOCUMENT,
    Strategy.BEST_FIT,
)


@dataclass(frozen=True, slots=True)
class Violation:
    sample: int | None
    doc_id: str | None
    message: str

    def __str__(self) -> str:
        where = []
        if self.sample is not None:
            where.append(f"sample {self.sample}")
        if self.doc_id is not None:
            where.append(f"doc {self.doc_id}")
        prefix = " ".join(where)
        return f"{prefix}: {self.message}" if prefix else self.message


@dataclass(frozen=True, slots=True)
class VerificationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _sample_layout(i: int, sample: PackedSample, L: int) -> tuple[int, list[Violation]]:
    """Sample ``i``'s occupancy and layout problems, judged by ``L`` alone:
    placements in offset order, each a non-empty range inside ``[0, L)``,
    separators inside ``[0, L)``, all tiling ``[0, occupied)`` exactly."""
    problems: list[tuple[str | None, str]] = []
    # (offset, is separator, end) of every in-range piece of the sample
    pieces: list[tuple[int, bool, int]] = []
    last_offset = -1
    for p in sample.placements:
        if p.offset <= last_offset:
            problems.append((p.doc_id, "placements out of order"))
        last_offset = p.offset
        n = p.end - p.start
        if p.start < 0 or n <= 0:
            problems.append((p.doc_id, f"bad placement range [{p.start}, {p.end})"))
        elif p.offset < 0 or p.offset + n > L:
            problems.append((p.doc_id, f"capacity exceeded: offset {p.offset} + length {n} > {L}"))
        else:
            pieces.append((p.offset, False, p.offset + n))
    for off in sample.separator_positions:
        if 0 <= off < L:
            pieces.append((off, True, off + 1))
        else:
            problems.append((None, f"separator position {off} out of range"))

    # every piece lies inside [0, L), so occupancy cannot exceed L
    occupied = 0
    for a, is_separator, b in sorted(pieces):
        if a > occupied:
            problems.append((None, f"gap in sample at offset {occupied}"))
        elif a < occupied and is_separator:
            problems.append((None, f"separator at {a} inside a placement"))
        elif a < occupied:
            problems.append((None, "overlapping spans within sample"))
        occupied = max(occupied, b)
    return occupied, [Violation(i, doc_id, message) for doc_id, message in problems]


def verify_manifest(
    manifest: PackingManifest, documents: Sequence[DocumentRecord]
) -> VerificationReport:
    """Check a manifest against the corpus it was packed from, as read.

    The manifest's long-document policy runs first, as in ``pack_corpus``,
    and must drop exactly the manifest's dropped ids; every other check
    judges the retained records, whose true lengths bound placements and
    fragmentation.  A derived-id collision raises ``CorpusError``.
    """
    cfg = manifest.config
    documents, dropped = apply_policy(documents, cfg)
    v: list[Violation] = []
    if dropped != manifest.documents.dropped:
        v.append(Violation(None, None, "dropped documents differ"))
    L = cfg.context_length
    strategy = cfg.strategy
    lengths = {d.doc_id: d.length for d in documents}

    if manifest.documents.document_count != len(documents):
        v.append(
            Violation(
                None,
                None,
                f"corpus summary mismatch: manifest says "
                f"{manifest.documents.document_count} documents, corpus has "
                f"{len(documents)}",
            )
        )
    total_tokens = sum(d.length for d in documents)
    if manifest.documents.total_tokens != total_tokens:
        v.append(
            Violation(
                None,
                None,
                f"corpus summary mismatch: manifest says "
                f"{manifest.documents.total_tokens} tokens, corpus has {total_tokens}",
            )
        )

    # doc_id -> (sample position, placement) for every placement that ends
    # inside its document, in manifest order; the layout rule judges its start
    placed: dict[str, list[tuple[int, Placement]]] = {}
    for i, sample in enumerate(manifest.samples):
        # a head-rule sample starts with a placement; a concat_then_split one
        # may hold only a separator (the kept tail of a k*L + 1 token stream)
        if not sample.placements and (strategy in _HEAD_RULE or not sample.separator_positions):
            v.append(Violation(i, None, "sample has no placements"))
            continue

        occupied, problems = _sample_layout(i, sample, L)
        v.extend(problems)
        for p in sample.placements:
            n = lengths.get(p.doc_id)
            if n is None:
                v.append(Violation(i, p.doc_id, "unknown doc_id"))
            elif p.end > n:
                v.append(Violation(i, p.doc_id, f"end {p.end} outside document bounds (length {n})"))
            else:
                placed.setdefault(p.doc_id, []).append((i, p))

        # the fragmenting strategies fill every sample they keep
        if occupied < L and cfg.drop_final_partial and strategy not in _FRAGMENT_FREE:
            v.append(Violation(i, None, "unexpected padding under zero-padding strategy"))

        if strategy in _HEAD_RULE:
            first = sample.placements[0]
            if first.offset != 0 or first.start != 0:
                v.append(Violation(i, first.doc_id, "sample must start with a document head"))

    complete: set[str] = set()  # restart_last_document: docs placed whole
    for doc_id, pls in placed.items():
        n = lengths[doc_id]
        if strategy in _FRAGMENT_FREE:
            if len(pls) > 1:
                v.append(Violation(None, doc_id, "duplicate coverage"))
            first = pls[0][1]
            if first.start != 0 or first.end != n:
                v.append(
                    Violation(None, doc_id, "fragmented document under fragment-free strategy")
                )
        elif strategy is Strategy.CONCAT_THEN_SPLIT:
            cursor = 0
            for _, p in pls:
                if p.start < cursor:
                    v.append(Violation(None, doc_id, "duplicate coverage"))
                    break
                if p.start > cursor:
                    v.append(Violation(None, doc_id, f"gap in coverage at token {cursor}"))
                    break
                cursor = p.end
        else:  # restart_last_document: prefix fragments only, one restart at most
            fulls = [i for i, p in pls if p.end == n]
            partials = [i for i, p in pls if p.end < n]
            if any(p.start != 0 for _, p in pls):
                v.append(Violation(None, doc_id, "placement must start at document offset 0"))
            if len(fulls) > 1 or len(partials) > 1:
                v.append(Violation(None, doc_id, "duplicate coverage"))
            elif partials and fulls and partials[0] >= fulls[0]:
                v.append(Violation(None, doc_id, "restart precedes its tail fragment"))
            if fulls:
                complete.add(doc_id)

    # every document is placed, bar the discarded tail the corpus implies
    discarded = 0
    if strategy in _FRAGMENT_FREE:
        for doc_id in lengths:
            if doc_id not in placed:
                v.append(Violation(None, doc_id, "document missing from packing"))
    elif strategy is Strategy.CONCAT_THEN_SPLIT:
        stream_len = total_tokens + len(documents) * cfg.separator_cost
        if cfg.drop_final_partial:
            want, discarded = divmod(stream_len, L)
        else:
            want = -(-stream_len // L)
        if len(manifest.samples) != want:
            v.append(
                Violation(
                    None,
                    None,
                    f"sample count {len(manifest.samples)} is not {want} for a "
                    f"{stream_len}-token stream",
                )
            )
    else:
        # restart_last_document: only the documents of a dropped final
        # sample may lack a whole placement, and they end the corpus
        k = len(documents)
        if cfg.drop_final_partial:
            while k and documents[k - 1].doc_id not in complete:
                k -= 1
        for d in documents[:k]:
            if d.doc_id not in complete:
                v.append(Violation(None, d.doc_id, "document missing from packing"))
        discarded = sum(effective_length(d.length, cfg) for d in documents[k:])
    if manifest.discarded_tail_tokens != discarded:
        v.append(
            Violation(
                None,
                None,
                f"discarded tail mismatch: manifest says "
                f"{manifest.discarded_tail_tokens} tokens, corpus gives {discarded}",
            )
        )

    try:
        recomputed = compute_metrics(manifest.samples, documents, L)
    except KeyError:
        v.append(Violation(None, None, "metrics not recomputable: placements reference unknown documents"))
    else:
        stored = manifest.metrics
        for field in fields(PackingMetrics):
            a, b = getattr(stored, field.name), getattr(recomputed, field.name)
            if a != b:
                v.append(
                    Violation(None, None, f"metrics mismatch: {field.name} stored {a}, recomputed {b}")
                )

    return VerificationReport(tuple(v))
