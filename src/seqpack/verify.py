"""Verification of packing manifests.

``verify_manifest`` accepts exactly the manifest ``pack_corpus`` gives
for the corpus and the manifest's config.  A manifest that differs is
explained by the structural checks, which re-check every invariant a
strategy promises without planning — sample capacity, exact tiling,
per-document coverage discipline, the document-head rule, separators,
the discarded tail, and metric counters.  Violations are data, not
raised, so a caller can show all of them at once.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from itertools import compress, islice
from typing import Iterable

from .longdoc import apply_policy
from .manifest_io import _first_sample_difference
from .metrics import _plan_metrics
from .model import (
    _MAX_PLACEMENTS,
    CorpusTable,
    DocumentRecord,
    PackingError,
    PackingManifest,
    PackingMetrics,
    Strategy,
    _group,
    effective_length,
)
from .strategies import _planned

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
    retained: CorpusTable  # the policy's output, derived chunks included

    @property
    def ok(self) -> bool:
        return not self.violations


def _sample_layout(
    i: int, rows: list, separators: list[int], ids: list[str], L: int
) -> tuple[int, list[Violation]]:
    """Sample ``i``'s covered prefix and layout problems, judged by ``L``
    alone: placements in offset order, each a non-empty range inside
    ``[0, L)``, separators inside ``[0, L)``, all tiling ``[0, covered)``
    exactly, and no more placements than the sample format's boundary
    plane holds.  On a sound layout ``covered`` is the sample's occupancy.
    ``rows`` and ``separators`` are the sample's as iterating a
    ``PlanTable`` gives them; ``ids`` names the documents."""
    problems: list[tuple[str | None, str]] = []
    count = len(rows)
    if count > _MAX_PLACEMENTS:
        problems.append((None, f"{count} placements; the boundary plane holds at most {_MAX_PLACEMENTS}"))
    # (offset, is separator, end) of every in-range piece of the sample
    pieces: list[tuple[int, bool, int]] = []
    last_offset = -1
    for k, start, end, offset in rows:
        if offset <= last_offset:
            problems.append((ids[k], "placements out of order"))
        last_offset = offset
        n = end - start
        if start < 0 or n <= 0:
            problems.append((ids[k], f"bad placement range [{start}, {end})"))
        elif offset < 0 or offset + n > L:
            problems.append((ids[k], f"capacity exceeded: offset {offset} + length {n} > {L}"))
        else:
            pieces.append((offset, False, offset + n))
    for off in separators:
        if 0 <= off < L:
            pieces.append((off, True, off + 1))
        else:
            problems.append((None, f"separator position {off} out of range"))

    # every piece lies inside [0, L), so the covered prefix cannot pass L
    covered = 0
    for a, is_separator, b in sorted(pieces):
        if a > covered:
            problems.append((None, f"gap in sample at offset {covered}"))
        elif a < covered and is_separator:
            problems.append((None, f"separator at {a} inside a placement"))
        elif a < covered:
            problems.append((None, "overlapping spans within sample"))
        covered = max(covered, b)
    return covered, [Violation(i, doc_id, message) for doc_id, message in problems]


def verify_manifest(
    manifest: PackingManifest, documents: CorpusTable | Iterable[DocumentRecord]
) -> VerificationReport:
    """Check a manifest against the corpus it was packed from, as read:
    ``ok`` exactly when it equals ``pack_corpus(documents, manifest.config)``.

    On a difference the structural checks report; where they find
    nothing, one line names the first sample that differs from pack's
    plan, or pack's refusal of the corpus.  The long-document policy runs
    once, and the report carries its table as ``retained``; a token
    store built from it resolves every chunk the plan places.  A
    derived-id collision raises ``CorpusError``.
    """
    cfg = manifest.config
    retained, dropped = apply_policy(documents, cfg)
    try:
        planned = _planned(retained, dropped, cfg)
    except PackingError as exc:
        planned, refusal = None, exc
    if manifest == planned:
        return VerificationReport((), retained)
    v = _structural(manifest, retained, dropped)
    if not v and planned is None:
        v.append(Violation(None, None, f"pack refuses this corpus with the manifest's config: {refusal}"))
    elif not v:
        i = _first_sample_difference(manifest, planned)
        v.append(Violation(None, None, f"sample {i} differs from the plan this corpus gives"))
    return VerificationReport(tuple(v), retained)


def _structural(manifest: PackingManifest, documents: CorpusTable, dropped: tuple) -> list[Violation]:
    """The manifest's violations of the invariants, judged without
    planning against the table and dropped ids its long-document policy
    gives; the rows' true lengths bound placements and fragmentation."""
    cfg = manifest.config
    v: list[Violation] = []
    if dropped != manifest.documents.dropped:
        v.append(Violation(None, None, "dropped documents differ"))
    L = cfg.context_length
    strategy = cfg.strategy
    lengths = dict(zip(documents.ids, documents.lengths))

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
    total_tokens = sum(documents.lengths)
    if manifest.documents.total_tokens != total_tokens:
        v.append(
            Violation(
                None,
                None,
                f"corpus summary mismatch: manifest says "
                f"{manifest.documents.total_tokens} tokens, corpus has {total_tokens}",
            )
        )

    plan = manifest.samples
    ids = plan.ids
    length_of = [lengths.get(doc_id) for doc_id in ids]  # by document index
    # (document index, sample position, start, end) of every placement that
    # ends inside its document, in manifest order; the layout rule judges its start
    kept_doc, kept_sample, kept_start, kept_end = (array("q") for _ in range(4))
    misplaced: list[Violation] = []  # separator rule violations
    carried = None  # a cts document whose separator opens the next sample
    last = len(plan) - 1
    for i, (rows, separators) in enumerate(plan):
        # a head-rule sample starts with a placement; a concat_then_split one
        # may hold only a separator (the kept tail of a k*L + 1 token stream)
        if not rows and (strategy in _HEAD_RULE or not separators):
            v.append(Violation(i, None, "sample has no placements"))
            continue

        covered, problems = _sample_layout(i, rows, separators, ids, L)
        v.extend(problems)
        # separators: a last token before L is followed by one, a cts one at L
        # has it at 0 of the next sample (an unknown document has no last token)
        want = {} if carried is None else {0: carried}
        carried = None
        for k, start, end, offset in rows:
            n = length_of[k]
            if n is None:
                v.append(Violation(i, ids[k], "unknown doc_id"))
            elif end > n:
                v.append(Violation(i, ids[k], f"end {end} outside document bounds (length {n})"))
            else:
                kept_doc.append(k)
                kept_sample.append(i)
                kept_start.append(start)
                kept_end.append(end)
                if end == n and cfg.sep_after_every_doc:
                    if offset + end - start < L:
                        want[offset + end - start] = ids[k]
                    elif strategy is Strategy.CONCAT_THEN_SPLIT:
                        carried = ids[k]

        # the fragmenting strategies fill every sample they keep, bar a
        # final sample kept by --no-final-drop
        if covered < L and strategy not in _FRAGMENT_FREE and (cfg.drop_final_partial or i != last):
            v.append(Violation(i, None, "unexpected padding under zero-padding strategy"))

        if strategy in _HEAD_RULE:
            k, start, _, offset = rows[0]
            if offset != 0 or start != 0:
                v.append(Violation(i, ids[k], "sample must start with a document head"))

        seps = set(separators)
        for at, doc_id in want.items():
            if at not in seps:
                misplaced.append(Violation(i, doc_id, f"no separator after its last token at {at}"))
        for at in sorted(seps.difference(want)):
            misplaced.append(Violation(i, None, f"separator at {at} does not follow a document's last token"))

    # group the kept placements by document with one stable counting sort:
    # by_doc[group[k]:group[k + 1]] are document k's, in manifest order
    group, by_doc = _group(kept_doc, len(ids))

    # each document in the order of its first kept placement
    placed = bytearray(len(ids))
    complete: set[str] = set()  # restart_last_document: docs placed whole
    for k in kept_doc:
        if placed[k]:
            continue
        placed[k] = 1
        pls = by_doc[group[k]:group[k + 1]]
        doc_id, n = ids[k], length_of[k]
        if strategy in _FRAGMENT_FREE:
            if len(pls) > 1:
                v.append(Violation(None, doc_id, "duplicate coverage"))
            r = pls[0]
            if kept_start[r] != 0 or kept_end[r] != n:
                v.append(
                    Violation(None, doc_id, "fragmented document under fragment-free strategy")
                )
        elif strategy is Strategy.CONCAT_THEN_SPLIT:
            cursor = 0
            for r in pls:
                if kept_start[r] < cursor:
                    v.append(Violation(None, doc_id, "duplicate coverage"))
                    break
                if kept_start[r] > cursor:
                    v.append(Violation(None, doc_id, f"gap in coverage at token {cursor}"))
                    break
                cursor = kept_end[r]
        else:  # restart_last_document: prefix fragments only, one restart at most
            fulls = [kept_sample[r] for r in pls if kept_end[r] == n]
            partials = [kept_sample[r] for r in pls if kept_end[r] < n]
            if any(kept_start[r] != 0 for r in pls):
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
        placed_ids = set(compress(ids, placed))
        for doc_id in lengths:
            if doc_id not in placed_ids:
                v.append(Violation(None, doc_id, "document missing from packing"))
    elif strategy is Strategy.CONCAT_THEN_SPLIT:
        stream_len = total_tokens + len(documents) * cfg.separator_cost
        if cfg.drop_final_partial:
            want, discarded = divmod(stream_len, L)
        else:
            want = -(-stream_len // L)
        if len(plan) != want:
            v.append(
                Violation(
                    None,
                    None,
                    f"sample count {len(plan)} is not {want} for a "
                    f"{stream_len}-token stream",
                )
            )
    else:
        # restart_last_document: only the documents of a dropped final
        # sample may lack a whole placement, and they end the corpus
        k = len(documents)
        if cfg.drop_final_partial:
            while k and documents.ids[k - 1] not in complete:
                k -= 1
        for doc_id in islice(documents.ids, k):
            if doc_id not in complete:
                v.append(Violation(None, doc_id, "document missing from packing"))
        discarded = sum(effective_length(n, cfg) for n in islice(documents.lengths, k, None))
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
        recomputed = _plan_metrics(plan, length_of, len(documents), L)
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

    # the separator rule's violations count only when all else holds, so
    # each other fault keeps its report as it is
    if not v:
        v.extend(misplaced)
    return v
