"""Policies for documents longer than the context length.

``apply_policy`` runs the configured policy over a corpus.  Chunks
derived from an over-length document inherit the parent id with a ``#<k>``
suffix and its ``token_file``, with the offset moved to the covered range,
so a derived corpus still resolves against the original token store.
"""

from __future__ import annotations

from .model import (
    _TOKEN_BYTES,
    CorpusError,
    DocumentRecord,
    LongDocPolicy,
    PackingConfig,
)

__all__ = ["apply_policy"]


def _chunk(doc: DocumentRecord, index: int, start: int, end: int) -> DocumentRecord:
    if doc.token_file is None:  # lengths only: no offset to move
        return DocumentRecord(f"{doc.doc_id}#{index}", end - start)
    offset = doc.offset + _TOKEN_BYTES * start
    return DocumentRecord(f"{doc.doc_id}#{index}", end - start, doc.token_file, offset)


def _split(doc: DocumentRecord, context_length: int) -> list[DocumentRecord]:
    """Cut an over-length document into consecutive chunks of exactly
    ``context_length`` tokens; the final chunk keeps whatever remains
    and may be shorter."""
    parts = []
    for k, start in enumerate(range(0, doc.length, context_length)):
        end = min(start + context_length, doc.length)
        parts.append(_chunk(doc, k, start, end))
    return parts


def _slide(doc: DocumentRecord, context_length: int, overlap: int) -> list[DocumentRecord]:
    """Cover an over-length document with overlapping windows of exactly
    ``context_length`` tokens.

    Consecutive windows advance by ``context_length - overlap``; the
    final window is pulled back so it ends flush with the document, so
    every window is full-size and every token is covered at least once.
    """
    last = doc.length - context_length
    starts = [*range(0, last, context_length - overlap), last]
    return [_chunk(doc, k, s, s + context_length) for k, s in enumerate(starts)]


def apply_policy(
    docs: list[DocumentRecord], cfg: PackingConfig
) -> tuple[list[DocumentRecord], tuple[str, ...]]:
    """Run the configured long-document policy over a corpus in order.

    Returns the retained (possibly derived) records plus the ids of
    documents removed by the drop policy.  Every retained record is at
    most ``cfg.context_length`` tokens long, which the whole-document
    strategies rely on.  Derived chunk ids must not collide with any
    other id in the resulting corpus.
    """
    L = cfg.context_length
    retained: list[DocumentRecord] = []
    dropped: list[str] = []
    derived_any = False
    for doc in docs:
        if doc.length <= L:
            retained.append(doc)
        elif cfg.long_doc_policy is LongDocPolicy.DROP:
            dropped.append(doc.doc_id)
        elif cfg.long_doc_policy is LongDocPolicy.SPLIT:
            retained.extend(_split(doc, L))
            derived_any = True
        else:
            retained.extend(_slide(doc, L, cfg.slide_overlap))
            derived_any = True
    if derived_any:
        seen: set[str] = set()
        for rec in retained:
            if rec.doc_id in seen:
                raise CorpusError(
                    f"derived chunk id {rec.doc_id!r} collides with another document"
                )
            seen.add(rec.doc_id)
    return retained, tuple(dropped)
