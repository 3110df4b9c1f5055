"""Policies for documents longer than the context length.

``apply_policy`` runs the configured policy over a corpus.  Chunks
derived from an over-length document inherit the parent id with a ``#<k>``
suffix and its token file, with the offset moved to the covered range,
so a derived corpus still resolves against the original token store.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Iterable

from .model import (
    _TOKEN_BYTES,
    CorpusError,
    CorpusTable,
    DocumentRecord,
    LongDocPolicy,
    PackingConfig,
    _corpus,
)

__all__ = ["apply_policy"]


def apply_policy(
    docs: CorpusTable | Iterable[DocumentRecord], cfg: PackingConfig
) -> tuple[CorpusTable, tuple[str, ...]]:
    """Run the configured long-document policy over a corpus in order.

    Returns the retained rows, as a table, plus the ids of documents
    removed by the drop policy; where no document is longer than
    ``cfg.context_length`` the table is ``docs`` itself (a table built
    from ``docs`` when they are records).  Every retained row is at most
    ``cfg.context_length`` tokens long, which the whole-document
    strategies rely on.

    split cuts an over-length document into consecutive chunks of exactly
    ``context_length`` tokens, the last keeping what remains; slide covers
    it with windows of exactly ``context_length`` tokens that advance by
    ``context_length - slide_overlap``, the last pulled back to end flush
    with the document.  Derived chunk ids must not collide with any other
    id in the resulting corpus.
    """
    table = _corpus(docs)
    L = cfg.context_length
    ids, lengths, refs = table.ids, table.lengths, bool(table.file)
    if max(lengths, default=0) <= L:
        return table, ()
    out = CorpusTable()
    out.files = table.files
    if cfg.long_doc_policy is LongDocPolicy.DROP:
        keep = list(map(L.__ge__, lengths))
        out.ids = list(compress(ids, keep))
        out.lengths.extend(compress(lengths, keep))
        if refs:
            out.file.extend(compress(table.file, keep))
            out.offset.extend(compress(table.offset, keep))
        return out, tuple(compress(ids, map(L.__lt__, lengths)))

    def copy(a: int, b: int) -> None:  # rows a to b fit: as they are
        out.ids.extend(ids[a:b])
        out.lengths.extend(lengths[a:b])
        if refs:
            out.file.extend(table.file[a:b])
            out.offset.extend(table.offset[a:b])

    slide = cfg.long_doc_policy is LongDocPolicy.SLIDE
    a = 0  # the first row not yet copied
    for r in compress(range(len(lengths)), map(L.__lt__, lengths)):
        copy(a, r)
        a = r + 1
        n = lengths[r]
        if slide:
            starts = [*range(0, n - L, L - cfg.slide_overlap), n - L]
            out.lengths.extend(repeat(L, len(starts)))
        else:
            starts = range(0, n, L)
            out.lengths.extend(repeat(L, len(starts) - 1))
            out.lengths.append(n - starts[-1])
        doc_id = ids[r]
        out.ids.extend([f"{doc_id}#{k}" for k in range(len(starts))])
        if refs:
            f, base = table.file[r], table.offset[r]
            out.file.extend(repeat(f, len(starts)))
            out.offset.extend([base + _TOKEN_BYTES * s for s in starts] if f >= 0 else repeat(0, len(starts)))
    copy(a, len(lengths))
    if len(set(out.ids)) < len(out.ids):
        seen: set[str] = set()
        for doc_id in out.ids:
            if doc_id in seen:
                raise CorpusError(f"derived chunk id {doc_id!r} collides with another document")
            seen.add(doc_id)
    return out, ()
