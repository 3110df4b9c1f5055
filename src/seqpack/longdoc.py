"""Policies for documents longer than the context length.

``apply_policy`` runs the configured policy over a corpus.  Chunks
derived from an over-length document inherit the parent id with a ``#<k>``
suffix and its token file, with the offset moved to the covered range,
so a derived corpus still resolves against the original token store.
"""

from __future__ import annotations

import operator
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
    step = L - cfg.slide_overlap if slide else L

    def starts_of(n: int):  # the first token of each chunk of an over-length row
        return [*range(0, n - L, step), n - L] if slide else range(0, n, L)

    a = 0  # the first row not yet copied
    for r in compress(range(len(lengths)), map(L.__lt__, lengths)):
        copy(a, r)
        a = r + 1
        n = lengths[r]
        starts = starts_of(n)
        if slide:
            out.lengths.extend(repeat(L, len(starts)))
        else:
            out.lengths.extend(repeat(L, len(starts) - 1))
            out.lengths.append(n - starts[-1])
        doc_id = ids[r]
        out.ids.extend([f"{doc_id}#{k}" for k in range(len(starts))])
        if refs:
            f, base = table.file[r], table.offset[r]
            out.file.extend(repeat(f, len(starts)))
            out.offset.extend([base + _TOKEN_BYTES * s for s in starts] if f >= 0 else repeat(0, len(starts)))
    copy(a, len(lengths))
    # a derived id p#k collides only with a row that fits and is named so:
    # chunks of distinct rows differ in p or k.  So only where such a row
    # exists is the output walked, to name the first id it holds twice.
    if _chunk_named_row(table, L, starts_of):
        seen: set[str] = set()
        for doc_id in out.ids:
            if doc_id in seen:
                raise CorpusError(f"derived chunk id {doc_id!r} collides with another document")
            seen.add(doc_id)
    return out, ()


def _chunk_named_row(table: CorpusTable, L: int, starts_of) -> bool:
    """Whether a row of ``table`` that fits is named ``p#k`` for a row
    ``p`` over ``L`` with a chunk ``k``: ``k`` the canonical ASCII decimal
    of a number below ``len(starts_of(p's length))``."""
    ids, lengths = table.ids, table.lengths

    def named():  # (p, k) of each row that fits and is named p#k, k canonical
        for r in compress(range(len(ids)), map(operator.contains, ids, repeat("#"))):  # at C speed
            if lengths[r] <= L:
                p, _, k = ids[r].rpartition("#")
                if k.isascii() and k.isdigit() and (k == "0" or k[0] != "0"):
                    yield p, k

    try:
        parents = {p for p, _ in named()}
    except TypeError:  # an id that is not a str: let the output walk decide
        return True
    if not parents:
        return False
    chunks = {  # each over-length row's chunk count, by the prefix its chunk ids carry
        f"{doc_id}": len(starts_of(n))
        for doc_id, n in zip(ids, lengths)
        if n > L and f"{doc_id}" in parents
    }
    # a k longer than the count's decimal is out of range, and int() refuses one over 4300 digits
    return any(p in chunks and len(k) <= len(str(chunks[p])) and int(k) < chunks[p] for p, k in named())
