"""Independent references the engine is validated against in tests.

``brute_force_min_bins`` finds the true optimum bin count by exhaustive
search, for judging best-fit quality on small instances.

``simulate_reference`` re-derives a strategy's metrics with literal
token-by-token simulation, written deliberately straight-line and kept
free of any engine code, so an engine bug cannot hide in shared logic.
``reference_best_fit`` is its naive quadratic best-fit, giving the whole
plan: each sample's rows in placement order and its separators.
``reference_collision`` restates the long-document policy's id rule the
first way it was written: the output ids in order, one set over all of
them, and the first id seen twice named.
``reference_ingest`` reads a corpus file with one ``json.loads`` per
line into a list of records, checking each line in turn, for judging
``ingest_corpus`` row by row and message by message.

None of these belongs in a production path.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path
from typing import Sequence

from seqpack import (
    ConfigError,
    CorpusError,
    DocumentRecord,
    PackingConfig,
    PackingMetrics,
    Strategy,
)

__all__ = [
    "brute_force_min_bins",
    "simulate_reference",
    "reference_best_fit",
    "reference_collision",
    "reference_ingest",
]

_MAX_EXHAUSTIVE_ITEMS = 14
_MAX_SIMULATED_DOCS = 1000


def brute_force_min_bins(lengths: Sequence[int], capacity: int) -> int:
    """Exact minimum number of capacity-bounded bins for the given item
    lengths.

    Branch and bound over items in decreasing order: each item is tried
    in every open bin with room (bins with equal residuals are
    interchangeable, so only one per residual value is explored) and in
    one fresh bin, pruning branches that cannot beat the best complete
    assignment found so far.
    """
    if len(lengths) > _MAX_EXHAUSTIVE_ITEMS:
        raise ConfigError(
            f"instance too large for exhaustive search "
            f"(max {_MAX_EXHAUSTIVE_ITEMS} items, got {len(lengths)})"
        )
    for n in lengths:
        if n < 1:
            raise ConfigError(f"item lengths must be positive, got {n}")
        if n > capacity:
            raise ConfigError(f"item of length {n} exceeds capacity {capacity}")
    items = sorted(lengths, reverse=True)
    if not items:
        return 0

    suffix = [0] * (len(items) + 1)
    for i in range(len(items) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + items[i]

    best = len(items)
    residuals: list[int] = []

    def search(i: int) -> None:
        nonlocal best
        if i == len(items):
            best = min(best, len(residuals))
            return
        free = sum(residuals)
        needed = suffix[i] - free
        lower = len(residuals) + max(0, -(-needed // capacity))
        if lower >= best:
            return
        item = items[i]
        tried: set[int] = set()
        for j, r in enumerate(residuals):
            if r >= item and r not in tried:
                tried.add(r)
                residuals[j] = r - item
                search(i + 1)
                residuals[j] = r
        residuals.append(capacity - item)
        search(i + 1)
        residuals.pop()

    search(0)
    return best


def _effective(n: int, sep: bool, L: int) -> int:
    # mirror of the engine's capacity charge, restated here on purpose
    if sep and n + 1 <= L:
        return n + 1
    return n


def _metrics(sample_count: int, L: int, fragmented: int, padding: int, docs: int) -> PackingMetrics:
    total = sample_count * L
    frag_rate = fragmented / docs if docs else 0.0
    pad_rate = padding / total if total else 0.0
    return PackingMetrics(sample_count, total, fragmented, padding, frag_rate, pad_rate)


def simulate_reference(
    docs: Sequence[DocumentRecord], cfg: PackingConfig, strategy: Strategy | str
) -> PackingMetrics:
    """Straight-line re-derivation of one strategy's metrics on an
    already-preprocessed corpus (every document must fit a sample for
    the strategies that require it)."""
    if len(docs) > _MAX_SIMULATED_DOCS:
        raise ConfigError(
            f"reference simulation capped at {_MAX_SIMULATED_DOCS} documents"
        )
    strategy = Strategy(strategy)
    L = cfg.context_length
    sep = cfg.sep_after_every_doc
    n_docs = len(docs)

    if strategy is Strategy.CONCAT_THEN_SPLIT:
        stream: list[str | None] = []
        for d in docs:
            stream.extend([d.doc_id] * d.length)
            if sep:
                stream.append(None)
        if cfg.drop_final_partial:
            sample_count = len(stream) // L
            padding = 0
        else:
            sample_count = -(-len(stream) // L)
            padding = sample_count * L - len(stream)
        kept = stream[: sample_count * L if cfg.drop_final_partial else len(stream)]
        per_chunk: dict[tuple[str, int], int] = {}
        for pos, tok in enumerate(kept):
            if tok is not None:
                key = (tok, pos // L)
                per_chunk[key] = per_chunk.get(key, 0) + 1
        lengths = {d.doc_id: d.length for d in docs}
        fragmented = len(
            {doc_id for (doc_id, _), cnt in per_chunk.items() if cnt < lengths[doc_id]}
        )
        return _metrics(sample_count, L, fragmented, padding, n_docs)

    for d in docs:
        if d.length > L:
            raise ConfigError(
                f"document {d.doc_id!r} (length {d.length}) exceeds sample "
                f"capacity {L}; apply a long-document policy"
            )

    if strategy is Strategy.RESTART_LAST_DOCUMENT:
        closed = 0
        cur: list[str | None] = []
        partials: list[tuple[str, int]] = []  # (doc_id, sample index of the fragment)
        for d in docs:
            n = d.length
            eff = _effective(n, sep, L)
            room = L - len(cur)
            if eff > room:
                if room == n:
                    cur.extend([d.doc_id] * n)
                    closed += 1
                    cur = []
                    continue
                cur.extend([d.doc_id] * room)
                partials.append((d.doc_id, closed))
                closed += 1
                cur = []
            cur.extend([d.doc_id] * n)
            if eff > n:
                cur.append(None)
            if len(cur) == L:
                closed += 1
                cur = []
        padding = 0
        sample_count = closed
        if cur and not cfg.drop_final_partial:
            padding = L - len(cur)
            sample_count += 1
        fragmented = len({doc_id for doc_id, at in partials if at < sample_count})
        return _metrics(sample_count, L, fragmented, padding, n_docs)

    if strategy is Strategy.PAD_LAST_DOCUMENT:
        sample_count = 0
        padding = 0
        fill = 0
        for d in docs:
            eff = _effective(d.length, sep, L)
            if eff > L - fill:
                padding += L - fill
                sample_count += 1
                fill = 0
            fill += eff
            if fill == L:
                sample_count += 1
                fill = 0
        if fill:
            padding += L - fill
            sample_count += 1
        return _metrics(sample_count, L, 0, padding, n_docs)

    samples = reference_best_fit(docs, cfg)
    padding = sum(L - _used(placements, separators) for placements, separators in samples)
    return _metrics(len(samples), L, 0, padding, n_docs)


def _used(placements, separators) -> int:
    return sum(end - start for _, start, end, _ in placements) + len(separators)


def reference_best_fit(docs: Sequence[DocumentRecord], cfg: PackingConfig) -> list[tuple[tuple, tuple]]:
    """The best_fit plan of an already-preprocessed corpus, by naive
    quadratic best-fit over open bins: each sample as ``(placements,
    separators)``, its placements ``(doc_id, start, end, offset)`` rows in
    the order the documents went in, back to back from offset 0."""
    L = cfg.context_length
    sep = cfg.sep_after_every_doc
    order = list(docs)
    if not cfg.online:
        order.sort(key=lambda d: (-_effective(d.length, sep, L), d.doc_id))
    bins: list[list[DocumentRecord]] = []
    residuals: list[int] = []
    for d in order:
        eff = _effective(d.length, sep, L)
        best_j = -1
        best_r = L + 1
        for j, r in enumerate(residuals):
            if eff <= r < best_r:
                best_j, best_r = j, r
        if best_j < 0:
            bins.append([d])
            residuals.append(L - eff)
        else:
            bins[best_j].append(d)
            residuals[best_j] -= eff
    samples = []
    for members in bins:
        placements, separators, pos = [], [], 0
        for d in members:
            placements.append((d.doc_id, 0, d.length, pos))
            pos += d.length
            if _effective(d.length, sep, L) > d.length:
                separators.append(pos)
                pos += 1
        samples.append((tuple(placements), tuple(separators)))
    return samples


def reference_collision(docs: Sequence[DocumentRecord], cfg: PackingConfig) -> str | None:
    """The message of the split or slide policy's derived-id collision on
    ``docs``, or ``None``: every output id in order (a document over the
    context length gives way to its chunks ``id#0``, ``id#1``, …), one set
    over them, and the first id seen a second time named."""
    L = cfg.context_length
    if all(d.length <= L for d in docs):
        return None
    out: list[str] = []
    for d in docs:
        if d.length <= L:
            out.append(d.doc_id)
            continue
        if cfg.long_doc_policy == "slide":
            stride = L - cfg.slide_overlap
            chunks, start = 1, 0
            while start + L < d.length:  # a window short of the end: one more
                start += stride
                chunks += 1
        else:
            chunks = -(-d.length // L)
        out.extend(f"{d.doc_id}#{k}" for k in range(chunks))
    if len(set(out)) == len(out):
        return None
    seen: set[str] = set()
    for doc_id in out:
        if doc_id in seen:
            return f"derived chunk id {doc_id!r} collides with another document"
        seen.add(doc_id)
    raise AssertionError("unreachable")


def _reference_record(line_no: int, line: str) -> DocumentRecord:
    try:
        if not line.isascii():
            line.encode("utf-8")  # bytes that are not UTF-8 were read as lone surrogates
        obj = json.loads(line)
    except (ValueError, RecursionError):
        raise CorpusError(f"line {line_no}: malformed record") from None
    if not isinstance(obj, dict):
        raise CorpusError(f"line {line_no}: malformed record")
    doc_id = obj.get("doc_id")
    length = obj.get("length")
    if doc_id is None or length is None:
        raise CorpusError(f"line {line_no}: record needs doc_id and length")
    if isinstance(doc_id, int) and not isinstance(doc_id, bool):
        doc_id = str(doc_id)
    if not isinstance(doc_id, str):
        raise CorpusError(f"line {line_no}: doc_id must be a string")
    if not isinstance(length, int) or isinstance(length, bool):
        raise CorpusError(f"line {line_no}: length must be an integer")
    if length < 1:
        raise CorpusError(f"line {line_no}: non-positive length for {doc_id!r}")
    if "token_file" not in obj and "offset" not in obj:
        return DocumentRecord(doc_id, length)
    token_file = obj.get("token_file")
    offset = obj.get("offset")
    if not isinstance(token_file, str) or type(offset) is not int or offset < 0:
        raise CorpusError(f"line {line_no}: invalid token_file/offset for {doc_id!r}")
    return DocumentRecord(doc_id, length, token_file, offset)


def reference_ingest(path: str | Path, mode: str) -> list[DocumentRecord]:
    """The records of a corpus file, or the ``CorpusError`` of its first
    bad line: one ``json.loads`` per stripped non-blank line, then the
    record's checks, the duplicate id and, in full mode, its token
    reference against the store's size."""
    path = Path(path)
    records: list[DocumentRecord] = []
    seen: set[str] = set()
    sizes: dict[str, int] = {}
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            rec = _reference_record(line_no, line)
            doc_id, token_file = rec.doc_id, rec.token_file
            if doc_id in seen:
                raise CorpusError(f"line {line_no}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            if mode == "full":
                bad = f"line {line_no}: unresolvable token_ref for {doc_id!r}: "
                if token_file is None:
                    raise CorpusError(
                        f"line {line_no}: full mode requires token_file/offset for {doc_id!r}"
                    )
                size = sizes.get(token_file)
                if size is None:
                    try:
                        st = os.stat(path.parent / token_file)
                    except OSError:
                        raise CorpusError(bad + f"missing store {token_file!r}") from None
                    if not stat.S_ISREG(st.st_mode):
                        raise CorpusError(bad + f"store {token_file!r} is not a regular file")
                    size = st.st_size
                    if size % 4:
                        raise CorpusError(bad + f"store size {size} is not a multiple of 4")
                    sizes[token_file] = size
                if rec.offset % 4:
                    raise CorpusError(bad + f"offset {rec.offset} not 4-byte aligned")
                if rec.offset + 4 * rec.length > size:
                    raise CorpusError(bad + f"span exceeds store size {size}")
            records.append(rec)
    return records
