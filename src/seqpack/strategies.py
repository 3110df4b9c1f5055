"""The four packing strategies.

Every strategy maps an ordered corpus plus a config to a manifest: the
complete plan of which document tokens land where in which sample.
All four are deterministic — identical corpus order and config give an
identical manifest.

Capacity accounting is shared: a document charges its token count plus
one trailing separator (see :func:`seqpack.model.effective_length`).
The three whole-document strategies charge it to its document's sample;
concat_then_split cuts the stream, separators included.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import replace
from heapq import heappop, heappush

from .longdoc import apply_policy
from .metrics import compute_metrics
from .model import (
    CorpusSummary,
    DocumentRecord,
    PackedSample,
    PackingConfig,
    PackingManifest,
    Placement,
    Strategy,
    effective_length,
)

__all__ = ["pack_corpus"]


def _finish(
    docs: list[DocumentRecord],
    cfg: PackingConfig,
    samples: list[PackedSample],
    discarded: int,
) -> PackingManifest:
    summary = CorpusSummary(len(docs), sum(d.length for d in docs))
    metrics = compute_metrics(samples, docs, cfg.context_length)
    return PackingManifest(cfg, summary, tuple(samples), metrics, discarded)


def _concat_then_split(docs: list[DocumentRecord], cfg: PackingConfig) -> PackingManifest:
    """Concatenate the whole corpus into one virtual stream and cut it
    at multiples of the context length.

    Zero padding by construction; documents straddling a cut fragment.
    The incomplete final chunk is dropped under ``drop_final_partial``
    (the discarded token count is recorded on the manifest), otherwise
    it is kept and padded.
    """
    L = cfg.context_length
    sep_cost = cfg.separator_cost

    spans: list[tuple[DocumentRecord, int]] = []
    pos = 0
    for doc in docs:
        spans.append((doc, pos))
        pos += doc.length + sep_cost
    stream_len = pos

    if cfg.drop_final_partial:
        sample_count = stream_len // L
        retained = sample_count * L
    else:
        sample_count = -(-stream_len // L)
        retained = stream_len

    placements: list[list[Placement]] = [[] for _ in range(sample_count)]
    separators: list[list[int]] = [[] for _ in range(sample_count)]
    for doc, s in spans:
        end = min(s + doc.length, retained)
        cursor = s
        while cursor < end:
            idx = cursor // L
            seg_end = min(end, (idx + 1) * L)
            placements[idx].append(
                Placement(doc.doc_id, cursor - s, seg_end - s, cursor - idx * L)
            )
            cursor = seg_end
        if sep_cost:
            p = s + doc.length
            if p < retained:
                separators[p // L].append(p % L)

    samples = [
        PackedSample(tuple(pls), tuple(seps)) for pls, seps in zip(placements, separators)
    ]
    return _finish(docs, cfg, samples, stream_len - retained)


def _fill_sequential(docs: list[DocumentRecord], cfg: PackingConfig) -> PackingManifest:
    """Fill samples in corpus order, one open sample at a time.

    The two sequential strategies differ only in the overflow rule, for
    a document (with its separator) that does not fit the room left in
    the open sample.  Under restart_last_document the prefix that fits
    stays behind as a tail fragment and the document restarts at the
    head of the next sample; if its tokens land flush on the boundary it
    completes there instead, separator elided, so no sample begins
    mid-document.  Under pad_last_document the room left becomes
    padding and the document starts the next sample whole, so no
    document fragments; the final partial sample is always kept.
    """
    L = cfg.context_length
    restart = cfg.strategy is Strategy.RESTART_LAST_DOCUMENT

    samples: list[PackedSample] = []
    cur_pl: list[Placement] = []
    cur_sep: list[int] = []
    pos = 0

    def close() -> None:
        nonlocal cur_pl, cur_sep, pos
        samples.append(PackedSample(tuple(cur_pl), tuple(cur_sep)))
        cur_pl, cur_sep, pos = [], [], 0

    for doc in docs:
        n = doc.length
        eff = effective_length(n, cfg)
        rem = L - pos
        if eff > rem:
            if restart:
                # rem <= n here: a tail fragment, or the whole document flush
                cur_pl.append(Placement(doc.doc_id, 0, rem, pos))
                close()
                if rem == n:
                    continue
            else:
                close()
        cur_pl.append(Placement(doc.doc_id, 0, n, pos))
        pos += n
        if eff > n:
            cur_sep.append(pos)
            pos += 1
        if pos == L:
            close()

    discarded = 0
    if pos > 0:
        if restart and cfg.drop_final_partial:
            discarded = pos
        else:
            close()
    return _finish(docs, cfg, samples, discarded)


def _best_fit(docs: list[DocumentRecord], cfg: PackingConfig) -> PackingManifest:
    """Whole-document bin packing: each document goes into the open
    sample with the least remaining room that still fits it entirely,
    or opens a new sample when none fits.

    Documents are taken in order of decreasing effective length (ties
    by ascending doc_id) unless ``cfg.online`` asks for corpus order.
    No document ever fragments; sample residuals become padding.
    """
    L = cfg.context_length

    items = docs
    if not cfg.online:
        items = sorted(docs, key=lambda d: (-effective_length(d.length, cfg), d.doc_id))

    # live: the residuals that have an open sample, sorted, so the
    # smallest one that fits is a bisect away; open_at[r]: a min-heap of
    # the open sample ids with residual r.  Ties go to the lowest id, the
    # one a scan of the open samples in opening order finds first, so the
    # plan is fixed by the processing order alone.
    live: list[int] = []
    open_at: dict[int, list[int]] = {}
    fills: list[int] = []
    placements: list[list[Placement]] = []
    separators: list[list[int]] = []
    for doc in items:
        n = doc.length
        eff = effective_length(n, cfg)
        j = bisect_left(live, eff)
        if j < len(live):
            heap = open_at[live[j]]
            sample_id = heappop(heap)
            if not heap:
                del open_at[live[j]]
                del live[j]
        else:
            sample_id = len(fills)
            fills.append(0)
            placements.append([])
            separators.append([])
        pos = fills[sample_id]
        placements[sample_id].append(Placement(doc.doc_id, 0, n, pos))
        if eff > n:
            separators[sample_id].append(pos + n)
        fill = pos + eff
        fills[sample_id] = fill
        if fill < L:
            residual = L - fill
            heap = open_at.get(residual)
            if heap is None:
                open_at[residual] = [sample_id]
                insort(live, residual)
            else:
                heappush(heap, sample_id)

    samples = [
        PackedSample(tuple(pls), tuple(seps)) for pls, seps in zip(placements, separators)
    ]
    return _finish(docs, cfg, samples, 0)


_DISPATCH = {
    Strategy.CONCAT_THEN_SPLIT: _concat_then_split,
    Strategy.RESTART_LAST_DOCUMENT: _fill_sequential,
    Strategy.PAD_LAST_DOCUMENT: _fill_sequential,
    Strategy.BEST_FIT: _best_fit,
}


def pack_corpus(docs: list[DocumentRecord], cfg: PackingConfig) -> PackingManifest:
    """Plan a corpus: apply the configured long-document policy, pack
    with the configured strategy, and record any dropped documents on
    the manifest.

    This is the only way in to the planners.  The policy runs first, so
    every document a planner sees fits one sample, which the three
    whole-document strategies rely on.
    """
    retained, dropped = apply_policy(docs, cfg)
    manifest = _DISPATCH[cfg.strategy](retained, cfg)
    if dropped:
        manifest = replace(
            manifest, documents=replace(manifest.documents, dropped=dropped)
        )
    return manifest
