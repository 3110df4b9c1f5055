"""The four packing strategies.

Every strategy maps an ordered corpus plus a config to a manifest: the
complete plan of which document tokens land where in which sample.
All four are deterministic — identical corpus order and config give an
identical manifest.

Capacity accounting is shared: a document charges its token count plus
one trailing separator (see :func:`seqpack.model.effective_length`).
concat_then_split, restart_last_document and pad_last_document fill
samples in corpus order with one loop and differ only in what happens
to a document that does not fit the open sample (``_fill_sequential``);
best_fit places whole documents by bin packing (``_best_fit``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush

from .longdoc import apply_policy
from .metrics import compute_metrics
from .model import (
    _Placement,
    ConfigError,
    CorpusSummary,
    DocumentRecord,
    PackedSample,
    PackingConfig,
    PackingManifest,
    Strategy,
    effective_length,
)
from .verify import _MAX_PLACEMENTS

__all__ = ["pack_corpus"]

# what a planner returns: the samples and the discarded tail token count
_Plan = tuple[list[PackedSample], int]


def _fill_sequential(docs: list[DocumentRecord], cfg: PackingConfig) -> _Plan:
    """Fill samples in corpus order, one open sample at a time.

    The three sequential strategies differ only in the overflow rule,
    for a document (with its separator) that does not fit the room left
    in the open sample:

    - concat_then_split: the prefix that fits stays and the rest goes on
      at offset 0 of the next sample.  Every separator is kept, so one
      may open a sample.
    - restart_last_document: the prefix that fits stays behind as a tail
      fragment and the document restarts at the head of the next
      sample; if its tokens land flush on the boundary it completes
      there instead, separator elided, so no sample begins mid-document.
    - pad_last_document: the room left becomes padding and the document
      starts the next sample whole, so no document fragments.

    Under ``drop_final_partial`` the final partial sample is discarded
    (its token count is returned), except under pad_last_document,
    which always keeps it.
    """
    L = cfg.context_length
    cts = cfg.strategy is Strategy.CONCAT_THEN_SPLIT
    pad = cfg.strategy is Strategy.PAD_LAST_DOCUMENT
    sep_cost = cfg.separator_cost

    samples: list[PackedSample] = []
    cur_pl: list[_Placement] = []
    cur_sep: list[int] = []
    pos = 0

    def close() -> None:
        nonlocal cur_pl, cur_sep, pos
        samples.append(PackedSample(tuple(cur_pl), tuple(cur_sep)))
        cur_pl, cur_sep, pos = [], [], 0

    for doc in docs:
        n = doc.length
        eff = n + sep_cost if cts else effective_length(n, cfg)
        rem = L - pos
        start = 0
        if eff > rem:
            if pad:
                close()
            elif rem < n or not cts:
                # the prefix that fits stays: a fragment, or under restart the
                # whole document flush; a cts document that overflows by its
                # separator alone is placed whole below
                cur_pl.append((doc.doc_id, 0, rem, pos))
                close()
                if cts:
                    start = rem
                elif rem == n:
                    continue
        cur_pl.append((doc.doc_id, start, n, pos))
        pos += n - start
        if eff > n:
            if pos == L:  # only a cts separator lands past a flush document
                close()
            cur_sep.append(pos)
            pos += 1
        if pos == L:
            close()

    discarded = 0
    if pos > 0:
        if cfg.drop_final_partial and not pad:
            discarded = pos
        else:
            close()
    return samples, discarded


def _best_fit(docs: list[DocumentRecord], cfg: PackingConfig) -> _Plan:
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
    placements: list[list[_Placement]] = []
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
        placements[sample_id].append((doc.doc_id, 0, n, pos))
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
    return samples, 0


def pack_corpus(docs: list[DocumentRecord], cfg: PackingConfig) -> PackingManifest:
    """Plan a corpus as read: apply the configured long-document policy,
    pack with the configured strategy, and record any dropped documents
    on the manifest.  ``verify_manifest`` checks it against the same
    corpus.

    This is the only way in to the planners.  The policy runs first, so
    every document a planner sees fits one sample: a concat_then_split
    document crosses at most one sample boundary, and the whole-document
    strategies can always place it.  A sample with more placements than
    the sample format records, which emit would refuse, is a ``ConfigError``.
    """
    retained, dropped = apply_policy(docs, cfg)
    planner = _best_fit if cfg.strategy is Strategy.BEST_FIT else _fill_sequential
    samples, discarded = planner(retained, cfg)
    for i, sample in enumerate(samples):
        count = len(sample.placements)
        if count > _MAX_PLACEMENTS:
            raise ConfigError(f"sample {i}: {count} placements; "
                              f"the boundary plane holds at most {_MAX_PLACEMENTS}")
    summary = CorpusSummary(len(retained), sum(d.length for d in retained), dropped)
    metrics = compute_metrics(samples, retained, cfg.context_length)
    return PackingManifest(cfg, summary, tuple(samples), metrics, discarded)
