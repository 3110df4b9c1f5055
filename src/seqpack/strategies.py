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

from array import array
from bisect import bisect_left, insort
from heapq import heappop, heappush
from itertools import pairwise
from typing import Iterable

from .longdoc import apply_policy
from .metrics import compute_metrics
from .model import (
    _MAX_PLACEMENTS,
    ConfigError,
    CorpusSummary,
    CorpusTable,
    DocumentRecord,
    PackingConfig,
    PackingManifest,
    PlanTable,
    Strategy,
    _counts,
    _group,
    effective_length,
)

__all__ = ["pack_corpus"]

# what a planner returns: the plan, whose document column indexes the
# planner's input, and the discarded tail token count
_Plan = tuple[PlanTable, int]


def _fill_sequential(docs: CorpusTable, cfg: PackingConfig) -> _Plan:
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

    plan = PlanTable(docs.ids)
    add_doc, add_start, add_end, add_offset = (
        plan.doc.append, plan.start.append, plan.end.append, plan.offset.append
    )
    add_separator = plan.separators.append
    pos = 0

    def place(k: int, start: int, end: int) -> None:
        add_doc(k)
        add_start(start)
        add_end(end)
        add_offset(pos)

    def close() -> None:
        nonlocal pos
        plan.end_sample()
        pos = 0

    for k, n in enumerate(docs.lengths):
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
                place(k, 0, rem)
                close()
                if cts:
                    start = rem
                elif rem == n:
                    continue
        place(k, start, n)
        pos += n - start
        if eff > n:
            if pos == L:  # only a cts separator lands past a flush document
                close()
            add_separator(pos)
            pos += 1
        if pos == L:
            close()

    discarded = 0
    if pos > 0:
        if cfg.drop_final_partial and not pad:
            discarded = pos
            plan.drop_open_sample()
        else:
            close()
    return plan, discarded


def _best_fit(docs: CorpusTable, cfg: PackingConfig) -> _Plan:
    """Whole-document bin packing: each document goes into the open
    sample with the least remaining room that still fits it entirely,
    or opens a new sample when none fits.

    Documents are taken in order of decreasing effective length (ties
    by ascending doc_id) unless ``cfg.online`` asks for corpus order.
    No document ever fragments; sample residuals become padding.
    """
    L = cfg.context_length
    lengths = docs.lengths
    effs = [effective_length(n, cfg) for n in lengths]

    order = range(len(docs))
    if not cfg.online:
        # (-eff, doc_id) order by two stable sorts: by id, then by length
        order = sorted(order, key=docs.ids.__getitem__)
        order.sort(key=effs.__getitem__, reverse=True)

    # live: the residuals that have an open sample, sorted, so the
    # smallest one that fits is a bisect away; open_at[r]: a min-heap of
    # the open sample ids with residual r.  Ties go to the lowest id, the
    # one a scan of the open samples in opening order finds first, so the
    # plan is fixed by the processing order alone.
    live: list[int] = []
    open_at: dict[int, list[int]] = {}
    fills: list[int] = []
    # per document in processing order: its sample
    sample_of = array("q")
    for k in order:
        eff = effs[k]
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
        sample_of.append(sample_id)
        fill = fills[sample_id] + eff
        fills[sample_id] = fill
        if fill < L:
            residual = L - fill
            heap = open_at.get(residual)
            if heap is None:
                open_at[residual] = [sample_id]
                insort(live, residual)
            else:
                heappush(heap, sample_id)

    # group the rows by sample with one stable counting sort, so each
    # sample keeps its rows in placement order
    plan = PlanTable(docs.ids)
    plan.first, by_sample = _group(sample_of, len(fills))
    plan.doc = array("q", map(order.__getitem__, by_sample))
    plan.start = array("q", bytes(8 * len(by_sample)))
    plan.end = array("q", map(lengths.__getitem__, plan.doc))
    # a sample's rows lie back to back, each taking its effective length
    for a, b in pairwise(plan.first):
        pos = 0
        for k in plan.doc[a:b]:
            plan.offset.append(pos)
            if effs[k] > lengths[k]:
                plan.separators.append(pos + lengths[k])
            pos += effs[k]
        plan.sep_first.append(len(plan.separators))
    return plan, 0


def pack_corpus(docs: CorpusTable | Iterable[DocumentRecord], cfg: PackingConfig) -> PackingManifest:
    """Plan a corpus as read: apply the configured long-document policy,
    pack with the configured strategy, and record any dropped documents
    on the manifest.  ``verify_manifest`` accepts only this manifest for
    the same corpus.

    This is the only way in to the planners.  The policy runs first, so
    every document a planner sees fits one sample: a concat_then_split
    document crosses at most one sample boundary, and the whole-document
    strategies can always place it.  A sample with more placements than
    the sample format records, which emit would refuse, is a ``ConfigError``.
    """
    return _planned(*apply_policy(docs, cfg), cfg)


def _planned(retained: CorpusTable, dropped: tuple, cfg: PackingConfig) -> PackingManifest:
    """``pack_corpus`` after its policy pass, given the pass's output."""
    planner = _best_fit if cfg.strategy is Strategy.BEST_FIT else _fill_sequential
    plan, discarded = planner(retained, cfg)
    for i, count in enumerate(_counts(plan.first)):
        if count > _MAX_PLACEMENTS:
            raise ConfigError(f"sample {i}: {count} placements; "
                              f"the boundary plane holds at most {_MAX_PLACEMENTS}")
    summary = CorpusSummary(len(retained), sum(retained.lengths), dropped)
    metrics = compute_metrics(plan, retained, cfg.context_length)
    return PackingManifest(cfg, summary, plan, metrics, discarded)
