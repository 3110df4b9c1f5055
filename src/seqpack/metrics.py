"""Packing quality metrics and strategy comparison.

Two rates summarize a packing plan: the share of retained documents
that were fragmented (any placement covering a strict subset of the
document), and the share of training tokens that are padding.  Both
are derived from exact integer counters kept on the manifest.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import compress
from typing import Iterable, Sequence

from .longdoc import apply_policy
from .model import (
    ConfigError,
    CorpusTable,
    DocumentRecord,
    PackingConfig,
    PackingMetrics,
    PlanTable,
    Strategy,
    _corpus,
)

__all__ = [
    "compute_metrics",
    "scaled_token_budget",
    "StrategyComparison",
    "compare_strategies",
]


def compute_metrics(
    samples: PlanTable,
    documents: CorpusTable | Iterable[DocumentRecord],
    context_length: int,
) -> PackingMetrics:
    """Derive the metric counters for a packing plan.

    A document (one entry of ``samples.ids``) counts as fragmented (at
    most once) when any of its placements covers fewer tokens than the
    document has; every token a sample does not occupy is padding.  A
    placement of a document missing from ``documents`` raises ``KeyError``.
    """
    documents = _corpus(documents)
    if samples.ids is documents.ids:  # a planner's plan indexes the table's rows
        length_of = documents.lengths
    else:
        lengths = dict(zip(documents.ids, documents.lengths))
        length_of = [lengths.get(doc_id) for doc_id in samples.ids]
    return _plan_metrics(samples, length_of, len(documents), context_length)


def _plan_metrics(
    samples: PlanTable, length_of: Sequence[int | None], document_count: int, context_length: int
) -> PackingMetrics:
    """``compute_metrics`` given each document's length by its index in
    ``samples.ids`` (``None`` for a document the corpus lacks) and the
    corpus's document count."""
    # flag the document of every placement shorter than its document; an
    # unknown document (length None) never matches, so it is flagged too
    placed = map(operator.sub, samples.end, samples.start)
    short = map(operator.ne, placed, map(length_of.__getitem__, samples.doc))
    fragmented = bytearray(len(length_of))
    for k in compress(samples.doc, short):
        fragmented[k] = 1
    for n in compress(length_of, fragmented):
        if n is None:
            raise KeyError("placements reference a document missing from documents")
    fragmented_count = fragmented.count(1)
    sample_count = len(samples)
    total = sample_count * context_length
    padding = total - samples.occupied_tokens()
    frag_rate = fragmented_count / document_count if document_count else 0.0
    pad_rate = padding / total if total else 0.0
    return PackingMetrics(sample_count, total, fragmented_count, padding, frag_rate, pad_rate)


def scaled_token_budget(base_tokens: int, padding_rate: float) -> int:
    """Token budget needed to keep the same non-padding token count when
    a share of every sample is padding: ``base / (1 - rate)``, rounded
    to the nearest token."""
    if not 0.0 <= padding_rate < 1.0:
        raise ConfigError(f"padding_rate must be in [0, 1), got {padding_rate}")
    return round(base_tokens / (1.0 - padding_rate))


# the manifest metrics fields a comparison row shows, in JSON key order
_ROW_FIELDS = ("sample_count", "total_training_tokens", "fragmentation_rate", "padding_rate")


@dataclass(frozen=True, slots=True)
class StrategyComparison:
    """Side-by-side metrics for several strategies on one corpus: one
    ``(strategy, metrics)`` row per strategy, in the requested order."""

    rows: tuple[tuple[Strategy, PackingMetrics], ...]

    def as_rows(self) -> list[dict]:
        """Machine-readable rows using the manifest metrics field names."""
        return [
            {"strategy": strategy.value, **{name: getattr(m, name) for name in _ROW_FIELDS}}
            for strategy, m in self.rows
        ]

    def render(self) -> str:
        """Aligned plain-text table; fragmentation shown with one
        decimal, padding with two (both as percentages)."""
        header = ("strategy", "samples", "tokens", "frag%", "pad%")
        body = [
            (
                strategy.value,
                str(m.sample_count),
                str(m.total_training_tokens),
                f"{100.0 * m.fragmentation_rate:.1f}",
                f"{100.0 * m.padding_rate:.2f}",
            )
            for strategy, m in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = []
        for row in (header, *body):
            cells = [row[0].ljust(widths[0])]
            cells += [row[i].rjust(widths[i]) for i in range(1, len(header))]
            lines.append("  ".join(cells).rstrip())
        return "\n".join(lines)


def compare_strategies(
    docs: CorpusTable | Iterable[DocumentRecord],
    cfg: PackingConfig,
    strategies: Iterable[Strategy],
) -> StrategyComparison:
    """Pack one corpus with several strategies under one config and
    tabulate the metrics; rows keep the requested order.  The
    long-document policy runs first; every retained row fits a sample, so
    the policy pass inside each ``pack_corpus`` returns the table as it is.
    A table the caller passed as a temporary is let go once the policy
    returns."""
    from . import strategies as _strategies  # deferred: strategies imports this module

    retained, _ = apply_policy(docs, cfg)
    del docs
    rows = []
    for strategy in strategies:
        strategy = Strategy(strategy)
        row_cfg = replace(
            cfg,
            strategy=strategy,
            online=cfg.online if strategy is Strategy.BEST_FIT else False,
        )
        rows.append((strategy, _strategies.pack_corpus(retained, row_cfg).metrics))
    return StrategyComparison(tuple(rows))
