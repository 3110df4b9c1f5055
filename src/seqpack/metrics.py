"""Packing quality metrics and strategy comparison.

Two rates summarize a packing plan: the share of retained documents
that were fragmented (any placement covering a strict subset of the
document), and the share of training tokens that are padding.  Both
are derived from exact integer counters kept on the manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .model import (
    ConfigError,
    DocumentRecord,
    PackedSample,
    PackingConfig,
    PackingMetrics,
    Strategy,
)

__all__ = [
    "compute_metrics",
    "scaled_token_budget",
    "StrategyRow",
    "StrategyComparison",
    "compare_strategies",
]


def compute_metrics(
    samples: Sequence[PackedSample],
    documents: Sequence[DocumentRecord],
    context_length: int,
) -> PackingMetrics:
    """Derive the metric counters for a set of packed samples.

    A document counts as fragmented (at most once) when any of its
    placements covers fewer tokens than the document has; every token
    a sample does not occupy is padding.
    """
    lengths = {d.doc_id: d.length for d in documents}
    fragmented: set[str] = set()
    occupied = 0
    for sample in samples:
        for p in sample.placements:
            n = p.end - p.start
            if n != lengths[p.doc_id]:
                fragmented.add(p.doc_id)
            occupied += n
        occupied += len(sample.separator_positions)
    sample_count = len(samples)
    total = sample_count * context_length
    padding = total - occupied
    frag_rate = len(fragmented) / len(documents) if documents else 0.0
    pad_rate = padding / total if total else 0.0
    return PackingMetrics(sample_count, total, len(fragmented), padding, frag_rate, pad_rate)


def scaled_token_budget(base_tokens: int, padding_rate: float) -> int:
    """Token budget needed to keep the same non-padding token count when
    a share of every sample is padding: ``base / (1 - rate)``, rounded
    to the nearest token."""
    if not 0.0 <= padding_rate < 1.0:
        raise ConfigError(f"padding_rate must be in [0, 1), got {padding_rate}")
    return round(base_tokens / (1.0 - padding_rate))


@dataclass(frozen=True, slots=True)
class StrategyRow:
    strategy: Strategy
    sample_count: int
    total_training_tokens: int
    fragmentation_rate: float
    padding_rate: float


@dataclass(frozen=True, slots=True)
class StrategyComparison:
    """Side-by-side metrics for several strategies on one corpus."""

    rows: tuple[StrategyRow, ...]

    def as_rows(self) -> list[dict]:
        """Machine-readable rows using the manifest metrics field names."""
        return [
            {
                "strategy": r.strategy.value,
                "sample_count": r.sample_count,
                "total_training_tokens": r.total_training_tokens,
                "fragmentation_rate": r.fragmentation_rate,
                "padding_rate": r.padding_rate,
            }
            for r in self.rows
        ]

    def render(self) -> str:
        """Aligned plain-text table; fragmentation shown with one
        decimal, padding with two (both as percentages)."""
        header = ("strategy", "samples", "tokens", "frag%", "pad%")
        body = [
            (
                r.strategy.value,
                str(r.sample_count),
                str(r.total_training_tokens),
                f"{100.0 * r.fragmentation_rate:.1f}",
                f"{100.0 * r.padding_rate:.2f}",
            )
            for r in self.rows
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
    docs: Sequence[DocumentRecord],
    cfg: PackingConfig,
    strategies: Iterable[Strategy],
) -> StrategyComparison:
    """Pack one corpus with several strategies under one config and
    tabulate the metrics; rows keep the requested order.  Errors from a
    strategy propagate with the failing row named."""
    from . import strategies as _strategies  # deferred: strategies imports this module

    docs = list(docs)
    rows = []
    for strategy in strategies:
        strategy = Strategy(strategy)
        row_cfg = replace(
            cfg,
            strategy=strategy,
            online=cfg.online if strategy is Strategy.BEST_FIT else False,
        )
        try:
            manifest = _strategies.pack_corpus(docs, row_cfg)
        except Exception as exc:
            raise type(exc)(f"{strategy.value}: {exc}") from exc
        m = manifest.metrics
        rows.append(
            StrategyRow(
                strategy,
                m.sample_count,
                m.total_training_tokens,
                m.fragmentation_rate,
                m.padding_rate,
            )
        )
    return StrategyComparison(tuple(rows))
