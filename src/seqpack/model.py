"""Core value types for fixed-length sample packing.

A corpus of tokenized documents is arranged into training samples of
exactly ``context_length`` tokens.  Everything downstream (strategies,
metrics, verification, emission) is built from the small immutable
types defined here, so a packing plan can be shared, serialized, and
re-checked without touching token content.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "PackingError",
    "ConfigError",
    "CorpusError",
    "ManifestError",
    "EmitError",
    "DecodeError",
    "Strategy",
    "LongDocPolicy",
    "TokenRef",
    "DocumentRecord",
    "PackingConfig",
    "Placement",
    "PackedSample",
    "CorpusSummary",
    "PackingMetrics",
    "PackingManifest",
    "effective_length",
]


class PackingError(Exception):
    """Base class for every failure raised by this package."""


class ConfigError(PackingError):
    """Invalid configuration value or flag combination."""


class CorpusError(PackingError):
    """Malformed or inconsistent corpus input."""


class ManifestError(PackingError):
    """Manifest text cannot be parsed or fails schema checks."""


class EmitError(PackingError):
    """Sample emission failed (token lookup, corpus mismatch, format limits)."""


class DecodeError(PackingError):
    """A packed sample stream cannot be decoded or fails integrity checks."""


class Strategy(str, Enum):
    """How documents are arranged into fixed-length samples."""

    CONCAT_THEN_SPLIT = "concat_then_split"
    RESTART_LAST_DOCUMENT = "restart_last_document"
    PAD_LAST_DOCUMENT = "pad_last_document"
    BEST_FIT = "best_fit"


class LongDocPolicy(str, Enum):
    """Pre-handling for documents longer than the context length."""

    SPLIT = "split"
    SLIDE = "slide"
    DROP = "drop"


_TOKEN_BYTES = 4  # size of one stored token id, see TokenRef


@dataclass(frozen=True, slots=True)
class TokenRef:
    """Locator for a document's token ids inside a flat binary store.

    ``offset`` is a byte offset into ``file``, which holds unsigned
    32-bit little-endian token ids; the referenced span is as long as
    the owning document.
    """

    file: str
    offset: int


@dataclass(frozen=True, slots=True)
class DocumentRecord:
    """One tokenized document: an opaque id, a token count, and an
    optional locator for the actual token ids (lengths-only corpora
    carry ``token_ref=None``)."""

    doc_id: str
    length: int
    token_ref: TokenRef | None = None


@dataclass(frozen=True, slots=True)
class PackingConfig:
    """Everything that determines a packing run.

    Identical config plus identical corpus order must yield a
    byte-identical manifest; anything that can change the plan lives
    here so the manifest can embed it.
    """

    context_length: int
    strategy: Strategy
    long_doc_policy: LongDocPolicy = LongDocPolicy.SPLIT
    slide_overlap: int | None = None
    separator_id: int = 1
    padding_id: int = 0
    sep_after_every_doc: bool = True
    drop_final_partial: bool = True
    online: bool = False

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "strategy", Strategy(self.strategy))
        except ValueError:
            raise ConfigError(f"unknown strategy {self.strategy!r}") from None
        try:
            object.__setattr__(self, "long_doc_policy", LongDocPolicy(self.long_doc_policy))
        except ValueError:
            raise ConfigError(
                f"unknown long-document policy {self.long_doc_policy!r}"
            ) from None
        # the ids and the context length are uint32 fields of the sample format
        for name in ("context_length", "separator_id", "padding_id"):
            value = getattr(self, name)
            if type(value) is not int or not 0 <= value < 2**32:
                raise ConfigError(f"{name} must be an integer in [0, 2**32), got {value!r}")
        if self.slide_overlap is not None and type(self.slide_overlap) is not int:
            raise ConfigError(f"slide_overlap must be an integer, got {self.slide_overlap!r}")
        for name in ("sep_after_every_doc", "drop_final_partial", "online"):
            value = getattr(self, name)
            if type(value) is not bool:
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        if self.context_length < 2:
            raise ConfigError(
                f"context_length must be at least 2, got {self.context_length}"
            )
        if self.separator_id == self.padding_id:
            raise ConfigError("separator_id and padding_id must differ")
        if self.long_doc_policy is LongDocPolicy.SLIDE:
            if self.slide_overlap is None:
                raise ConfigError("slide policy requires slide_overlap")
            if not 1 <= self.slide_overlap <= self.context_length - 1:
                raise ConfigError(
                    f"slide_overlap must be in [1, {self.context_length - 1}], "
                    f"got {self.slide_overlap}"
                )
        elif self.slide_overlap is not None:
            raise ConfigError("slide_overlap applies only to the slide policy")
        if self.online and self.strategy is not Strategy.BEST_FIT:
            raise ConfigError("online placement applies only to the best_fit strategy")

    @property
    def separator_cost(self) -> int:
        return 1 if self.sep_after_every_doc else 0


def effective_length(length: int, cfg: PackingConfig) -> int:
    """Capacity charged for one document: its tokens plus the trailing
    separator, except that the separator is elided when the document
    alone already fills a whole sample."""
    if cfg.sep_after_every_doc and length + 1 <= cfg.context_length:
        return length + 1
    return length


@dataclass(frozen=True, slots=True)
class Placement:
    """One contiguous piece of a document inside one sample.

    ``start``/``end`` are a half-open token interval within the
    document; ``offset`` is where that interval begins inside the
    sample that holds this placement.
    """

    doc_id: str
    start: int
    end: int
    offset: int


@dataclass(frozen=True, slots=True)
class PackedSample:
    """One fixed-length training sample: placements and separator token
    positions.  A sample's index is its position in the manifest, and
    its padding is the suffix ``[occupied_tokens, context_length)``."""

    placements: tuple[Placement, ...]
    separator_positions: tuple[int, ...] = ()

    @property
    def occupied_tokens(self) -> int:
        occupied = len(self.separator_positions)
        for p in self.placements:  # a loop: manifest IO calls this per sample
            occupied += p.end - p.start
        return occupied


@dataclass(frozen=True, slots=True)
class CorpusSummary:
    """Counts for the corpus a manifest was packed from (after the
    long-document policy ran): retained documents, their token total,
    and the ids removed by the drop policy."""

    document_count: int
    total_tokens: int
    dropped: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class PackingMetrics:
    """Quality counters for one packing run.

    The integer counters are authoritative; the two rates are derived
    from them (fragmented documents over retained documents, padding
    tokens over all training tokens).
    """

    sample_count: int
    total_training_tokens: int
    fragmented_doc_count: int
    padding_token_count: int
    fragmentation_rate: float
    padding_rate: float


@dataclass(frozen=True, slots=True)
class PackingManifest:
    """The complete, verifiable packing plan: config, corpus summary,
    every sample with its placements, and the resulting metrics.

    ``discarded_tail_tokens`` counts tokens cut off when an incomplete
    final sample is dropped (always zero for strategies that pad).
    """

    config: PackingConfig
    documents: CorpusSummary
    samples: tuple[PackedSample, ...]
    metrics: PackingMetrics
    discarded_tail_tokens: int = 0
