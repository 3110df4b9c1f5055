"""Core value types for fixed-length sample packing.

A corpus of tokenized documents is arranged into training samples of
exactly ``context_length`` tokens.  Everything downstream (strategies,
metrics, verification, emission) is built from the types defined here:
small immutable records, one ``CorpusTable`` of document columns, and one
``PlanTable`` whose samples every layer walks by iterating it, so a
packing plan can be shared, serialized, and re-checked without touching
token content.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, islice, repeat
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "PackingError",
    "ConfigError",
    "CorpusError",
    "ManifestError",
    "EmitError",
    "DecodeError",
    "Strategy",
    "LongDocPolicy",
    "DocumentRecord",
    "CorpusTable",
    "PackingConfig",
    "PlanTable",
    "CorpusSummary",
    "PackingMetrics",
    "PackingManifest",
    "effective_length",
]


class PackingError(Exception):
    """Base class for every failure raised by this package."""

    exit_code = 1  # the status seqpack exits with; a subclass inherits its parent's


class ConfigError(PackingError):
    """Invalid configuration value or flag combination."""


class CorpusError(PackingError):
    """Malformed or inconsistent corpus input."""

    exit_code = 2


class ManifestError(PackingError):
    """Manifest text cannot be parsed or fails schema checks."""

    exit_code = 2


class EmitError(PackingError):
    """Sample emission failed (token lookup, corpus mismatch, format limits)."""

    exit_code = 2


class DecodeError(PackingError):
    """A packed sample stream cannot be decoded or fails integrity checks."""

    exit_code = 2


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


_TOKEN_BYTES = 4  # size of one stored token id: an unsigned 32-bit little-endian int
_MAX_PLACEMENTS = 0xFFFF  # the sample format's uint16 boundary count


@dataclass(frozen=True, slots=True)
class DocumentRecord:
    """One tokenized document, as its corpus line: an opaque id, a token
    count, and for full-mode corpora the flat binary store holding its
    token ids with the byte offset of its first id there (lengths-only
    corpora carry ``token_file=None``)."""

    doc_id: str
    length: int
    token_file: str | None = None
    offset: int = 0


class CorpusTable:
    """A corpus as columns, one row per document in corpus order.

    Row ``r`` is document ``ids[r]`` of ``lengths[r]`` tokens (an
    ``array('q')``).  Its token reference, where it has one, is the byte
    offset ``offset[r]`` into the store ``files[file[r]]``; ``file[r]`` is
    -1 for a row without one.  The ``file`` and ``offset`` columns are
    empty while no row has a token reference, and hold one entry per row
    once one does.  ``len`` is the row count, and iterating the table is
    the one walk of its rows: each comes out as a ``DocumentRecord``.
    ``from_records`` builds a table from records.
    """

    __slots__ = ("ids", "lengths", "files", "file", "offset")

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.lengths, self.file, self.offset = array("q"), array("q"), array("q")
        self.files: list[str] = []

    @classmethod
    def from_records(cls, records: Iterable[DocumentRecord]) -> CorpusTable:
        """The table of ``records``, in their order; a record whose
        ``token_file`` is ``None`` has no token reference."""
        table = cls()
        file_of: dict[str, int] = {}  # store name -> its index in files
        for d in records:
            if d.token_file is None:
                table.append(d.doc_id, d.length)
            else:
                table.append(d.doc_id, d.length, file_of.setdefault(d.token_file, len(file_of)), d.offset)
        table.files.extend(file_of)
        return table

    def append(self, doc_id: str, length: int, file: int = -1, offset: int = 0) -> None:
        """Add a row; ``file`` indexes ``files`` for a row with a token
        reference, and is -1 with ``offset`` 0 for one without."""
        if file >= 0 and not self.file:  # the first token reference: cover every row
            self.file.extend(repeat(-1, len(self.ids)))
            self.offset.extend(repeat(0, len(self.ids)))
        self.ids.append(doc_id)
        self.lengths.append(length)
        if self.file or file >= 0:
            self.file.append(file)
            self.offset.append(offset)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[DocumentRecord]:
        if not self.file:
            return map(DocumentRecord, self.ids, self.lengths)
        files = self.files
        return (
            DocumentRecord(doc_id, n, files[f], off) if f >= 0 else DocumentRecord(doc_id, n)
            for doc_id, n, f, off in zip(self.ids, self.lengths, self.file, self.offset)
        )

    def __repr__(self) -> str:
        return f"CorpusTable({len(self)} documents)"


def _corpus(docs: CorpusTable | Iterable[DocumentRecord]) -> CorpusTable:
    """``docs`` as a table: itself, or ``CorpusTable.from_records(docs)``;
    the one way records enter the public functions."""
    return docs if isinstance(docs, CorpusTable) else CorpusTable.from_records(docs)


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


class _Sample(NamedTuple):
    """One sample as a plan walk gives it: its placement rows, each
    ``(document index, start, end, offset)`` placing the half-open token
    range ``[start, end)`` of document ``ids[index]`` at ``offset`` in the
    sample, in manifest order; and its separator positions."""

    placements: list[tuple[int, int, int, int]]
    separators: list[int]


def _counts(prefix: array):
    """The sizes of the ranges a prefix column bounds."""
    return map(operator.sub, prefix[1:], prefix)


def _group(keys, n: int) -> tuple[array, array]:
    """A stable counting sort of ``keys``, each in ``range(n)``: the prefix
    ``first`` and the positions ``order`` such that
    ``order[first[k]:first[k + 1]]`` are key ``k``'s positions in ``keys``,
    ascending."""
    counts = [0] * n
    for k in keys:
        counts[k] += 1
    first = array("q", [0])
    first.extend(accumulate(counts))
    next_row = first[:-1]
    order = array("q", bytes(8 * len(keys)))
    for r, k in enumerate(keys):
        i = next_row[k]
        next_row[k] = i + 1
        order[i] = r
    return first, order


class PlanTable:
    """A packing plan as one placement table of ``array('q')`` columns.

    Row ``r`` places document ``ids[doc[r]]``'s tokens ``[start[r],
    end[r])`` at ``offset[r]`` of its sample.  Sample ``i`` owns rows
    ``[first[i], first[i + 1])``, in manifest order, and the separator
    positions ``separators[sep_first[i]:sep_first[i + 1]]``.  Each doc id
    string is held once, in ``ids``; a planner's table shares the ``ids``
    list of the corpus table it plans, so ``doc`` indexes its rows.
    ``len`` is the sample count, and
    iterating the table is the one walk of its samples: each comes out as
    ``(placements, separators)``, its rows and its separator positions.

    A builder appends a sample's rows and separators to the columns,
    then calls ``end_sample`` (or ``drop_open_sample`` to discard them).
    """

    __slots__ = ("ids", "doc", "start", "end", "offset", "first", "separators", "sep_first")

    def __init__(self, ids: list[str] | None = None) -> None:
        self.ids = [] if ids is None else ids
        self.doc, self.start, self.end, self.offset = (array("q") for _ in range(4))
        self.separators = array("q")
        self.first = array("q", [0])
        self.sep_first = array("q", [0])

    def end_sample(self) -> None:
        """Close the open sample: the rows and separators appended since
        the last call are its own."""
        self.first.append(len(self.doc))
        self.sep_first.append(len(self.separators))

    def drop_open_sample(self) -> None:
        """Remove the rows and separators appended since the last
        ``end_sample``."""
        for column in (self.doc, self.start, self.end, self.offset):
            del column[self.first[-1]:]
        del self.separators[self.sep_first[-1]:]

    def occupied_tokens(self) -> int:
        """The tokens the plan's samples hold: their placed tokens plus
        their separators."""
        return sum(self.end) - sum(self.start) + len(self.separators)

    def __len__(self) -> int:
        return len(self.first) - 1

    def __iter__(self):
        rows = zip(self.doc, self.start, self.end, self.offset)
        separators = iter(self.separators)
        for n, m in zip(_counts(self.first), _counts(self.sep_first)):
            yield _Sample(list(islice(rows, n)), list(islice(separators, m)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanTable):
            return NotImplemented
        return (
            (self.start, self.end, self.offset, self.first, self.separators, self.sep_first)
            == (other.start, other.end, other.offset, other.first, other.separators, other.sep_first)
            and list(map(self.ids.__getitem__, self.doc)) == list(map(other.ids.__getitem__, other.doc))
        )

    __hash__ = None  # mutable while a builder appends

    def __repr__(self) -> str:
        return f"PlanTable({len(self)} samples, {len(self.doc)} placements)"


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
    every sample with its placements (one ``PlanTable``), and the
    resulting metrics.

    ``discarded_tail_tokens`` counts tokens cut off when an incomplete
    final sample is dropped (always zero for strategies that pad).
    """

    config: PackingConfig
    documents: CorpusSummary
    samples: PlanTable
    metrics: PackingMetrics
    discarded_tail_tokens: int = 0
