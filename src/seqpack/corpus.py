"""Corpus ingestion, statistics, and token stores.

A corpus is a line-delimited file of JSON records, one document per
line::

    {"doc_id": "a", "length": 3}
    {"doc_id": "b", "length": 4, "token_file": "tokens.bin", "offset": 12}

``doc_id`` is an opaque string (integers are accepted and stringified),
``length`` a positive token count.  Full mode additionally requires
``token_file``/``offset``: a byte offset into a flat binary store of
unsigned 32-bit little-endian token ids, resolved relative to the
corpus file unless absolute.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .model import (
    _TOKEN_BYTES,
    ConfigError,
    CorpusError,
    DocumentRecord,
    EmitError,
    PackingConfig,
    Strategy,
    TokenRef,
)

__all__ = [
    "ingest_corpus",
    "CorpusStats",
    "corpus_stats",
    "render_stats",
    "FileTokenStore",
    "InMemoryTokenStore",
]

_TOKEN_DTYPE = np.dtype("<u4")


def _parse_record(line_no: int, line: str) -> tuple[str, int, TokenRef | None]:
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
    ref = None
    if "token_file" in obj or "offset" in obj:
        token_file = obj.get("token_file")
        offset = obj.get("offset")
        if not isinstance(token_file, str) or type(offset) is not int or offset < 0:
            raise CorpusError(f"line {line_no}: invalid token_file/offset for {doc_id!r}")
        ref = TokenRef(token_file, offset)
    return doc_id, length, ref


def ingest_corpus(path: str | Path, mode: str = "lengths_only") -> list[DocumentRecord]:
    """Read a line-delimited corpus into document records, keeping file
    order.  ``mode`` is ``"lengths_only"`` (default) or ``"full"``; full
    mode requires every record's token reference to resolve — the store
    file must exist, the offset must be 4-byte aligned, and the span
    must lie within the file."""
    if mode not in ("lengths_only", "full"):
        raise ConfigError(f"unknown ingest mode {mode!r}")
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")

    records: list[DocumentRecord] = []
    seen: set[str] = set()
    sizes: dict[str, int] = {}
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            doc_id, length, ref = _parse_record(line_no, line)
            if doc_id in seen:
                raise CorpusError(f"line {line_no}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            if mode == "full":
                if ref is None:
                    raise CorpusError(
                        f"line {line_no}: full mode requires token_file/offset "
                        f"for {doc_id!r}"
                    )
                size = sizes.get(ref.file)
                if size is None:
                    fpath = Path(ref.file)
                    if not fpath.is_absolute():
                        fpath = path.parent / fpath
                    try:
                        size = os.stat(fpath).st_size
                    except OSError:
                        raise CorpusError(
                            f"line {line_no}: unresolvable token_ref for "
                            f"{doc_id!r}: missing store {ref.file!r}"
                        ) from None
                    sizes[ref.file] = size
                if ref.offset % _TOKEN_BYTES:
                    raise CorpusError(
                        f"line {line_no}: unresolvable token_ref for {doc_id!r}: "
                        f"offset {ref.offset} not 4-byte aligned"
                    )
                if ref.offset + _TOKEN_BYTES * length > size:
                    raise CorpusError(
                        f"line {line_no}: unresolvable token_ref for {doc_id!r}: "
                        f"span exceeds store size {size}"
                    )
            records.append(DocumentRecord(doc_id, length, ref))
    return records


@dataclass(frozen=True, slots=True)
class CorpusStats:
    document_count: int
    total_tokens: int
    min_length: int
    max_length: int
    mean_length: float
    over_length_count: int | None
    histogram: tuple[tuple[int, int, int], ...]  # (lo, hi, count) with hi exclusive


def corpus_stats(
    docs: Sequence[DocumentRecord], context_length: int | None = None
) -> CorpusStats:
    """Length statistics with a power-of-two histogram; when a context
    length is given, also count documents longer than it.  A context
    length that ``PackingConfig`` rejects raises its ``ConfigError``."""
    if context_length is not None:
        PackingConfig(context_length, Strategy.BEST_FIT)
    if not docs:
        return CorpusStats(0, 0, 0, 0, 0.0, 0 if context_length is not None else None, ())
    lengths = [d.length for d in docs]
    total = sum(lengths)
    buckets: dict[int, int] = {}
    for n in lengths:
        k = n.bit_length() - 1  # n >= 1, bucket [2^k, 2^(k+1))
        buckets[k] = buckets.get(k, 0) + 1
    histogram = tuple(
        (1 << k, 1 << (k + 1), buckets[k]) for k in sorted(buckets)
    )
    over = None
    if context_length is not None:
        over = sum(1 for n in lengths if n > context_length)
    return CorpusStats(
        len(docs), total, min(lengths), max(lengths), total / len(docs), over, histogram
    )


def render_stats(stats: CorpusStats) -> str:
    lines = [
        f"documents      {stats.document_count}",
        f"total tokens   {stats.total_tokens}",
        f"length min     {stats.min_length}",
        f"length max     {stats.max_length}",
        f"length mean    {stats.mean_length:.1f}",
    ]
    if stats.over_length_count is not None:
        lines.append(f"over length    {stats.over_length_count}")
    if stats.histogram:
        lines.append("length histogram:")
        peak = max(count for _, _, count in stats.histogram)
        for lo, hi, count in stats.histogram:
            bar = "#" * max(1, round(40 * count / peak))
            lines.append(f"  [{lo}, {hi})  {count}  {bar}")
    return "\n".join(lines)


class FileTokenStore:
    """Token lookup over flat binary stores of little-endian uint32 ids.

    Built from document records carrying token references; store files
    are memory-mapped lazily and shared across documents.
    """

    def __init__(
        self, documents: Iterable[DocumentRecord], base_dir: str | Path = "."
    ) -> None:
        self._base = Path(base_dir)
        self._refs: dict[str, tuple[TokenRef, int]] = {
            d.doc_id: (d.token_ref, d.length)
            for d in documents
            if d.token_ref is not None
        }
        self._maps: dict[str, np.ndarray] = {}

    def _store(self, file: str) -> np.ndarray:
        mm = self._maps.get(file)
        if mm is None:
            path = Path(file)
            if not path.is_absolute():
                path = self._base / path
            try:
                mm = np.memmap(path, dtype=_TOKEN_DTYPE, mode="r")
            except (OSError, ValueError) as exc:
                raise EmitError(f"cannot open token store {file!r}: {exc}") from None
            self._maps[file] = mm
        return mm

    def get(self, doc_id: str, start: int, end: int) -> np.ndarray:
        entry = self._refs.get(doc_id)
        if entry is None:
            raise EmitError(f"no token data for document {doc_id!r}")
        ref, length = entry
        if not 0 <= start <= end <= length:
            raise EmitError(
                f"token range [{start}, {end}) outside document {doc_id!r} "
                f"(length {length})"
            )
        base = ref.offset // _TOKEN_BYTES
        store = self._store(ref.file)
        if base + end > len(store):
            raise EmitError(f"token_ref for {doc_id!r} exceeds store {ref.file!r}")
        return store[base + start : base + end]


class InMemoryTokenStore:
    """Token lookup over a plain mapping of doc_id to token ids."""

    def __init__(self, tokens: dict[str, Sequence[int]]) -> None:
        self._tokens = {
            doc_id: np.asarray(ids, dtype=_TOKEN_DTYPE) for doc_id, ids in tokens.items()
        }

    def get(self, doc_id: str, start: int, end: int) -> np.ndarray:
        ids = self._tokens.get(doc_id)
        if ids is None:
            raise EmitError(f"no token data for document {doc_id!r}")
        if not 0 <= start <= end <= len(ids):
            raise EmitError(
                f"token range [{start}, {end}) outside document {doc_id!r} "
                f"(length {len(ids)})"
            )
        return ids[start:end]
