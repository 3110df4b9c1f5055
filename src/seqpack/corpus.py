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
import stat
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .model import (
    _TOKEN_BYTES,
    ConfigError,
    CorpusError,
    CorpusTable,
    DocumentRecord,
    EmitError,
    PackingConfig,
    Strategy,
    _corpus,
)

__all__ = [
    "ingest_corpus",
    "CorpusStats",
    "corpus_stats",
    "render_stats",
    "FileTokenStore",
    "InMemoryTokenStore",
]


def ingest_corpus(path: str | Path, mode: str = "lengths_only") -> CorpusTable:
    """Read a line-delimited corpus into a table, keeping file order.
    ``mode`` is ``"lengths_only"`` (default) or ``"full"``; full mode
    requires every record's token reference to resolve — the store must
    be a regular file holding a whole number of 4-byte ids, the offset
    must be 4-byte aligned, and the span must lie within the file."""
    if mode not in ("lengths_only", "full"):
        raise ConfigError(f"unknown ingest mode {mode!r}")
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")

    full = mode == "full"
    table = CorpusTable()
    add_id, add_length = table.ids.append, table.lengths.append
    # a stripped line holds no whitespace around its value, so decoding one
    # value and requiring it to end the line accepts what json.loads does
    decode = json.JSONDecoder().raw_decode
    seen: set[str] = set()
    file_of: dict[str, int] = {}  # store name -> its index in table.files
    sizes: dict[str, int] = {}
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")  # bytes that are not UTF-8 were read as lone surrogates
                obj, end = decode(line)
            except (ValueError, RecursionError):
                raise CorpusError(f"line {line_no}: malformed record") from None
            if end != len(line) or type(obj) is not dict:
                raise CorpusError(f"line {line_no}: malformed record")
            doc_id = obj.get("doc_id")
            length = obj.get("length")
            if doc_id is None or length is None:
                raise CorpusError(f"line {line_no}: record needs doc_id and length")
            if type(doc_id) is int:
                doc_id = str(doc_id)
            elif type(doc_id) is not str:
                raise CorpusError(f"line {line_no}: doc_id must be a string")
            if type(length) is not int:
                raise CorpusError(f"line {line_no}: length must be an integer")
            if length < 1:
                raise CorpusError(f"line {line_no}: non-positive length for {doc_id!r}")
            token_file, offset = None, 0
            if "token_file" in obj or "offset" in obj:
                token_file = obj.get("token_file")
                offset = obj.get("offset")
                if type(token_file) is not str or type(offset) is not int or offset < 0:
                    raise CorpusError(f"line {line_no}: invalid token_file/offset for {doc_id!r}")
            if doc_id in seen:
                raise CorpusError(f"line {line_no}: duplicate doc_id {doc_id!r}")
            seen.add(doc_id)
            if full:
                if token_file is None:
                    raise CorpusError(
                        f"line {line_no}: full mode requires token_file/offset "
                        f"for {doc_id!r}"
                    )
                _check_ref(path, sizes, line_no, doc_id, length, token_file, offset)
            if token_file is None and not table.file:
                add_id(doc_id)
                add_length(length)
            else:
                f = -1 if token_file is None else file_of.setdefault(token_file, len(file_of))
                table.append(doc_id, length, f, offset)
    table.files.extend(file_of)
    return table


def _check_ref(
    path: Path, sizes: dict[str, int], line_no: int, doc_id: str, length: int, token_file: str, offset: int
) -> None:
    """``CorpusError`` unless the line's token reference resolves: the
    store (its size cached in ``sizes``) is a regular file of whole ids,
    and the 4-byte aligned span lies inside it."""
    bad = f"line {line_no}: unresolvable token_ref for {doc_id!r}: "
    size = sizes.get(token_file)
    if size is None:
        try:
            st = os.stat(path.parent / token_file)
        except OSError:
            raise CorpusError(f"{bad}missing store {token_file!r}") from None
        if not stat.S_ISREG(st.st_mode):
            raise CorpusError(f"{bad}store {token_file!r} is not a regular file")
        size = st.st_size
        if size % _TOKEN_BYTES:
            raise CorpusError(f"{bad}store size {size} is not a multiple of {_TOKEN_BYTES}")
        sizes[token_file] = size
    if offset % _TOKEN_BYTES:
        raise CorpusError(f"{bad}offset {offset} not 4-byte aligned")
    if offset + _TOKEN_BYTES * length > size:
        raise CorpusError(f"{bad}span exceeds store size {size}")


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
    docs: CorpusTable | Iterable[DocumentRecord], context_length: int | None = None
) -> CorpusStats:
    """Length statistics with a power-of-two histogram; when a context
    length is given, also count documents longer than it.  A context
    length that ``PackingConfig`` rejects raises its ``ConfigError``."""
    if context_length is not None:
        PackingConfig(context_length, Strategy.BEST_FIT)
    lengths = _corpus(docs).lengths
    if not lengths:
        return CorpusStats(0, 0, 0, 0, 0.0, 0 if context_length is not None else None, ())
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
        len(lengths), total, min(lengths), max(lengths), total / len(lengths), over, histogram
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

    Built from the rows of a corpus table (or records) that have a token
    reference; ``documents`` is kept, not copied.  Each store
    file is opened on first use and shared across documents; a lookup
    reads its range with one positional read into a new ``array('I')``, so
    memory holds only the ranges asked for.  ``close()``, or leaving a ``with``
    block, closes the files; a lookup after that raises ``EmitError``.
    """

    def __init__(
        self, documents: CorpusTable | Iterable[DocumentRecord], base_dir: str | Path = "."
    ) -> None:
        self._base = Path(base_dir)
        self._table = table = _corpus(documents)
        # doc_id -> row, for the rows with a token reference
        self._row: dict[str, int] = {
            doc_id: r for r, (doc_id, f) in enumerate(zip(table.ids, table.file)) if f >= 0
        }
        self._files: dict[str, tuple[int, int]] = {}  # file -> (fd, token count)
        self._closed = False

    def __enter__(self) -> FileTokenStore:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every open store file; closing again does nothing."""
        self._closed = True
        files, self._files = self._files, {}
        for fd, _ in files.values():
            os.close(fd)

    def _store(self, file: str) -> tuple[int, int]:
        entry = self._files.get(file)
        if entry is None:
            if self._closed:
                raise EmitError(f"token store {file!r} is closed")
            try:
                fd = os.open(self._base / file, os.O_RDONLY)
            except OSError as exc:
                raise EmitError(f"cannot open token store {file!r}: {exc}") from None
            size = os.fstat(fd).st_size
            if size % _TOKEN_BYTES:
                os.close(fd)
                raise EmitError(
                    f"cannot open token store {file!r}: store size {size} is not a "
                    f"multiple of {_TOKEN_BYTES}"
                )
            entry = self._files[file] = (fd, size // _TOKEN_BYTES)
        return entry

    def get(self, doc_id: str, start: int, end: int) -> array:
        r = self._row.get(doc_id)
        if r is None:
            raise EmitError(f"no token data for document {doc_id!r}")
        table = self._table
        length = table.lengths[r]
        if not 0 <= start <= end <= length:
            raise EmitError(
                f"token range [{start}, {end}) outside document {doc_id!r} "
                f"(length {length})"
            )
        base = table.offset[r] // _TOKEN_BYTES
        file = table.files[table.file[r]]
        fd, count = self._store(file)
        if base + end > count:
            raise EmitError(f"token_ref for {doc_id!r} exceeds store {file!r}")
        out = array("I", [0]) * (end - start)
        nbytes = _TOKEN_BYTES * len(out)
        try:
            got = os.preadv(fd, [out], (base + start) * _TOKEN_BYTES)
        except OSError as exc:
            raise EmitError(f"cannot read token store {file!r}: {exc}") from None
        if got != nbytes:  # the file shrank after it was opened
            raise EmitError(
                f"short read of {doc_id!r} from token store {file!r}: "
                f"{got} of {nbytes} bytes"
            )
        if sys.byteorder == "big":  # the store is little-endian
            out.byteswap()
        return out


class InMemoryTokenStore:
    """Token lookup over a plain mapping of doc_id to token ids, each an
    integer in ``[0, 2**32)``; any other id raises ``EmitError``."""

    def __init__(self, tokens: dict[str, Sequence[int]]) -> None:
        self._tokens: dict[str, array] = {}
        for doc_id, ids in tokens.items():
            try:  # iter(): array() would read bytes as raw machine words
                self._tokens[doc_id] = array("I", iter(ids))
            except (TypeError, OverflowError):
                raise EmitError(
                    f"token ids of {doc_id!r} must be integers in [0, 2**32)"
                ) from None

    def get(self, doc_id: str, start: int, end: int) -> array:
        ids = self._tokens.get(doc_id)
        if ids is None:
            raise EmitError(f"no token data for document {doc_id!r}")
        if not 0 <= start <= end <= len(ids):
            raise EmitError(
                f"token range [{start}, {end}) outside document {doc_id!r} "
                f"(length {len(ids)})"
            )
        return ids[start:end]
