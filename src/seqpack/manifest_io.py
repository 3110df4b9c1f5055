"""Deterministic manifest serialization.

A manifest is stored as one compact JSON document with sorted keys, so
identical packing runs produce byte-identical files.  The schema is
documented in the README; ``format`` pins the schema version.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import asdict
from itertools import islice
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import BinaryIO, Callable, TypeVar, get_type_hints

from .model import (
    ConfigError,
    CorpusSummary,
    ManifestError,
    PackingConfig,
    PackingManifest,
    PackingMetrics,
    PlanTable,
    _counts,
)

__all__ = [
    "MANIFEST_FORMAT",
    "manifest_to_json",
    "manifest_from_json",
    "write_manifest",
    "read_manifest",
    "write_bytes_atomic",
]

MANIFEST_FORMAT = "seqpack-manifest/1"

_T = TypeVar("_T")


def _padding(plan: PlanTable, i: int, L: int) -> list[int] | None:
    occupied = plan.occupied_tokens(i, i + 1)
    return [occupied, L] if occupied < L else None


def _json_pieces(manifest: PackingManifest):
    """The manifest's compact JSON in pieces: the head, one piece per
    sample, then the tail.  With sorted keys ``samples`` comes last, so
    the head is the other blocks' JSON up to ``"samples":[``.  Doc ids go
    through the escaper ``json.dumps`` uses, so the pieces join to the
    bytes ``json.dumps(..., sort_keys=True)`` gives for the whole plan."""
    L = manifest.config.context_length
    head = {
        "format": MANIFEST_FORMAT,
        "config": asdict(manifest.config),
        "documents": {
            "count": manifest.documents.document_count,
            "total_tokens": manifest.documents.total_tokens,
            "dropped": list(manifest.documents.dropped),
        },
        "discarded_tail_tokens": manifest.discarded_tail_tokens,
        "metrics": asdict(manifest.metrics),
    }
    yield json.dumps(head, sort_keys=True, separators=(",", ":"))[:-1] + ',"samples":['
    plan = manifest.samples
    # one pass over the columns: each sample takes the next rows and separators
    rows = zip(map(_encode_str, map(plan.ids.__getitem__, plan.doc)), plan.start, plan.end, plan.offset)
    separators = iter(plan.separators)
    comma = ""
    for index, (n, m) in enumerate(zip(_counts(plan.first), _counts(plan.sep_first))):
        try:
            placements = ",".join([
                f"[{doc_id},{start},{end},{offset}]" for doc_id, start, end, offset in islice(rows, n)
            ])
        except TypeError:  # the reader accepts only str doc ids
            for doc_id, *_ in plan[index].placements:
                if not isinstance(doc_id, str):
                    raise ManifestError(
                        f"cannot write manifest: sample {index}: doc_id {doc_id!r} is not a str"
                    ) from None
            raise
        padding = _padding(plan, index, L)
        padding = "null" if padding is None else f"[{padding[0]},{L}]"
        seps = ",".join(map(str, islice(separators, m)))
        yield (
            f'{comma}{{"index":{index},"padding":{padding},'
            f'"placements":[{placements}],"separators":[{seps}]}}'
        )
        comma = ","
    yield "]}\n"


def manifest_to_json(manifest: PackingManifest) -> str:
    return "".join(_json_pieces(manifest))


def _ints(values) -> bool:
    # JSON true/false parse to bool, a subclass of int
    return all(type(x) is int for x in values)


def _number(block: dict, key: str, kind: type, where: str) -> int | float:
    """``block[key]``: an int, or any JSON number where ``kind`` is float."""
    value = block[key]
    if type(value) is not int and not (kind is float and type(value) is float):
        wanted = "a number" if kind is float else "an int"
        raise ManifestError(f"malformed manifest: {where}{key} {json.dumps(value)} is not {wanted}")
    return value


_METRIC_TYPES = get_type_hints(PackingMetrics)


def _read_samples(rows: list, L: int) -> PlanTable:
    """The plan in a manifest's ``samples`` rows, each row checked for its
    shape and its derived fields (``index`` is the row's position,
    ``padding`` the unoccupied suffix) and set to ``None`` once it is in
    the table, so the rows and the table are never both whole."""
    plan = PlanTable()
    index_of: dict[str, int] = {}  # doc id -> its index in plan.ids
    add_doc, add_start, add_end, add_offset = (
        plan.doc.append, plan.start.append, plan.end.append, plan.offset.append
    )
    for index, s in enumerate(rows):
        where = f"malformed manifest: sample {index}:"
        if type(s["index"]) is not int or s["index"] != index:
            raise ManifestError(f"{where} index {json.dumps(s['index'])} is not its position")
        try:
            for doc_id, start, end, offset in s["placements"]:
                if type(doc_id) is not str or not (type(start) is type(end) is type(offset) is int):
                    row = json.dumps([doc_id, start, end, offset])
                    raise ManifestError(f"{where} placement {row} is not [str, int, int, int]")
                add_doc(index_of.setdefault(doc_id, len(index_of)))
                add_start(start)
                add_end(end)
                add_offset(offset)
            separators = s["separators"]
            if type(separators) is not list or not _ints(separators):
                raise ManifestError(f"{where} separators must be a list of ints")
            plan.separators.extend(separators)
        except OverflowError:  # the columns hold signed 64-bit ints
            raise ManifestError(f"{where} a value does not fit a signed 64-bit int") from None
        plan.end_sample()
        padding = _padding(plan, index, L)
        if s["padding"] != padding or (padding and not _ints(s["padding"])):
            shown = json.dumps(s["padding"])
            raise ManifestError(f"{where} padding {shown} is not {json.dumps(padding)}")
        rows[index] = None
    plan.ids.extend(index_of)
    return plan


def manifest_from_json(text: str) -> PackingManifest:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != MANIFEST_FORMAT:
        raise ManifestError(f"unsupported manifest format: {found!r}")
    try:
        cfg = PackingConfig(**payload["config"])
        docs = payload["documents"]
        dropped = docs["dropped"]
        if type(dropped) is not list or not all(type(x) is str for x in dropped):
            raise ManifestError("malformed manifest: documents.dropped must be a list of strings")
        summary = CorpusSummary(
            _number(docs, "count", int, "documents."),
            _number(docs, "total_tokens", int, "documents."),
            tuple(dropped),
        )
        plan = _read_samples(payload["samples"], cfg.context_length)
        m = payload["metrics"]
        metrics = PackingMetrics(
            **{name: _number(m, name, kind, "metrics.") for name, kind in _METRIC_TYPES.items()}
        )
        discarded = _number(payload, "discarded_tail_tokens", int, "")
        return PackingManifest(cfg, summary, plan, metrics, discarded)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ManifestError(f"malformed manifest: {exc}") from None


def write_bytes_atomic(path: str | Path, write: Callable[[BinaryIO], _T]) -> _T:
    """Run ``write`` on a temporary sibling of ``path`` opened for binary
    writing, then rename the sibling over ``path``, so readers never see
    a half-written file.  Returns what ``write`` returned; on any
    exception the sibling is removed and ``path`` is left as it was.  A
    path that exists but is not a regular file or a directory (a FIFO,
    device, socket or symlink), a sibling that cannot be made, and an
    ``OSError`` while writing or renaming raise ``ConfigError``.  The file
    gets the mode ``open()`` gives a new file, ``0o666`` less the umask."""
    path = Path(path)
    try:
        kind = stat.S_IFMT(os.lstat(path).st_mode)
    except OSError:  # absent: nothing to refuse, and a missing directory fails below
        kind = stat.S_IFREG
    if kind not in (stat.S_IFREG, stat.S_IFDIR):  # a directory fails the rename
        raise ConfigError(f"cannot write {path}: not a regular file")
    while True:
        tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
        try:  # the kernel applies the umask to 0o666, as for open()
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    try:
        try:
            with os.fdopen(fd, "wb") as fh:
                result = write(fh)
            os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return result


def write_manifest(manifest: PackingManifest, path: str | Path) -> None:
    """Write ``manifest_to_json(manifest)`` to ``path`` atomically, one
    piece at a time, so the whole text is never held in memory."""

    def write(fh: BinaryIO) -> None:
        for piece in _json_pieces(manifest):
            fh.write(piece.encode("utf-8"))

    write_bytes_atomic(path, write)


def read_manifest(path: str | Path) -> PackingManifest:
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    return manifest_from_json(text)
