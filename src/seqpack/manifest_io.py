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
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, TypeVar, get_type_hints

from .model import (
    ConfigError,
    CorpusSummary,
    ManifestError,
    PackingConfig,
    PackingManifest,
    PackingMetrics,
    PlanTable,
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
    ids = manifest.samples.ids
    comma = ""
    for index, (rows, separators) in enumerate(manifest.samples.iter_samples()):
        try:
            placements = ",".join([
                f"[{_encode_str(ids[k])},{start},{end},{offset}]" for k, start, end, offset in rows
            ])
        except TypeError:  # the reader accepts only str doc ids
            for k, *_ in rows:
                if not isinstance(ids[k], str):
                    raise ManifestError(
                        f"cannot write manifest: sample {index}: doc_id {ids[k]!r} is not a str"
                    ) from None
            raise
        occupied = len(separators) + sum(end - start for _, start, end, _ in rows)
        padding = f"[{occupied},{L}]" if occupied < L else "null"
        seps = ",".join(map(str, separators))
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
_KEYS = frozenset(("format", "config", "documents", "discarded_tail_tokens", "metrics", "samples"))
_DOCUMENT_KEYS = frozenset(("count", "total_tokens", "dropped"))
_METRIC_KEYS = frozenset(_METRIC_TYPES)
_SAMPLE_KEYS = frozenset(("index", "padding", "placements", "separators"))
_SAMPLES_OPEN = ',"samples":['  # where the writer's head ends


def _known_keys(block: dict, keys: frozenset, where: str) -> None:
    """Raise on the first key of ``block`` that is not one of ``keys``."""
    if block.keys() != keys:
        for key in block:
            if key not in keys:
                raise ManifestError(f"{where} unknown key {key!r}")


def _read_samples(samples: Iterable, L: int) -> PlanTable:
    """The plan in a manifest's ``samples``, taken one at a time: each
    sample is checked for its shape and its derived fields (``index`` is
    its position, ``padding`` the unoccupied suffix) as its rows go into
    the table, and is not needed after that."""
    plan = PlanTable()
    index_of: dict[str, int] = {}  # doc id -> its index in plan.ids
    add_doc, add_start, add_end, add_offset = (
        plan.doc.append, plan.start.append, plan.end.append, plan.offset.append
    )
    for index, s in enumerate(samples):
        where = f"malformed manifest: sample {index}:"
        if type(s["index"]) is not int or s["index"] != index:
            raise ManifestError(f"{where} index {json.dumps(s['index'])} is not its position")
        _known_keys(s, _SAMPLE_KEYS, where)
        placements = s["placements"]
        if type(placements) is not list:
            raise ManifestError(f"{where} placements must be a list")
        try:
            occupied = 0
            for doc_id, start, end, offset in placements:
                if type(doc_id) is not str or not (type(start) is type(end) is type(offset) is int):
                    row = json.dumps([doc_id, start, end, offset])
                    raise ManifestError(f"{where} placement {row} is not [str, int, int, int]")
                add_doc(index_of.setdefault(doc_id, len(index_of)))
                add_start(start)
                add_end(end)
                add_offset(offset)
                occupied += end - start
            separators = s["separators"]
            if type(separators) is not list or not _ints(separators):
                raise ManifestError(f"{where} separators must be a list of ints")
            plan.separators.extend(separators)
        except OverflowError:  # the columns hold signed 64-bit ints
            raise ManifestError(f"{where} a value does not fit a signed 64-bit int") from None
        plan.end_sample()
        occupied += len(separators)
        padding = [occupied, L] if occupied < L else None
        if s["padding"] != padding or (padding and not _ints(s["padding"])):
            shown = json.dumps(s["padding"])
            raise ManifestError(f"{where} padding {shown} is not {json.dumps(padding)}")
    plan.ids.extend(index_of)
    return plan


def _manifest(payload, samples: Iterable) -> PackingManifest:
    """The manifest whose blocks ``payload`` holds, bar its samples, which
    ``samples`` gives in order."""
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != MANIFEST_FORMAT:
        raise ManifestError(f"unsupported manifest format: {found!r}")
    _known_keys(payload, _KEYS, "malformed manifest:")
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
        _known_keys(docs, _DOCUMENT_KEYS, "malformed manifest: documents:")
        plan = _read_samples(samples, cfg.context_length)
        m = payload["metrics"]
        metrics = PackingMetrics(
            **{name: _number(m, name, kind, "metrics.") for name, kind in _METRIC_TYPES.items()}
        )
        _known_keys(m, _METRIC_KEYS, "malformed manifest: metrics:")
        discarded = _number(payload, "discarded_tail_tokens", int, "")
        return PackingManifest(cfg, summary, plan, metrics, discarded)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ManifestError(f"malformed manifest: {exc}") from None


def _taken(payload: dict):
    """``payload["samples"]``, a list, in order, each let go of once the
    reader has it in the table, so the parsed samples and the table are
    never both whole."""
    rows = payload["samples"]
    if type(rows) is not list:
        raise ManifestError("malformed manifest: samples must be a list")
    for index, row in enumerate(rows):
        yield row
        rows[index] = None


def _whole_text(text: str) -> PackingManifest:
    """The manifest in ``text``, parsed as one JSON document."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    return _manifest(payload, _taken(payload))


def _decoded_samples(text: str, pos: int):
    """The samples of the array that opens just before ``pos``, decoded one
    at a time.  Raises ``ValueError`` where the samples are not joined by
    ``,`` and closed by ``]`` with only ``}`` or ``}\\n`` after it."""
    decode = json.JSONDecoder().raw_decode
    if text.startswith("]", pos):
        pos += 1
    else:
        while True:
            sample, pos = decode(text, pos)
            yield sample
            after = text[pos:pos + 1]
            pos += 1
            if after == "]":
                break
            if after != ",":
                raise ValueError(f"no , or ] after a sample at {pos - 1}")
    if len(text) - pos > 2 or text[pos:] not in ("}", "}\n"):
        raise ValueError(f"not the manifest's end at {pos}")


def _streamed(text: str) -> PackingManifest | None:
    """The manifest in ``text`` in the writer's layout, read one sample at
    a time, so the parsed samples are never whole; ``None`` where ``text``
    is laid out otherwise or fails any check, with the partial table let go."""
    at = text.find(_SAMPLES_OPEN)
    if at < 0:
        return None
    try:
        # a head that parses closes at the top level, so the samples are a top-level key
        head = json.loads(text[:at] + "}")
        if type(head) is not dict or "samples" in head:
            return None
        return _manifest(head, _decoded_samples(text, at + len(_SAMPLES_OPEN)))
    except (ManifestError, ValueError, RecursionError):
        return None


def manifest_from_json(text: str) -> PackingManifest:
    """The manifest in ``text``.  Text in the writer's layout is decoded one
    sample at a time into the plan's columns.  Any other text, and text
    that fails a check, is parsed whole, so its error is that parse's."""
    manifest = _streamed(text)
    return _whole_text(text) if manifest is None else manifest


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
