"""Deterministic manifest serialization.

A manifest is stored as one compact JSON document with sorted keys, so
identical packing runs produce byte-identical files.  The schema is
documented in the README; ``format`` pins the schema version.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Callable, TypeVar, get_type_hints

from .model import (
    ConfigError,
    CorpusSummary,
    ManifestError,
    PackedSample,
    PackingConfig,
    PackingManifest,
    PackingMetrics,
    Placement,
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


def _fields_dict(obj) -> dict:
    """A flat dataclass as a JSON object: one key per field, enum
    members written as their values."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = value.value if isinstance(value, Enum) else value
    return out


def _padding(sample: PackedSample, L: int) -> list[int] | None:
    occupied = sample.occupied_tokens
    return [occupied, L] if occupied < L else None


def _sample_json(index: int, sample: PackedSample, L: int) -> dict:
    return {
        "index": index,
        "placements": [[p.doc_id, p.start, p.end, p.offset] for p in sample.placements],
        "separators": list(sample.separator_positions),
        "padding": _padding(sample, L),
    }


def manifest_to_json(manifest: PackingManifest) -> str:
    L = manifest.config.context_length
    payload = {
        "format": MANIFEST_FORMAT,
        "config": _fields_dict(manifest.config),
        "documents": {
            "count": manifest.documents.document_count,
            "total_tokens": manifest.documents.total_tokens,
            "dropped": list(manifest.documents.dropped),
        },
        "discarded_tail_tokens": manifest.discarded_tail_tokens,
        "samples": [_sample_json(i, s, L) for i, s in enumerate(manifest.samples)],
        "metrics": _fields_dict(manifest.metrics),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


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


def _sample_from_json(index: int, s: dict, L: int) -> PackedSample:
    """One sample row, with its shape and its derived fields checked:
    ``index`` is the row's position, ``padding`` the unoccupied suffix."""
    where = f"malformed manifest: sample {index}:"
    if type(s["index"]) is not int or s["index"] != index:
        raise ManifestError(f"{where} index {json.dumps(s['index'])} is not its position")
    placements = []
    for doc_id, start, end, offset in s["placements"]:
        if type(doc_id) is not str or not (type(start) is type(end) is type(offset) is int):
            row = json.dumps([doc_id, start, end, offset])
            raise ManifestError(f"{where} placement {row} is not [str, int, int, int]")
        placements.append(Placement(doc_id, start, end, offset))
    separators = s["separators"]
    if type(separators) is not list or not _ints(separators):
        raise ManifestError(f"{where} separators must be a list of ints")
    sample = PackedSample(tuple(placements), tuple(separators))
    padding = _padding(sample, L)
    if s["padding"] != padding or (padding and not _ints(s["padding"])):
        shown = json.dumps(s["padding"])
        raise ManifestError(f"{where} padding {shown} is not {json.dumps(padding)}")
    return sample


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
        L = cfg.context_length
        samples = tuple(
            _sample_from_json(i, s, L) for i, s in enumerate(payload["samples"])
        )
        m = payload["metrics"]
        metrics = PackingMetrics(
            **{name: _number(m, name, kind, "metrics.") for name, kind in _METRIC_TYPES.items()}
        )
        discarded = _number(payload, "discarded_tail_tokens", int, "")
        return PackingManifest(cfg, summary, samples, metrics, discarded)
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ManifestError(f"malformed manifest: {exc}") from None


def write_bytes_atomic(path: str | Path, write: Callable[[BinaryIO], _T]) -> _T:
    """Run ``write`` on a temporary sibling of ``path`` opened for binary
    writing, then rename the sibling over ``path``, so readers never see
    a half-written file.  Returns what ``write`` returned; on any
    exception the sibling is removed and ``path`` is left as it was.  A
    path whose sibling cannot be made, or that cannot be replaced,
    raises ``ConfigError``."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "wb") as fh:
            result = write(fh)
        try:
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
    data = manifest_to_json(manifest).encode("utf-8")
    write_bytes_atomic(path, lambda fh: fh.write(data))


def read_manifest(path: str | Path) -> PackingManifest:
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    return manifest_from_json(text)
