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


def _fields_dict(obj) -> dict:
    """A flat dataclass as a JSON object: one key per field, enum
    members written as their values."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = value.value if isinstance(value, Enum) else value
    return out


def manifest_to_json(manifest: PackingManifest) -> str:
    payload = {
        "format": MANIFEST_FORMAT,
        "config": _fields_dict(manifest.config),
        "documents": {
            "count": manifest.documents.document_count,
            "total_tokens": manifest.documents.total_tokens,
            "dropped": list(manifest.documents.dropped),
        },
        "discarded_tail_tokens": manifest.discarded_tail_tokens,
        "samples": [
            {
                "index": s.sample_index,
                "placements": [[p.doc_id, p.start, p.end, p.offset] for p in s.placements],
                "separators": list(s.separator_positions),
                "padding": list(s.padding_span) if s.padding_span else None,
            }
            for s in manifest.samples
        ],
        "metrics": _fields_dict(manifest.metrics),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def manifest_from_json(text: str) -> PackingManifest:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise ManifestError(f"unsupported manifest format: {payload.get('format')!r}")
    try:
        cfg = PackingConfig(**payload["config"])
        docs = payload["documents"]
        summary = CorpusSummary(
            docs["count"], docs["total_tokens"], tuple(docs["dropped"])
        )
        samples = []
        for s in payload["samples"]:
            idx = s["index"]
            placements = tuple(
                Placement(doc_id, start, end, idx, offset)
                for doc_id, start, end, offset in s["placements"]
            )
            padding = tuple(s["padding"]) if s["padding"] is not None else None
            samples.append(
                PackedSample(idx, placements, tuple(s["separators"]), padding)
            )
        m = payload["metrics"]
        metrics = PackingMetrics(*(m[f.name] for f in fields(PackingMetrics)))
        return PackingManifest(
            cfg, summary, tuple(samples), metrics, payload["discarded_tail_tokens"]
        )
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ManifestError(f"malformed manifest: {exc}") from None


def write_bytes_atomic(path: str | Path, data: bytes) -> None:
    """Write via a temporary sibling and rename, so readers never see a
    half-written file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_manifest(manifest: PackingManifest, path: str | Path) -> None:
    write_bytes_atomic(path, manifest_to_json(manifest).encode("utf-8"))


def read_manifest(path: str | Path) -> PackingManifest:
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest file not found: {path}")
    return manifest_from_json(path.read_text(encoding="utf-8"))
