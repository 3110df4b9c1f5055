"""Binary emission and decoding of packed samples.

File layout (all little-endian), fixed by the manifest alone plus the
token store — re-emitting the same manifest gives identical bytes:

* header: magic ``PKSB``, uint16 version, uint16 plane flags (always 3),
  uint32 context length, uint64 sample count;
* per sample, in manifest order:
  token plane — ``context_length`` uint32 token ids;
  mask plane — one byte per token, 1 for document and separator
  tokens (0 for separators when emission masks them), 0 for padding;
  boundary plane — uint16 placement count, then one uint32 in-sample
  start offset per placement.

The emit summary carries a SHA-256 over the complete byte stream; the
checksum is order-dependent, so any reordering or corruption shows up.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Protocol

from .model import DecodeError, EmitError, PackedSample, PackingConfig, PackingManifest
from .verify import _sample_layout

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAGIC",
    "VERSION",
    "EmitSummary",
    "DecodeResult",
    "emit_samples",
    "decode_samples",
]

MAGIC = b"PKSB"
VERSION = 1
_HEADER = struct.Struct("<4sHHIQ")
_COUNT = struct.Struct("<H")
_PLANE_FLAGS = 3  # bit 0: mask plane, bit 1: boundary plane


class TokenSource(Protocol):
    def get(self, doc_id: str, start: int, end: int) -> np.ndarray: ...


@dataclass(frozen=True, slots=True)
class EmitSummary:
    samples_written: int
    tokens_written: int
    checksum: str


@dataclass(frozen=True, slots=True)
class DecodeResult:
    """A stream that decoded clean: how many tokens its mask plane keeps
    out of the loss, and its SHA-256."""

    zero_mask_tokens: int
    checksum: str


def emit_samples(
    manifest: PackingManifest,
    token_store: TokenSource,
    sink: IO[bytes],
    mask_separators: bool = False,
) -> EmitSummary:
    """Materialize every sample in the manifest as binary planes.

    Token ids come from ``token_store``; separators and padding are
    synthesized from the config.  Separator tokens contribute to the
    loss by default (``mask_separators`` flips their mask bits to 0).
    """
    cfg = manifest.config
    L = cfg.context_length
    digest = hashlib.sha256()

    def out(data: bytes) -> None:
        sink.write(data)
        digest.update(data)

    out(_HEADER.pack(MAGIC, VERSION, _PLANE_FLAGS, L, len(manifest.samples)))
    for i, sample in enumerate(manifest.samples):
        out(_render(i, sample, token_store, cfg, mask_separators))
    return EmitSummary(len(manifest.samples), len(manifest.samples) * L, digest.hexdigest())


def _render(
    i: int, sample: PackedSample, token_store: TokenSource, cfg: PackingConfig, mask_separators: bool
) -> bytes:
    """Sample ``i``'s token, mask and boundary planes; ``EmitError`` names
    the sample if its layout breaks the rule or a store lookup fails."""
    L = cfg.context_length
    occupied, problems = _sample_layout(i, sample, L)
    if problems:
        raise EmitError(str(problems[0]))
    import numpy as np  # on first use, so that only emit and decode load numpy

    tokens = np.full(L, cfg.padding_id, dtype="<u4")
    mask = np.ones(L, dtype=np.uint8)
    for p in sample.placements:
        n = p.end - p.start
        try:
            piece = token_store.get(p.doc_id, p.start, p.end)
        except EmitError as exc:
            raise EmitError(f"sample {i}: {exc}") from None
        if len(piece) != n:
            raise EmitError(
                f"sample {i}: token store returned {len(piece)} ids for "
                f"{p.doc_id!r} range [{p.start}, {p.end})"
            )
        tokens[p.offset : p.offset + n] = piece
    for off in sample.separator_positions:
        tokens[off] = cfg.separator_id
        if mask_separators:
            mask[off] = 0
    mask[occupied:] = 0
    boundaries = np.array([p.offset for p in sample.placements], dtype="<u4")
    return tokens.tobytes() + mask.tobytes() + _COUNT.pack(len(boundaries)) + boundaries.tobytes()


def _difference(i: int, sample: PackedSample, got: bytes, want: bytes, L: int) -> str:
    """Name the first plane in which a sample read differs from its rendering."""
    if got[: 4 * L] != want[: 4 * L]:
        import numpy as np

        diff = np.frombuffer(got, "<u4", L) != np.frombuffer(want, "<u4", L)
        off = int(np.flatnonzero(diff)[0])
        for p in sample.placements:
            if p.offset <= off < p.offset + (p.end - p.start):
                return f"sample {i} doc {p.doc_id}: tokens differ from the store"
        return f"sample {i}: token plane differs from the manifest at offset {off}"
    if got[4 * L : 5 * L] != want[4 * L : 5 * L]:
        return f"sample {i}: mask plane differs from the manifest"
    return f"manifest/stream mismatch: boundary plane of sample {i} disagrees with placements"


def decode_samples(
    stream: IO[bytes],
    manifest: PackingManifest,
    token_store: TokenSource,
    expected_checksum: str | None = None,
    mask_separators: bool = False,
) -> DecodeResult:
    """Read a sample stream back, one sample at a time, and compare every
    byte with the sample as ``emit_samples`` renders it from the manifest
    and ``token_store``; ``mask_separators`` must be the value it was
    emitted with, which the stream does not record.

    Raises ``DecodeError`` on truncation, header/manifest disagreement, a
    sample layout ``verify_manifest`` would reject, a store lookup error,
    a sample whose bytes differ (naming the first plane that does) and
    (given one) checksum mismatch.
    """
    digest = hashlib.sha256()

    def read(size: int, what: str) -> bytes:
        data = stream.read(size)
        if len(data) != size:
            raise DecodeError(f"stream truncation while reading {what}")
        digest.update(data)
        return data

    header = read(_HEADER.size, "header")
    magic, version, flags, L, sample_count = _HEADER.unpack(header)
    if magic != MAGIC:
        raise DecodeError("not a packed sample stream")
    if version != VERSION:
        raise DecodeError(f"unsupported stream version {version}")
    if flags != _PLANE_FLAGS:
        raise DecodeError(f"unsupported plane flags {flags} (expected {_PLANE_FLAGS})")
    cfg = manifest.config
    if L != cfg.context_length or sample_count != len(manifest.samples):
        raise DecodeError(
            f"manifest/stream mismatch: stream has {sample_count} samples of "
            f"length {L}, manifest has {len(manifest.samples)} of "
            f"length {cfg.context_length}"
        )

    zero_mask = 0
    for i, sample in enumerate(manifest.samples):
        try:
            want = _render(i, sample, token_store, cfg, mask_separators)
        except EmitError as exc:
            raise DecodeError(str(exc)) from None
        got = read(len(want), f"sample {i}")
        if got != want:
            raise DecodeError(_difference(i, sample, got, want, L))
        zero_mask += want.count(0, 4 * L, 5 * L)

    if stream.read(1):
        raise DecodeError("trailing bytes after final sample")
    checksum = digest.hexdigest()
    if expected_checksum is not None and checksum != expected_checksum:
        raise DecodeError("checksum mismatch")
    return DecodeResult(zero_mask, checksum)
