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
from typing import IO, Protocol

import numpy as np

from .model import DecodeError, EmitError, PackingManifest
from .verify import _sample_layout

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
_MAX_BOUNDARIES = 0xFFFF


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
        if len(sample.placements) > _MAX_BOUNDARIES:
            raise EmitError(
                f"sample {i} has {len(sample.placements)} "
                f"placements; the boundary plane holds at most {_MAX_BOUNDARIES}"
            )
        occupied, problems = _sample_layout(i, sample, L)
        if problems:
            raise EmitError(str(problems[0]))
        tokens = np.full(L, cfg.padding_id, dtype="<u4")
        mask = np.ones(L, dtype=np.uint8)
        for p in sample.placements:
            n = p.end - p.start
            piece = token_store.get(p.doc_id, p.start, p.end)
            if len(piece) != n:
                raise EmitError(
                    f"token store returned {len(piece)} ids for {p.doc_id!r} "
                    f"range [{p.start}, {p.end})"
                )
            tokens[p.offset : p.offset + n] = piece
        for off in sample.separator_positions:
            tokens[off] = cfg.separator_id
            if mask_separators:
                mask[off] = 0
        mask[occupied:] = 0
        boundaries = np.array([p.offset for p in sample.placements], dtype="<u4")
        out(tokens.tobytes())
        out(mask.tobytes())
        out(_COUNT.pack(len(boundaries)))
        out(boundaries.tobytes())
    return EmitSummary(len(manifest.samples), len(manifest.samples) * L, digest.hexdigest())


def decode_samples(
    stream: IO[bytes],
    manifest: PackingManifest,
    token_store: TokenSource,
    expected_checksum: str | None = None,
) -> DecodeResult:
    """Read a sample stream back, one sample at a time, and check every
    placement's tokens against ``token_store``.

    Raises ``DecodeError`` on truncation, header/manifest disagreement, a
    sample layout ``verify_manifest`` would reject, boundary plane
    mismatch, a placed token that differs from the store, a store lookup
    error and (given one) checksum mismatch.
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
        problems = _sample_layout(i, sample, L)[1]
        if problems:
            raise DecodeError(str(problems[0]))
        tokens = np.frombuffer(read(4 * L, "token plane"), dtype="<u4")
        mask = np.frombuffer(read(L, "mask plane"), dtype=np.uint8)
        zero_mask += int(np.count_nonzero(mask == 0))
        (count,) = _COUNT.unpack(read(_COUNT.size, "boundary count"))
        boundaries = np.frombuffer(read(4 * count, "boundary plane"), dtype="<u4")
        if boundaries.tolist() != [p.offset for p in sample.placements]:
            raise DecodeError(
                f"manifest/stream mismatch: boundary plane of sample "
                f"{i} disagrees with placements"
            )
        for p in sample.placements:
            try:
                expected = token_store.get(p.doc_id, p.start, p.end)
            except EmitError as exc:
                raise DecodeError(f"sample {i}: {exc}") from None
            if not np.array_equal(tokens[p.offset : p.offset + (p.end - p.start)], expected):
                raise DecodeError(f"sample {i} doc {p.doc_id}: tokens differ from the store")

    if stream.read(1):
        raise DecodeError("trailing bytes after final sample")
    checksum = digest.hexdigest()
    if expected_checksum is not None and checksum != expected_checksum:
        raise DecodeError("checksum mismatch")
    return DecodeResult(zero_mask, checksum)
