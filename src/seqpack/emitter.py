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

import struct
import sys
from array import array
from dataclasses import dataclass
from typing import IO, Protocol

from .model import DecodeError, EmitError, PackingConfig, PackingManifest
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


class TokenSource(Protocol):
    def get(self, doc_id: str, start: int, end: int) -> array: ...


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
    import hashlib  # here, not at the top: it maps OpenSSL (~3.6 MB RSS) into every command

    cfg = manifest.config
    L = cfg.context_length
    digest = hashlib.sha256()

    def out(data: bytes) -> None:
        sink.write(data)
        digest.update(data)

    plan = manifest.samples
    out(_HEADER.pack(MAGIC, VERSION, _PLANE_FLAGS, L, len(plan)))
    for i, (rows, separators) in enumerate(plan):
        out(_render(i, rows, separators, plan.ids, token_store, cfg, mask_separators))
    return EmitSummary(len(plan), len(plan) * L, digest.hexdigest())


def _render(
    i: int,
    rows: list,
    separators: list[int],
    ids: list[str],
    token_store: TokenSource,
    cfg: PackingConfig,
    mask_separators: bool,
) -> bytes:
    """Sample ``i``'s token, mask and boundary planes, from its rows and
    separators as iterating a ``PlanTable`` gives them; ``EmitError``
    names the sample if its layout breaks the rule or a store lookup fails."""
    L = cfg.context_length
    occupied, problems = _sample_layout(i, rows, separators, ids, L)
    if problems:
        raise EmitError(str(problems[0]))
    tokens = array("I", [cfg.padding_id]) * L
    mask = bytearray(b"\x01") * occupied + bytes(L - occupied)
    for k, start, end, offset in rows:
        doc_id = ids[k]
        n = end - start
        try:
            piece = token_store.get(doc_id, start, end)
        except EmitError as exc:
            raise EmitError(f"sample {i}: {exc}") from None
        # a slice of the wrong length or type would resize the plane or raise
        if not (isinstance(piece, array) and piece.typecode == "I" and len(piece) == n):
            got = f"{len(piece)} ids" if isinstance(piece, array) else type(piece).__name__
            raise EmitError(
                f"sample {i}: token store returned {got} for "
                f"{doc_id!r} range [{start}, {end}), not array('I') of {n} ids"
            )
        tokens[offset : offset + n] = piece
    for off in separators:
        tokens[off] = cfg.separator_id
        if mask_separators:
            mask[off] = 0
    boundaries = array("I", [offset for _, _, _, offset in rows])
    if sys.byteorder == "big":  # the format is little-endian
        tokens.byteswap()
        boundaries.byteswap()
    return b"".join((tokens, mask, _COUNT.pack(len(boundaries)), boundaries))


def _difference(i: int, rows: list, ids: list[str], got: bytes, want: bytes, L: int) -> str:
    """Name the first plane in which a sample read differs from its rendering."""
    if got[: 4 * L] != want[: 4 * L]:
        off = next(k for k in range(L) if got[4 * k : 4 * k + 4] != want[4 * k : 4 * k + 4])
        for k, start, end, offset in rows:
            if offset <= off < offset + (end - start):
                return f"sample {i} doc {ids[k]}: tokens differ from the store"
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
    import hashlib  # here, not at the top: it maps OpenSSL (~3.6 MB RSS) into every command

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
    plan = manifest.samples
    if L != cfg.context_length or sample_count != len(plan):
        raise DecodeError(
            f"manifest/stream mismatch: stream has {sample_count} samples of "
            f"length {L}, manifest has {len(plan)} of "
            f"length {cfg.context_length}"
        )

    zero_mask = 0
    for i, (rows, separators) in enumerate(plan):
        try:
            want = _render(i, rows, separators, plan.ids, token_store, cfg, mask_separators)
        except EmitError as exc:
            raise DecodeError(str(exc)) from None
        got = read(len(want), f"sample {i}")
        if got != want:
            raise DecodeError(_difference(i, rows, plan.ids, got, want, L))
        zero_mask += want.count(0, 4 * L, 5 * L)

    if stream.read(1):
        raise DecodeError("trailing bytes after final sample")
    checksum = digest.hexdigest()
    if expected_checksum is not None and checksum != expected_checksum:
        raise DecodeError("checksum mismatch")
    return DecodeResult(zero_mask, checksum)
