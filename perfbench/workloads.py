"""Workload definitions and the seeded corpus generator.

Each workload is one synthetic corpus shape plus the packing config the
benchmark runs on it.  The generator is the only place inputs come
from: the same workload and seed give byte-identical corpus and token
store files, and seqpack sees nothing but those files.

Why these three (one per length distribution of the project roadmap):

* ``short_docs`` - log-normal lengths, median ~300 tokens, ~3% longer
  than L.  Per-document and per-placement Python work dominates: ingest,
  the best_fit planner, metrics, manifest JSON, verify, token-store
  lookups and decode reassembly.
* ``long_docs`` - Pareto-tailed lengths, most longer than L and split
  into chunks.  Few documents, many bytes: emit and peak RSS track the
  output size, and interpreter start-up is a large share of each
  command.  Planner changes should not move it.
* ``plan_only`` - lengths uniform in [1, 2L], no token store, no emit.
  The paper's "plan from lengths" use at the highest placement count
  per input byte; the bypass case for any emit change.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CORPUS_NAME = "corpus.jsonl"
TOKENS_NAME = "tokens.bin"
_VOCAB = 50257  # ids 0 and 1 are the default pad and separator ids


@dataclass(frozen=True)
class Workload:
    name: str
    context_length: int
    strategy: str
    full: bool  # True: corpus carries token refs and the pipeline emits
    distribution: str  # "lognormal" | "pareto" | "uniform"
    documents: int  # document count (lognormal, uniform)
    token_budget: int = 0  # total corpus tokens (pareto)


# Sizes are scaled down from the 1e5-document corpora of the roadmap so
# that one pass of all commands takes 1-3 s on a 2-vCPU machine and one
# run holds 10-25 passes, whose median is steady from seed to seed.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("short_docs", 2048, "best_fit", True, "lognormal", documents=10_000),
        Workload(
            "long_docs", 8192, "concat_then_split", True, "pareto",
            documents=0, token_budget=5_000_000,
        ),
        Workload("plan_only", 2048, "restart_last_document", False, "uniform", documents=10_000),
    )
}


def _rng(workload: Workload, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.name.encode()), seed, stream])


def document_lengths(workload: Workload, seed: int) -> np.ndarray:
    """Seeded document lengths (int64, every entry >= 1)."""
    rng = _rng(workload, seed, 0)
    L = workload.context_length
    if workload.distribution == "lognormal":
        # median 300; sigma 1.02 puts ~3% of documents above L = 2048
        raw = rng.lognormal(np.log(300.0), 1.02, workload.documents)
        return np.clip(np.rint(raw), 1, 8 * L).astype(np.int64)
    if workload.distribution == "uniform":
        return rng.integers(1, 2 * L, workload.documents, endpoint=True, dtype=np.int64)
    if workload.distribution == "pareto":
        # classic Pareto, minimum 0.85 L, alpha 3: ~60% of documents
        # exceed L; clipping at 16 L keeps one draw from owning the corpus.
        # Documents are drawn until the token budget is reached, so the
        # corpus size (and hence emitted bytes) barely varies with the seed.
        chunk = max(16, workload.token_budget // L)
        lengths: list[np.ndarray] = []
        total = 0
        while total < workload.token_budget:
            raw = 0.85 * L * (1.0 + rng.pareto(3.0, chunk))
            part = np.clip(np.rint(raw), 1, 16 * L).astype(np.int64)
            lengths.append(part)
            total += int(part.sum())
        out = np.concatenate(lengths)
        keep = int(np.searchsorted(np.cumsum(out), workload.token_budget)) + 1
        return out[: min(keep, len(out))]
    raise ValueError(f"unknown distribution {workload.distribution!r}")


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the corpus (and, in full mode, its token store) into
    ``out_dir``; return a summary of what was written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lengths = document_lengths(workload, seed)
    lines = []
    if workload.full:
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1])) * 4
        for i, (n, off) in enumerate(zip(lengths.tolist(), offsets.tolist())):
            lines.append(
                f'{{"doc_id": "d{i:07d}", "length": {n}, '
                f'"token_file": "{TOKENS_NAME}", "offset": {off}}}\n'
            )
        tokens = _rng(workload, seed, 1).integers(
            2, _VOCAB, int(lengths.sum()), dtype=np.uint32
        )
        tokens.astype("<u4").tofile(out_dir / TOKENS_NAME)
    else:
        for i, n in enumerate(lengths.tolist()):
            lines.append(f'{{"doc_id": "d{i:07d}", "length": {n}}}\n')
    (out_dir / CORPUS_NAME).write_text("".join(lines), encoding="utf-8")
    L = workload.context_length
    return {
        "documents": int(len(lengths)),
        "tokens": int(lengths.sum()),
        "over_length": int((lengths > L).sum()),
    }
