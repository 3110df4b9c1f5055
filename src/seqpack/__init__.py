"""Deterministic packing of tokenized documents into fixed-length
training samples: four arrangement strategies, long-document policies,
quality metrics, verifiable manifests, and bit-exact binary emission.
"""

from .corpus import (
    CorpusStats,
    FileTokenStore,
    InMemoryTokenStore,
    corpus_stats,
    ingest_corpus,
)
from .emitter import DecodeResult, EmitSummary, decode_samples, emit_samples
from .longdoc import apply_policy
from .manifest_io import (
    manifest_from_json,
    manifest_to_json,
    read_manifest,
    write_manifest,
)
from .metrics import (
    StrategyComparison,
    compare_strategies,
    compute_metrics,
    scaled_token_budget,
)
from .model import (
    ConfigError,
    CorpusError,
    CorpusSummary,
    CorpusTable,
    DecodeError,
    DocumentRecord,
    EmitError,
    LongDocPolicy,
    ManifestError,
    PackingConfig,
    PackingError,
    PackingManifest,
    PackingMetrics,
    PlanTable,
    Strategy,
    effective_length,
)
from .strategies import pack_corpus
from .verify import VerificationReport, Violation, verify_manifest

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CorpusError",
    "CorpusStats",
    "CorpusSummary",
    "CorpusTable",
    "DecodeError",
    "DecodeResult",
    "DocumentRecord",
    "EmitError",
    "EmitSummary",
    "FileTokenStore",
    "InMemoryTokenStore",
    "LongDocPolicy",
    "ManifestError",
    "PackingConfig",
    "PackingError",
    "PackingManifest",
    "PackingMetrics",
    "PlanTable",
    "Strategy",
    "StrategyComparison",
    "VerificationReport",
    "Violation",
    "apply_policy",
    "compare_strategies",
    "compute_metrics",
    "corpus_stats",
    "decode_samples",
    "effective_length",
    "emit_samples",
    "ingest_corpus",
    "manifest_from_json",
    "manifest_to_json",
    "pack_corpus",
    "read_manifest",
    "scaled_token_budget",
    "verify_manifest",
    "write_manifest",
]
