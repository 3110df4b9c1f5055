"""In-process tracing of seqpack's layers from outside the program.

The tracer replaces public seqpack functions with timing wrappers at
every call site it can see: each ``seqpack.*`` module attribute bound
to the original function is rebound to the wrapper, so calls through
``from .x import f`` copies and through module attributes are both
caught.  Spans are kept in memory as (name, start, end, parent, command
id) and written out by the caller at the end of the run.  Work counts
are taken from a call's arguments and result as it returns, inside a
``trace.count`` span, so the time they take lands in the tracing
overhead and not in any layer's self time.  A function or counter that
no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# (span name, defining module, attribute path)
TARGETS = (
    ("corpus.ingest_corpus", "seqpack.corpus", "ingest_corpus"),
    ("corpus.FileTokenStore.get", "seqpack.corpus", "FileTokenStore.get"),
    ("longdoc.apply_policy", "seqpack.longdoc", "apply_policy"),
    ("strategies.pack_corpus", "seqpack.strategies", "pack_corpus"),
    ("metrics.compute_metrics", "seqpack.metrics", "compute_metrics"),
    ("metrics.compare_strategies", "seqpack.metrics", "compare_strategies"),
    ("manifest_io.manifest_to_json", "seqpack.manifest_io", "manifest_to_json"),
    ("manifest_io.manifest_from_json", "seqpack.manifest_io", "manifest_from_json"),
    ("manifest_io.write_bytes_atomic", "seqpack.manifest_io", "write_bytes_atomic"),
    ("verify.verify_manifest", "seqpack.verify", "verify_manifest"),
    ("emitter.emit_samples", "seqpack.emitter", "emit_samples"),
    ("emitter.decode_samples", "seqpack.emitter", "decode_samples"),
)


@dataclass
class Tracer:
    """Spans and counts of one traced pass; install before, uninstall after."""

    spans: list = field(default_factory=list)  # (name, start, end, parent, command id)
    counts: dict = field(default_factory=dict)  # command id -> {counter: value}
    absent: set = field(default_factory=set)
    command_id: int = -1
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.command_id)

    def _wrap(self, name: str, fn):
        counted = name in _COUNTERS
        by_strategy = name == "strategies.pack_corpus"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if by_strategy:  # one span name per strategy: planner time by strategy
                cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
                strategy = getattr(getattr(cfg, "strategy", None), "value", None)
                if strategy is not None:
                    span_name = f"{name}.{strategy}"
            result = self.span(span_name, fn, *args, **kwargs)
            if counted:
                self.span("trace.count", self._count, name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; record targets that no longer exist."""
        seqpack_modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "seqpack" or n.startswith("seqpack."))
        ]
        for name, module_name, attr in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original)
            if path:  # a method: patch the class itself
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in seqpack_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self) -> list[tuple[str, float, int]]:
        """(name, self time, command id) per span: duration minus the
        durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [
            (name, (t1 - t0) - child[i], cmd)
            for i, (name, t0, t1, _, cmd) in enumerate(self.spans)
        ]


    def _count(self, name: str, args: tuple, result) -> None:
        try:
            values = _COUNTERS[name](args, result)
        except (AttributeError, IndexError, TypeError, ZeroDivisionError) as exc:
            self.absent.add(f"{name} counter: {exc!r}")
            return
        counts = self.counts.setdefault(self.command_id, {})
        for key, value in values.items():  # ratios keep the latest value
            counts[key] = value if key.endswith("_ratio") else counts.get(key, 0) + value


def _chunks_derived(args, result):
    docs, cfg = args[0], args[1]
    fitting = sum(1 for d in docs if d.length <= cfg.context_length)
    return {"longdoc.chunks_derived": len(result[0]) - fitting}


def _useful_token_ratio(args, result):
    total = result.total_training_tokens
    return {"metrics.useful_token_ratio": (total - result.padding_token_count) / total}


# span name -> counters derived from (args, result) as the call returns
_COUNTERS = {
    "corpus.ingest_corpus": lambda args, result: {"corpus.docs_read": len(result)},
    "longdoc.apply_policy": _chunks_derived,
    "strategies.pack_corpus": lambda args, result: {
        "strategies.placements": sum(len(s.placements) for s in result.samples),
        "strategies.samples": len(result.samples),
    },
    "metrics.compute_metrics": _useful_token_ratio,
    "manifest_io.manifest_to_json": lambda args, result: {
        "manifest_io.manifest_bytes": len(result.encode("utf-8"))
    },
    "verify.verify_manifest": lambda args, result: {
        "verify.violations": len(result.violations)
    },
    "emitter.emit_samples": lambda args, result: {"emitter.sample_bytes": args[2].tell()},
}
