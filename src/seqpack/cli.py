"""Command line interface.

Subcommands: ``pack``, ``compare``, ``verify``, ``emit``, ``stats``.
Exit codes: 0 success, 1 configuration error (bad flags or config
file, conflicting options, verification failures), 2 corpus or
manifest/stream errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from .corpus import FileTokenStore, corpus_stats, ingest_corpus, render_stats
from .emitter import decode_samples, emit_samples
from .manifest_io import _head_config, _is_written_form, read_manifest, write_bytes_atomic, write_manifest
from .metrics import compare_strategies
from .model import ConfigError, CorpusTable, EmitError, PackingConfig, PackingError, Strategy
from .strategies import pack_corpus
from .verify import verify_manifest

EXIT_OK = 0
EXIT_CONFIG = ConfigError.exit_code

_STRATEGY_ALIASES = {
    **{s.value: s for s in Strategy},
    "cts": Strategy.CONCAT_THEN_SPLIT,
    "concat": Strategy.CONCAT_THEN_SPLIT,
    "rld": Strategy.RESTART_LAST_DOCUMENT,
    "pld": Strategy.PAD_LAST_DOCUMENT,
    "bfp": Strategy.BEST_FIT,
}

_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(PackingConfig))


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # corpus error code; route everything through the config error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _parse_strategy(name: object) -> Strategy:
    try:  # a config file may hold any JSON value here
        return _STRATEGY_ALIASES[str(name).lower()]
    except KeyError:
        raise ConfigError(f"unknown strategy {name!r}") from None


def _add_config_flags(p: argparse.ArgumentParser, with_strategy: bool = True) -> None:
    """Every flag but --config stores to the PackingConfig field it sets."""
    p.add_argument("--config", metavar="FILE", help="JSON config file; flags override it")
    p.add_argument("--context-length", type=int, metavar="L")
    if with_strategy:
        p.add_argument("--strategy", metavar="NAME", help="cts|rld|pld|best_fit (full names accepted)")
    p.add_argument("--long-doc", dest="long_doc_policy", metavar="POLICY", help="split|slide|drop (default split)")
    p.add_argument("--slide-overlap", type=int, metavar="N")
    p.add_argument("--sep-id", dest="separator_id", type=int, metavar="ID")
    p.add_argument("--pad-id", dest="padding_id", type=int, metavar="ID")
    p.add_argument("--no-final-drop", dest="drop_final_partial", action="store_const", const=False,
                   help="keep and pad the incomplete final sample")
    p.add_argument("--online", action="store_true", default=None,
                   help="best_fit only: place documents in corpus order")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seqpack",
        description="Pack tokenized documents into fixed-length training samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pack = sub.add_parser("pack", help="pack a corpus and write a manifest")
    _add_config_flags(pack)
    pack.add_argument("corpus", help="line-delimited corpus file")
    pack.add_argument("--out", default="manifest.json", metavar="FILE")
    pack.set_defaults(func=_cmd_pack)

    compare = sub.add_parser("compare", help="pack one corpus with several strategies")
    _add_config_flags(compare, with_strategy=False)
    compare.add_argument("corpus")
    compare.add_argument(
        "--strategies",
        default=",".join(s.value for s in Strategy),
        metavar="LIST",
        help="comma-separated strategy names",
    )
    compare.add_argument("--json", action="store_true", help="print machine-readable rows")
    compare.set_defaults(func=_cmd_compare)

    verify = sub.add_parser("verify", help="re-check a manifest against its corpus")
    verify.add_argument("corpus")
    verify.add_argument("--manifest", required=True, metavar="FILE")
    verify.set_defaults(func=_cmd_verify)

    emit = sub.add_parser("emit", help="materialize binary samples from a manifest")
    emit.add_argument("corpus", help="corpus with token_file/offset records")
    emit.add_argument("--manifest", required=True, metavar="FILE")
    emit.add_argument("--out", default="samples.bin", metavar="FILE")
    emit.add_argument("--mask-separators", action="store_true",
                      help="exclude separator tokens from the loss mask")
    emit.add_argument("--decode-check", action="store_true",
                      help="decode the written stream and compare against the store")
    emit.set_defaults(func=_cmd_emit)

    stats = sub.add_parser("stats", help="corpus length statistics")
    stats.add_argument("corpus")
    stats.add_argument("--context-length", type=int, metavar="L")
    stats.set_defaults(func=_cmd_stats)

    return parser


def _build_config(args: argparse.Namespace, strategy_required: bool = True) -> PackingConfig:
    values: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values.update(loaded)

    for field in dataclasses.fields(PackingConfig):  # flags override the file
        value = getattr(args, field.name, None)
        if value is not None:
            values[field.name] = value

    if "strategy" in values:
        values["strategy"] = _parse_strategy(values["strategy"])
    if values.get("context_length") is None:
        raise ConfigError("--context-length is required")
    if not strategy_required:
        # compare's template: every row replaces the strategy, and best_fit
        # is the one strategy every other field is valid with
        values["strategy"] = Strategy.BEST_FIT
    elif "strategy" not in values:
        raise ConfigError("--strategy is required")
    return PackingConfig(**values)


def _refuse_input_as_out(out: str, inputs: Iterable[str | Path]) -> None:
    """``ConfigError`` if ``out`` exists and is the same file as one of
    ``inputs``: replacing it would destroy an input the command reads."""
    for path in inputs:
        try:
            same = os.path.samefile(out, path)
        except OSError:  # either file is missing
            continue
        if same:
            raise ConfigError(f"--out {out} is an input of this command: {path}")


def _cmd_pack(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    _refuse_input_as_out(args.out, filter(None, (args.corpus, args.config)))
    docs = ingest_corpus(args.corpus)
    manifest = pack_corpus(docs, cfg)
    write_manifest(manifest, args.out)
    m = manifest.metrics
    print(
        f"strategy={cfg.strategy.value} samples={m.sample_count} "
        f"frag={m.fragmentation_rate:.4f} pad={m.padding_rate:.4f}"
    )
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    names = [s for s in args.strategies.split(",") if s]
    if not names:
        raise ConfigError("--strategies must name at least one strategy")
    strategies = [_parse_strategy(name) for name in names]
    cfg = _build_config(args, strategy_required=False)
    docs = ingest_corpus(args.corpus)
    comparison = compare_strategies(docs, cfg, strategies)
    if args.json:
        print(json.dumps(comparison.as_rows()))
    else:
        print(comparison.render())
    return EXIT_OK


def _repacked(args: argparse.Namespace) -> tuple[bool, CorpusTable | None]:
    """Pack the corpus again with the config in the manifest's head and
    compare the result with the file's bytes: whether they are equal, and
    the corpus as read, ``None`` where there is no config to pack with."""
    cfg = _head_config(args.manifest)
    if cfg is None:
        return False, None
    try:
        docs = ingest_corpus(args.corpus)
    except Exception:
        read_manifest(args.manifest)  # a manifest error comes first, as without the re-pack
        raise
    try:
        return _is_written_form(pack_corpus(docs, cfg), args.manifest), docs
    except PackingError:  # the structural checks report on this manifest
        return False, docs


def _cmd_verify(args: argparse.Namespace) -> int:
    # byte identity with what pack writes is the check; verify_manifest
    # explains a difference, and where it finds none, the layout differs
    same, docs = _repacked(args)
    if same:
        print("ok")
        return EXIT_OK
    manifest = read_manifest(args.manifest)
    if docs is None:
        docs = ingest_corpus(args.corpus)
    problems = verify_manifest(manifest, docs).violations or ["manifest file is not in the layout pack writes"]
    for problem in problems:
        print(problem)
    return EXIT_CONFIG


def _cmd_emit(args: argparse.Namespace) -> int:
    manifest = read_manifest(args.manifest)
    corpus_path = Path(args.corpus)
    docs = ingest_corpus(corpus_path, mode="full")
    stores = [corpus_path.parent / f for f in sorted(docs.files)]
    _refuse_input_as_out(args.out, [corpus_path, args.manifest, *stores])
    # emit checks sample layouts, not the plan against the corpus: verify first
    report = verify_manifest(manifest, docs)
    problems = report.violations
    if problems:
        more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
        raise EmitError(f"manifest/corpus mismatch: {problems[0]}{more}")
    # the retained rows name the derived chunks the plan places
    with FileTokenStore(report.retained, base_dir=corpus_path.parent) as store:
        summary = write_bytes_atomic(
            args.out,
            lambda fh: emit_samples(manifest, store, fh, mask_separators=args.mask_separators),
        )
        print(
            f"samples={summary.samples_written} tokens={summary.tokens_written} "
            f"checksum=sha256:{summary.checksum}"
        )
        if args.decode_check:
            with open(args.out, "rb") as fh:
                decode_samples(fh, manifest, store, summary.checksum, mask_separators=args.mask_separators)
            print(f"decode-check: ok ({len(set(manifest.samples.doc))} documents)")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    docs = ingest_corpus(args.corpus)
    print(render_stats(corpus_stats(docs, args.context_length)))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # a command's data makes no reference cycles, so the cyclic collector
    # would only walk every record and plan object again and again; it is
    # off for the command and back in the caller's state after
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            return args.func(args)
        except PackingError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
