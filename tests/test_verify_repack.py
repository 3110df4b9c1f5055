"""CLI ``verify`` packs the corpus again and compares bytes: ``ok`` means
the manifest is what ``pack`` writes for this corpus and the manifest's
config, and the structural checks explain any difference.  ``emit`` makes
the same check and goes on exactly where ``verify`` prints ``ok``."""

from __future__ import annotations

import io
import json
import random
from dataclasses import replace
from itertools import zip_longest

import pytest

from seqpack import (
    CorpusError,
    CorpusSummary,
    DocumentRecord,
    FileTokenStore,
    LongDocPolicy,
    ManifestError,
    PackingManifest,
    Strategy,
    cli,
    compute_metrics,
    emit_samples,
    ingest_corpus,
    manifest_from_json,
    manifest_io,
    manifest_to_json,
    pack_corpus,
    read_manifest,
    verify,
    verify_manifest,
    write_manifest,
)
from seqpack.cli import main

from util import (
    ALL_STRATEGIES,
    docs_from_lengths,
    make_config,
    plan_table,
    samples_of,
    random_lengths,
    structural_violations,
    write_lengths_corpus,
    write_token_corpus,
)

_LAYOUT = "manifest file is not in the layout pack writes"
_PLAN_MUTANTS = ("swap", "reverse", "close_early")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _verify(capsys, corpus, manifest):
    return _run(capsys, ["verify", str(corpus), "--manifest", str(manifest)])


# -- the re-pack path ---------------------------------------------------------


def _refuse(*args, **kwargs):
    raise AssertionError("the structural path ran")


def _pin_repack_path(monkeypatch) -> list:
    """Make the structural path raise, and return the list each
    ``ingest_corpus`` call of the CLI appends its path to."""
    monkeypatch.setattr(cli, "read_manifest", _refuse)
    monkeypatch.setattr(manifest_io, "manifest_from_json", _refuse)
    monkeypatch.setattr(cli, "verify_manifest", _refuse)
    ingests = []
    real = cli.ingest_corpus

    def counted(path, *args, **kwargs):
        ingests.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(cli, "ingest_corpus", counted)
    return ingests


@pytest.mark.parametrize("no_final_drop", [False, True], ids=["drop", "keep"])
@pytest.mark.parametrize("strategy", [s.value for s in ALL_STRATEGIES])
def test_ok_on_pack_output_takes_the_repack_path(tmp_path, capsys, monkeypatch, strategy, no_final_drop):
    rng = random.Random(12)
    corpus = write_lengths_corpus(tmp_path, [rng.randint(1, 30) for _ in range(60)])
    out = tmp_path / "m.json"
    argv = ["pack", "--context-length", "12", "--strategy", strategy, str(corpus), "--out", str(out)]
    assert _run(capsys, argv + ["--no-final-drop"] * no_final_drop)[0] == 0
    ingests = _pin_repack_path(monkeypatch)
    assert _verify(capsys, corpus, out) == (0, "ok\n", "")
    assert ingests == [str(corpus)]


@pytest.mark.parametrize("no_final_drop", [False, True], ids=["drop", "keep"])
@pytest.mark.parametrize("strategy", [s.value for s in ALL_STRATEGIES])
def test_emit_of_pack_output_takes_the_repack_path(tmp_path, capsys, monkeypatch, strategy, no_final_drop):
    # documents up to 30 tokens at L=12 split, so derived chunks reach the
    # store; the samples are those the manifest as read and verify's table give
    rng = random.Random(13)
    corpus, _ = write_token_corpus(tmp_path, [rng.randint(1, 30) for _ in range(60)], rng)
    out = tmp_path / "m.json"
    argv = ["pack", "--context-length", "12", "--strategy", strategy, str(corpus), "--out", str(out)]
    assert _run(capsys, argv + ["--no-final-drop"] * no_final_drop)[0] == 0
    manifest, docs = read_manifest(out), ingest_corpus(corpus, mode="full")
    report = verify_manifest(manifest, docs)
    assert report.ok and len(report.retained) > len(docs)
    with FileTokenStore(report.retained, base_dir=tmp_path) as store:
        stream = io.BytesIO()
        summary = emit_samples(manifest, store, stream)
    ingests = _pin_repack_path(monkeypatch)
    samples = tmp_path / "s.bin"
    code, stdout, stderr = _run(capsys, ["emit", str(corpus), "--manifest", str(out), "--out", str(samples),
                                         "--decode-check"])
    assert (code, stderr) == (0, "")
    assert stdout == (f"samples={summary.samples_written} tokens={summary.tokens_written} "
                      f"checksum=sha256:{summary.checksum}\n"
                      f"decode-check: ok ({len(set(manifest.samples.doc))} documents)\n")
    assert samples.read_bytes() == stream.getvalue()
    assert ingests == [str(corpus)]


def test_a_head_longer_than_a_chunk_takes_the_repack_path(tmp_path, capsys, monkeypatch):
    # the dropped ids alone make the head ~94 KB, past the 64 KiB the
    # head reader takes at a time
    lengths = [9 if i % 3 else 3 for i in range(3000)]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"doc_id": f"{'x' * 40}{i}", "length": n}) + "\n" for i, n in enumerate(lengths)
    ))
    out = tmp_path / "m.json"
    argv = ["pack", "--context-length", "8", "--strategy", "pld", "--long-doc", "drop",
            str(corpus), "--out", str(out)]
    assert _run(capsys, argv)[0] == 0
    assert out.read_bytes().index(b',"samples":[') > 1 << 16
    ingests = _pin_repack_path(monkeypatch)
    assert _verify(capsys, corpus, out) == (0, "ok\n", "")
    assert ingests == [str(corpus)]


@pytest.mark.parametrize("straddle", range(len(',"samples":[') + 1))
def test_the_head_reader_finds_a_marker_across_chunks(tmp_path, capsys, straddle):
    # spaces after the opening brace put the marker's first byte `straddle`
    # bytes before the end of the head reader's first 64 KiB
    corpus = write_lengths_corpus(tmp_path, [3, 4, 2])
    out = tmp_path / "m.json"
    argv = ["pack", "--context-length", "5", "--strategy", "cts", str(corpus), "--out", str(out)]
    assert _run(capsys, argv)[0] == 0
    text = out.read_text()
    pad = (1 << 16) - straddle - text.index(',"samples":[')
    out.write_text("{" + " " * pad + text[1:])
    assert manifest_io._head_config(out) == read_manifest(out).config


# -- error precedence ---------------------------------------------------------


def _manifest_file(tmp_path, capsys, corpus, kind):
    path = tmp_path / "m.json"
    if kind == "missing":
        return path
    if kind == "not_utf8":
        path.write_bytes(b'{"format": "\xff"}')
        return path
    argv = ["pack", "--context-length", "5", "--strategy", "pld", str(corpus), "--out", str(path)]
    assert _run(capsys, argv)[0] == 0
    if kind == "malformed_sample":  # the head still parses, so the re-pack runs first
        path.write_text(path.read_text().replace('"index":1,', '"index":"1",', 1))
    return path


@pytest.mark.parametrize("corpus_kind", ["malformed", "valid"])
@pytest.mark.parametrize("manifest_kind", ["missing", "not_utf8", "malformed_sample", "valid"])
def test_errors_keep_their_precedence(tmp_path, capsys, manifest_kind, corpus_kind):
    # the manifest is read before the corpus, as it always was: a manifest
    # error wins over a corpus error, whatever the re-pack path does first
    corpus = write_lengths_corpus(tmp_path, [3, 4, 2, 3])
    manifest = _manifest_file(tmp_path, capsys, corpus, manifest_kind)
    if corpus_kind == "malformed":
        corpus.write_text(corpus.read_text() + "{broken\n")
    try:
        read_manifest(manifest)
        ingest_corpus(corpus)
    except (ManifestError, CorpusError) as exc:
        expected = (exc.exit_code, "", f"error: {exc}\n")
    else:
        expected = (0, "ok\n", "")
    assert _verify(capsys, corpus, manifest) == expected


# -- what pack never writes, though the structural checks accept it ----------


def _swapped(samples, lengths):
    """Two whole documents of equal length, each placed once, traded
    between two samples; ``None`` where there are no such two."""
    where = {}
    for i, (placements, _) in enumerate(samples):
        for j, (doc_id, start, end, _) in enumerate(placements):
            where.setdefault(doc_id, []).append((i, j, start == 0 and end == lengths[doc_id]))
    whole = [(doc_id, *spots[0][:2]) for doc_id, spots in where.items()
             if len(spots) == 1 and spots[0][2]]
    for a, (doc_a, i, j) in enumerate(whole):
        for doc_b, k, m in whole[a + 1:]:
            if i != k and lengths[doc_a] == lengths[doc_b]:
                edited = [[list(placements), separators] for placements, separators in samples]
                edited[i][0][j] = (doc_b, *samples[i][0][j][1:])
                edited[k][0][m] = (doc_a, *samples[k][0][m][1:])
                return [(tuple(p), s) for p, s in edited]
    return None


def _closed_early(samples):
    """The first sample of two or more placements closed after its first,
    although the next document still fits: the rest opens a new sample."""
    for i, (placements, separators) in enumerate(samples):
        if len(placements) > 1:
            cut = placements[1][3]
            first = (placements[:1], tuple(s for s in separators if s < cut))
            rest = (
                tuple((doc_id, start, end, offset - cut) for doc_id, start, end, offset in placements[1:]),
                tuple(s - cut for s in separators if s >= cut),
            )
            return [*samples[:i], first, rest, *samples[i + 1:]]
    return None


def _file_mutants(text):
    """(name, text) of manifest files whose plan is pack's, laid out otherwise."""
    yield "second_samples_key", '{"samples":[],' + text[1:]
    yield "trailing_newline", text + "\n"
    yield "indented", json.dumps(json.loads(text), indent=1, sort_keys=True)


def mutants_of_packs_output(directory, strategy, seeds=range(8)):
    """Write a seeded small corpus per seed, and per mutant of the manifest
    pack gives it, the mutant's file, under ``directory``; yield (mutant
    name, corpus path, manifest path, the line verify prints for it where
    the structural checks find nothing).  Plan mutants have their metrics
    recomputed and are written as pack writes; file mutants hold pack's
    plan in another layout."""
    n = 0
    for seed in seeds:
        rng = random.Random(seed)
        lengths = {f"d{i}": rng.randint(1, 6) for i in range(rng.randint(12, 30))}
        docs = [DocumentRecord(doc_id, length) for doc_id, length in lengths.items()]
        corpus = write_lengths_corpus(directory, lengths.values(), name=f"c{seed}.jsonl")
        for keep_tail in (False, True):
            cfg = make_config(strategy, 16, drop_final_partial=not keep_tail)
            packed = pack_corpus(docs, cfg)
            samples = samples_of(packed.samples)
            plans = {"swap": _swapped(samples, lengths)}
            if keep_tail:
                plans["reverse"] = samples[::-1]
            if strategy in (Strategy.PAD_LAST_DOCUMENT, Strategy.BEST_FIT):
                plans["close_early"] = _closed_early(samples)
            for name, mutant in plans.items():
                if mutant is None or mutant == samples:
                    continue
                n += 1
                path = directory / f"m{n}.json"
                plan = plan_table(mutant)
                metrics = compute_metrics(plan, docs, cfg.context_length)
                write_manifest(replace(packed, samples=plan, metrics=metrics), path)
                first = next(i for i, (a, b) in enumerate(zip_longest(mutant, samples)) if a != b)
                yield name, corpus, path, f"sample {first} differs from the plan this corpus gives"
            write_manifest(packed, directory / "packed.json")
            for name, text in _file_mutants((directory / "packed.json").read_text()):
                n += 1
                path = directory / f"m{n}.json"
                path.write_text(text)
                yield name, corpus, path, _LAYOUT


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.value)
def test_verify_rejects_every_mutant_of_packs_output(tmp_path, capsys, strategy):
    seen = set()
    for name, corpus, path, line in mutants_of_packs_output(tmp_path, strategy):
        seen.add(name)
        code, stdout, stderr = _verify(capsys, corpus, path)
        structural = verify_manifest(read_manifest(path), ingest_corpus(corpus)).violations
        want = [str(v) for v in structural] or [line]
        assert (code, stdout.splitlines(), stderr) == (1, want, ""), (name, path.name)
    kinds = {"swap", "reverse", "second_samples_key", "trailing_newline", "indented"}
    if strategy in (Strategy.PAD_LAST_DOCUMENT, Strategy.BEST_FIT):
        kinds.add("close_early")
    assert seen == kinds


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.value)
def test_the_library_and_emit_reject_every_mutant(tmp_path, capsys, strategy):
    # verify_manifest judges a plan as CLI verify does (the structural checks
    # alone accepted 112 of these 128 plan mutants), and emit proceeds exactly
    # where verify prints ok: it refuses every mutant, a file mutant for its
    # layout, with verify's first line, and emits pack's own file
    seen, full = set(), {}
    for name, corpus, path, _ in mutants_of_packs_output(tmp_path, strategy):
        seen.add(name)
        docs = ingest_corpus(corpus)
        report = verify_manifest(read_manifest(path), docs)
        code, stdout, _ = _verify(capsys, corpus, path)
        lines = stdout.splitlines()
        if name in _PLAN_MUTANTS:
            assert not report.ok, (name, path.name)
            assert [str(v) for v in report.violations] == lines, (name, path.name)
        else:
            assert report.ok and lines == [_LAYOUT], (name, path.name)
        if corpus not in full:  # a full-mode corpus of the same lengths
            (tmp_path / corpus.stem).mkdir()
            full[corpus] = write_token_corpus(tmp_path / corpus.stem, [d.length for d in docs], random.Random(5))[0]
        out = tmp_path / "samples.bin"
        code, stdout, stderr = _run(capsys, ["emit", str(full[corpus]), "--manifest", str(path), "--out", str(out)])
        more = f" (and {len(lines) - 1} more)" if len(lines) > 1 else ""
        assert (code, stdout, stderr) == (2, "", f"error: manifest/corpus mismatch: {lines[0]}{more}\n"), name
        assert not out.exists()
        if name == "second_samples_key":  # the first file mutant: packed.json is this corpus's
            argv = ["emit", str(full[corpus]), "--manifest", str(tmp_path / "packed.json"), "--out", str(out)]
            assert _run(capsys, argv)[0] == 0, path.name
            out.unlink()
    kinds = {"swap", "reverse", "second_samples_key", "trailing_newline", "indented"}
    if strategy in (Strategy.PAD_LAST_DOCUMENT, Strategy.BEST_FIT):
        kinds.add("close_early")
    assert seen == kinds


def _no_structural_path(*args, **kwargs):
    raise AssertionError("the structural checks ran on pack's own output")


@pytest.mark.parametrize("policy, overlap", [(LongDocPolicy.SPLIT, None), (LongDocPolicy.SLIDE, 3),
                                             (LongDocPolicy.DROP, None)], ids=["split", "slide", "drop"])
@pytest.mark.parametrize("no_final_drop", [False, True], ids=["drop_tail", "keep_tail"])
@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.value)
def test_packs_output_never_takes_the_structural_path(monkeypatch, strategy, no_final_drop, policy, overlap):
    monkeypatch.setattr(verify, "_structural", _no_structural_path)
    docs = docs_from_lengths(random_lengths(random.Random(23), 50, 30))
    cfg = make_config(strategy, 12, long_doc_policy=policy, slide_overlap=overlap,
                      drop_final_partial=not no_final_drop)
    manifest = pack_corpus(docs, cfg)
    assert verify_manifest(manifest, docs).ok
    # as emit reads it: the manifest's JSON round trip equals pack's plan
    assert verify_manifest(manifest_from_json(manifest_to_json(manifest)), docs).ok


def test_pack_refusing_the_corpus_is_the_line(tmp_path, capsys):
    # best_fit at L=200000 puts 70000 one-token documents in one sample,
    # which pack refuses; a plan of two samples passes the structural checks
    lengths = {f"d{i}": 1 for i in range(70_000)}
    docs = [DocumentRecord(doc_id, n) for doc_id, n in lengths.items()]
    cfg = make_config(Strategy.BEST_FIT, 200_000, sep_after_every_doc=False)
    half = 35_000
    rows = [(doc_id, 0, 1, i % half) for i, doc_id in enumerate(lengths)]
    plan = plan_table([(tuple(rows[:half]), ()), (tuple(rows[half:]), ())])
    manifest = PackingManifest(
        cfg, CorpusSummary(len(docs), len(docs), ()), plan,
        compute_metrics(plan, docs, cfg.context_length), 0,
    )
    corpus = write_lengths_corpus(tmp_path, lengths.values())
    path = tmp_path / "m.json"
    write_manifest(manifest, path)
    assert not structural_violations(manifest, docs)
    assert _verify(capsys, corpus, path) == (
        1,
        "pack refuses this corpus with the manifest's config: sample 0: 70000 placements; "
        "the boundary plane holds at most 65535\n",
        "",
    )
