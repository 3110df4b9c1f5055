from __future__ import annotations

import json
import random

import pytest

from seqpack import ingest_corpus, read_manifest, verify_manifest
from seqpack.cli import main

from util import write_lengths_corpus, write_token_corpus

TOY = [3, 4, 2]


def _toy_corpus(tmp_path):
    return write_lengths_corpus(tmp_path, TOY)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pack_prints_summary_and_writes_manifest(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    out = tmp_path / "m.json"
    code, stdout, _ = _run(
        capsys,
        ["pack", "--context-length", "5", "--strategy", "pld", str(corpus), "--out", str(out)],
    )
    assert code == 0
    assert stdout == "strategy=pad_last_document samples=3 frag=0.0000 pad=0.2000\n"
    manifest = read_manifest(out)
    assert manifest.metrics.sample_count == 3
    assert verify_manifest(manifest, ingest_corpus(corpus)).ok


def test_pack_summary_lines_all_strategies(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    expected = {
        "cts": "strategy=concat_then_split samples=2 frag=0.6667 pad=0.0000\n",
        "rld": "strategy=restart_last_document samples=2 frag=0.3333 pad=0.0000\n",
        "pld": "strategy=pad_last_document samples=3 frag=0.0000 pad=0.2000\n",
        "bfp": "strategy=best_fit samples=3 frag=0.0000 pad=0.2000\n",
    }
    for alias, line in expected.items():
        out = tmp_path / f"{alias}.json"
        code, stdout, _ = _run(
            capsys,
            ["pack", "--context-length", "5", "--strategy", alias, str(corpus), "--out", str(out)],
        )
        assert code == 0
        assert stdout == line


def test_pack_no_final_drop(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    out = tmp_path / "m.json"
    code, stdout, _ = _run(
        capsys,
        [
            "pack", "--context-length", "5", "--strategy", "cts",
            "--no-final-drop", str(corpus), "--out", str(out),
        ],
    )
    assert code == 0
    assert stdout == "strategy=concat_then_split samples=3 frag=0.6667 pad=0.2000\n"


def test_pack_config_file_with_flag_override(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"context_length": 5, "strategy": "cts"}))
    out = tmp_path / "m.json"
    # flag overrides the config file's strategy
    code, stdout, _ = _run(
        capsys,
        ["pack", "--config", str(config), "--strategy", "pld", str(corpus), "--out", str(out)],
    )
    assert code == 0
    assert stdout.startswith("strategy=pad_last_document")


def test_pack_rejects_unknown_config_keys(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"context_length": 5, "strategy": "cts", "typo": 1}))
    code, _, stderr = _run(capsys, ["pack", "--config", str(config), str(corpus)])
    assert code == 1
    assert "unknown config keys: typo" in stderr


@pytest.mark.parametrize(
    "config, flags, message",
    [
        ({"context_length": "5"}, [], "context_length must be an integer in [0, 2**32), got '5'"),
        ({"context_length": 5.5}, [], "context_length must be an integer in [0, 2**32), got 5.5"),
        ({"context_length": 5, "separator_id": "x"}, [], "separator_id must be an integer in"),
        ({"context_length": 5}, ["--sep-id", "-1"], "separator_id must be an integer in"),
        ({"context_length": 5}, ["--pad-id", "4294967297"], "padding_id must be an integer in"),
    ],
    ids=["string_length", "float_length", "string_sep_id", "negative_sep_flag", "huge_pad_flag"],
)
def test_pack_rejects_mistyped_config(tmp_path, capsys, config, flags, message):
    corpus = _toy_corpus(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"strategy": "pld", **config}))
    out = tmp_path / "m.json"
    code, stdout, stderr = _run(
        capsys, ["pack", "--config", str(path), *flags, str(corpus), "--out", str(out)]
    )
    assert code == 1
    assert stdout == ""
    assert stderr.startswith(f"error: {message}")
    assert not out.exists()


def test_pack_requires_context_length(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    code, _, stderr = _run(capsys, ["pack", "--strategy", "cts", str(corpus)])
    assert code == 1
    assert "--context-length is required" in stderr


def test_pack_missing_corpus_is_exit_2(tmp_path, capsys):
    code, _, stderr = _run(
        capsys,
        ["pack", "--context-length", "5", "--strategy", "cts", str(tmp_path / "gone.jsonl")],
    )
    assert code == 2
    assert "gone.jsonl" in stderr


def test_pack_invalid_flag_combination_is_exit_1(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    code, _, stderr = _run(
        capsys,
        ["pack", "--context-length", "5", "--strategy", "pld", "--online", str(corpus)],
    )
    assert code == 1
    assert "online" in stderr
    out = tmp_path / "m.json"
    code, _, stderr = _run(
        capsys,
        ["pack", "--context-length", "5", "--strategy", "pld", "--slide-overlap", "-7",
         str(corpus), "--out", str(out)],
    )
    assert code == 1
    assert stderr == "error: slide_overlap applies only to the slide policy\n"
    assert not out.exists()


def test_unknown_strategy_is_exit_1(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    code, _, stderr = _run(
        capsys, ["pack", "--context-length", "5", "--strategy", "mystery", str(corpus)]
    )
    assert code == 1
    assert "unknown strategy" in stderr


def test_usage_error_is_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pack", "--context-length", "not-a-number", "x.jsonl"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_verify_ok_and_tampered(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    out = tmp_path / "m.json"
    _run(capsys, ["pack", "--context-length", "5", "--strategy", "bfp", str(corpus), "--out", str(out)])

    code, stdout, _ = _run(capsys, ["verify", str(corpus), "--manifest", str(out)])
    assert code == 0
    assert stdout == "ok\n"

    payload = json.loads(out.read_text())
    payload["metrics"]["padding_token_count"] = 0
    out.write_text(json.dumps(payload))
    code, stdout, _ = _run(capsys, ["verify", str(corpus), "--manifest", str(out)])
    assert code == 1
    assert "metrics mismatch" in stdout


def test_verify_corrupt_manifest_is_exit_2(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, stderr = _run(capsys, ["verify", str(corpus), "--manifest", str(bad)])
    assert code == 2
    assert "not valid JSON" in stderr


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, name, data, code, message",
    [
        ("pack", "corpus.jsonl", b'{"doc_id": "d0", "length": 3}\n{"doc_id": "\xff", "length": 4}\n',
         2, "line 2: malformed record"),
        ("pack", "corpus.jsonl", f'{{"doc_id": "d0", "length": 3}}\n{_DEEP}\n'.encode(),
         2, "line 2: malformed record"),
        ("verify", "m.json", b'{"format": "\xff"}', 2, "manifest is not valid JSON: "),
        ("verify", "m.json", _DEEP.encode(), 2, "manifest is not valid JSON: "),
        ("pack", "cfg.json", _DEEP.encode(), 1, "config file is not valid JSON: "),
    ],
    ids=["corpus_not_utf8", "corpus_deep", "manifest_not_utf8", "manifest_deep", "config_deep"],
)
def test_undecodable_input_is_an_error_not_a_traceback(
    tmp_path, capsys, command, name, data, code, message
):
    corpus = _toy_corpus(tmp_path)
    (tmp_path / name).write_bytes(data)
    if command == "verify":
        argv = ["verify", str(corpus), "--manifest", str(tmp_path / name)]
    else:
        out = tmp_path / "out.json"
        argv = ["pack", "--context-length", "5", "--strategy", "cts", str(corpus), "--out", str(out)]
        if name == "cfg.json":
            argv += ["--config", str(tmp_path / name)]
    got, stdout, stderr = _run(capsys, argv)
    assert (got, stdout) == (code, "")
    assert stderr.startswith(f"error: {message}")
    assert stderr.count("\n") == 1


@pytest.mark.parametrize(
    "target, reason",
    [("nodir/out.bin", "No such file or directory"), ("adir", "Is a directory")],
    ids=["missing_dir", "directory"],
)
@pytest.mark.parametrize("command", ["pack", "emit"])
def test_unwritable_out_is_exit_1(tmp_path, capsys, command, target, reason):
    corpus, _ = write_token_corpus(tmp_path, TOY, random.Random(5))
    manifest_path = tmp_path / "m.json"
    _run(
        capsys,
        ["pack", "--context-length", "5", "--strategy", "pld", str(corpus), "--out", str(manifest_path)],
    )
    (tmp_path / "adir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / target
    if command == "pack":
        argv = ["pack", "--context-length", "5", "--strategy", "pld", str(corpus), "--out", str(out)]
    else:
        argv = ["emit", str(corpus), "--manifest", str(manifest_path), "--out", str(out)]
    code, stdout, stderr = _run(capsys, argv)
    assert (code, stdout) == (1, "")
    assert stderr == f"error: cannot write {out}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_emit_with_decode_check(tmp_path, capsys):
    rng = random.Random(71)
    corpus, _ = write_token_corpus(tmp_path, TOY, rng)
    manifest_path = tmp_path / "m.json"
    _run(
        capsys,
        ["pack", "--context-length", "5", "--strategy", "pld", str(corpus), "--out", str(manifest_path)],
    )
    out = tmp_path / "samples.bin"
    code, stdout, _ = _run(
        capsys,
        ["emit", str(corpus), "--manifest", str(manifest_path), "--out", str(out), "--decode-check"],
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("samples=3 tokens=15 checksum=sha256:")
    assert lines[1] == "decode-check: ok (3 documents)"
    # 20-byte header; per sample: 20 token bytes, 5 mask bytes, 2+4 boundary bytes
    assert out.stat().st_size == 20 + 3 * (20 + 5 + 2 + 4)


def test_cts_kept_separator_only_sample_verifies_and_emits(tmp_path, capsys):
    # a 4-token document plus its separator is a k*L + 1 stream at L=4: the
    # kept final sample holds only the separator
    corpus, _ = write_token_corpus(tmp_path, [4], random.Random(76))
    manifest_path = tmp_path / "m.json"
    code, _, _ = _run(
        capsys,
        [
            "pack", "--context-length", "4", "--strategy", "cts", "--no-final-drop",
            str(corpus), "--out", str(manifest_path),
        ],
    )
    assert code == 0
    last = json.loads(manifest_path.read_text())["samples"][-1]
    assert (last["placements"], last["separators"]) == ([], [0])

    code, stdout, _ = _run(capsys, ["verify", str(corpus), "--manifest", str(manifest_path)])
    assert (code, stdout) == (0, "ok\n")
    out = tmp_path / "samples.bin"
    code, stdout, stderr = _run(
        capsys,
        ["emit", str(corpus), "--manifest", str(manifest_path), "--out", str(out), "--decode-check"],
    )
    assert (code, stderr) == (0, "")
    assert stdout.splitlines()[1] == "decode-check: ok (1 documents)"


def test_emit_is_deterministic_on_disk(tmp_path, capsys):
    rng = random.Random(72)
    corpus, _ = write_token_corpus(tmp_path, TOY, rng)
    manifest_path = tmp_path / "m.json"
    _run(
        capsys,
        ["pack", "--context-length", "5", "--strategy", "bfp", str(corpus), "--out", str(manifest_path)],
    )
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    _run(capsys, ["emit", str(corpus), "--manifest", str(manifest_path), "--out", str(a)])
    _run(capsys, ["emit", str(corpus), "--manifest", str(manifest_path), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_emit_lengths_only_corpus_is_exit_2(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    manifest_path = tmp_path / "m.json"
    _run(
        capsys,
        ["pack", "--context-length", "5", "--strategy", "pld", str(corpus), "--out", str(manifest_path)],
    )
    code, _, stderr = _run(capsys, ["emit", str(corpus), "--manifest", str(manifest_path)])
    assert code == 2
    assert "token_file" in stderr


def test_emit_detects_manifest_corpus_mismatch(tmp_path, capsys):
    rng = random.Random(73)
    corpus, _ = write_token_corpus(tmp_path, TOY, rng)
    manifest_path = tmp_path / "m.json"
    _run(
        capsys,
        ["pack", "--context-length", "5", "--strategy", "pld", str(corpus), "--out", str(manifest_path)],
    )
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    other, _ = write_token_corpus(other_dir, [3, 4, 2, 6], rng)
    code, _, stderr = _run(capsys, ["emit", str(other), "--manifest", str(manifest_path)])
    assert code == 2
    assert "manifest/corpus mismatch" in stderr


def _emit_with_moved_placement(tmp_path, capsys, offset):
    """Pack a 4-doc best_fit corpus, move d2 in the manifest's second
    sample (d1 at offset 0 with 4 tokens, d2 at offset 5 with 2 tokens,
    L=8) to ``offset``, then emit it."""
    rng = random.Random(74)
    corpus, _ = write_token_corpus(tmp_path, [3, 4, 2, 6], rng)
    manifest_path = tmp_path / "m.json"
    _run(
        capsys,
        ["pack", "--context-length", "8", "--strategy", "bfp", str(corpus), "--out", str(manifest_path)],
    )
    payload = json.loads(manifest_path.read_text())
    placements = payload["samples"][1]["placements"]
    assert [p[0] for p in placements] == ["d1", "d2"]
    placements[1][3] = offset
    manifest_path.write_text(json.dumps(payload))
    out = tmp_path / "samples.bin"
    code, _, stderr = _run(capsys, ["emit", str(corpus), "--manifest", str(manifest_path), "--out", str(out)])
    assert code == 2
    assert stderr.startswith("error: manifest/corpus mismatch: sample 1")
    assert "Traceback" not in stderr
    assert not out.exists()
    return stderr


def test_emit_rejects_overlapping_placements(tmp_path, capsys):
    stderr = _emit_with_moved_placement(tmp_path, capsys, offset=2)
    assert "overlapping spans" in stderr


def test_emit_rejects_offset_past_context_length(tmp_path, capsys):
    stderr = _emit_with_moved_placement(tmp_path, capsys, offset=9)
    assert "capacity exceeded" in stderr


def _pack_and_tamper(tmp_path, capsys, lengths, argv, edit):
    """Pack a token corpus with ``argv`` at L=5, apply ``edit`` to the
    manifest's JSON payload, and return the corpus and manifest paths."""
    corpus, _ = write_token_corpus(tmp_path, lengths, random.Random(75))
    manifest_path = tmp_path / "m.json"
    code, _, _ = _run(
        capsys,
        ["pack", "--context-length", "5", *argv, str(corpus), "--out", str(manifest_path)],
    )
    assert code == 0
    payload = json.loads(manifest_path.read_text())
    edit(payload)
    manifest_path.write_text(json.dumps(payload))
    return corpus, manifest_path


@pytest.mark.parametrize("dropped", [[], ["d3", "bogus"]], ids=["emptied", "bogus_id"])
def test_verify_and_emit_reject_wrong_dropped_list(tmp_path, capsys, dropped):
    # d3 is longer than L=5, so the drop policy removes it
    corpus, manifest_path = _pack_and_tamper(
        tmp_path, capsys, [3, 4, 2, 9], ["--strategy", "pld", "--long-doc", "drop"],
        lambda payload: payload["documents"].update(dropped=dropped),
    )
    code, stdout, _ = _run(capsys, ["verify", str(corpus), "--manifest", str(manifest_path)])
    assert code == 1
    assert stdout == "dropped documents differ\n"
    out = tmp_path / "samples.bin"
    code, _, stderr = _run(
        capsys, ["emit", str(corpus), "--manifest", str(manifest_path), "--out", str(out)]
    )
    assert code == 2
    assert stderr == "error: manifest/corpus mismatch: dropped documents differ\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda payload: payload["samples"][0].update(padding=[4]), "sample 0"),
        (lambda payload: payload["samples"][0]["placements"][0].__setitem__(3, "0"), "sample 0"),
        (lambda payload: payload["samples"][0].update(index=7), "sample 0"),
        (lambda payload: payload["samples"][0].update(padding=None), "sample 0"),
        (lambda payload: payload["documents"].update(count="3"), "documents.count"),
        (lambda payload: payload["documents"].update(dropped="ab"), "documents.dropped"),
        (lambda payload: payload.update(discarded_tail_tokens="0"), "discarded_tail_tokens"),
        (lambda payload: payload["metrics"].update(padding_token_count="3"), "metrics.padding_token_count"),
        (lambda payload: payload["config"].update(separator_id="x"), "separator_id"),
        (lambda payload: payload["config"].update(slide_overlap=-7), "slide_overlap"),
    ],
    ids=[
        "short_padding", "string_offset", "index_not_position", "null_padding",
        "string_count", "string_dropped", "string_discarded", "string_metric",
        "string_separator_id", "stray_slide_overlap",
    ],
)
@pytest.mark.parametrize("command", ["verify", "emit"])
def test_malformed_manifest_is_exit_2(tmp_path, capsys, edit, where, command):
    corpus, manifest_path = _pack_and_tamper(tmp_path, capsys, TOY, ["--strategy", "pld"], edit)
    argv = [command, str(corpus), "--manifest", str(manifest_path)]
    if command == "emit":
        argv += ["--out", str(tmp_path / "samples.bin")]
    code, stdout, stderr = _run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"error: malformed manifest: {where}")


def test_compare_table_and_json(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    code, stdout, _ = _run(capsys, ["compare", "--context-length", "5", str(corpus)])
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].split() == ["strategy", "samples", "tokens", "frag%", "pad%"]
    assert len(lines) == 5

    code, stdout, _ = _run(
        capsys, ["compare", "--context-length", "5", str(corpus), "--json", "--strategies", "pld,bfp"]
    )
    assert code == 0
    rows = json.loads(stdout)
    assert [r["strategy"] for r in rows] == ["pad_last_document", "best_fit"]
    assert rows[0]["padding_rate"] == pytest.approx(0.2)
    assert set(rows[0]) == {
        "strategy", "sample_count", "total_training_tokens", "fragmentation_rate", "padding_rate",
    }


def test_compare_online_applies_to_the_best_fit_row(tmp_path, capsys):
    # at L=10 best_fit packs these in 2 samples sorted, 3 in corpus order,
    # so the best_fit row shows whether --online reached it
    corpus = write_lengths_corpus(tmp_path, [3, 3, 5, 5])
    out = tmp_path / "m.json"
    code, _, _ = _run(
        capsys,
        ["pack", "--context-length", "10", "--strategy", "bfp", "--online", str(corpus),
         "--out", str(out)],
    )
    assert code == 0
    packed = read_manifest(out).metrics
    argv = ["compare", "--context-length", "10", str(corpus), "--json"]
    code, stdout, stderr = _run(capsys, argv + ["--online"])
    assert (code, stderr) == (0, "")
    online = json.loads(stdout)
    code, stdout, _ = _run(capsys, argv)
    offline = json.loads(stdout)
    assert online[-1] == {
        "strategy": "best_fit",
        "sample_count": packed.sample_count,
        "total_training_tokens": packed.total_training_tokens,
        "fragmentation_rate": packed.fragmentation_rate,
        "padding_rate": packed.padding_rate,
    }
    assert (packed.sample_count, offline[-1]["sample_count"]) == (3, 2)
    assert online[:-1] == offline[:-1]


@pytest.mark.parametrize(
    "config, flags",
    [({"strategy": "pld"}, ["--online"]), ({"strategy": "cts", "online": True}, [])],
    ids=["pld_file_online_flag", "cts_file_online_key"],
)
def test_compare_ignores_config_file_strategy(tmp_path, capsys, config, flags):
    corpus = write_lengths_corpus(tmp_path, [3, 3, 5, 5])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"context_length": 10, **config}))
    argv = ["compare", "--context-length", "10", str(corpus), "--json"]
    code, stdout, stderr = _run(capsys, ["compare", "--config", str(path), *flags, str(corpus), "--json"])
    assert (code, stderr) == (0, "")
    assert stdout == _run(capsys, argv + ["--online"])[1]
    path.write_text(json.dumps({"context_length": 10, "strategy": "mystery"}))
    code, _, stderr = _run(capsys, ["compare", "--config", str(path), str(corpus)])
    assert (code, stderr) == (1, "error: unknown strategy 'mystery'\n")


def test_stats_output(tmp_path, capsys):
    corpus = _toy_corpus(tmp_path)
    code, stdout, _ = _run(capsys, ["stats", str(corpus), "--context-length", "3"])
    assert code == 0
    assert "documents      3" in stdout
    assert "over length    1" in stdout


@pytest.mark.parametrize(
    "length, message",
    [
        ("-3", "context_length must be an integer in [0, 2**32), got -3"),
        ("1", "context_length must be at least 2, got 1"),
    ],
    ids=["negative", "one"],
)
def test_stats_rejects_context_length_pack_rejects(tmp_path, capsys, length, message):
    corpus = _toy_corpus(tmp_path)
    code, stdout, stderr = _run(capsys, ["stats", str(corpus), "--context-length", length])
    assert (code, stdout, stderr) == (1, "", f"error: {message}\n")
    code, _, pack_stderr = _run(
        capsys, ["pack", "--context-length", length, "--strategy", "bfp", str(corpus)]
    )
    assert (code, pack_stderr) == (1, stderr)


def test_module_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "seqpack", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "pack" in proc.stdout
