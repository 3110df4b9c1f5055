"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests -q)."""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pipeline
import run
from workloads import CORPUS_NAME, TOKENS_NAME, WORKLOADS, generate

ROOT = Path(run.__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = 0.02


def _tiny(name):
    """The workload at TINY times its size."""
    w = WORKLOADS[name]
    return replace(w, documents=max(1, round(w.documents * TINY)) if w.documents else 0,
                   token_budget=round(w.token_budget * TINY))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    workload = _tiny(name)
    a = generate(workload, 7, tmp_path / "a")
    b = generate(workload, 7, tmp_path / "b")
    c = generate(workload, 8, tmp_path / "c")
    files = [CORPUS_NAME, TOKENS_NAME] if workload.full else [CORPUS_NAME]
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert a == b
    assert (tmp_path / "a" / CORPUS_NAME).read_bytes() != (tmp_path / "c" / CORPUS_NAME).read_bytes()


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.fixture
def tiny_run(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_TRACE_PASSES", 1)
    monkeypatch.setattr(run, "STARTUP_SAMPLES", 1)
    monkeypatch.setitem(run.WORKLOADS, "short_docs", _tiny("short_docs"))
    monkeypatch.setitem(run.WORKLOADS, "long_docs", _tiny("long_docs"))
    monkeypatch.setitem(run.WORKLOADS, "plan_only", _tiny("plan_only"))

    def go(name, trace):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
        assert code == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return go


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_end_to_end(tiny_run, name):
    result = tiny_run(name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced(tiny_run, name):
    result = tiny_run(name, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["corpus.ingest_corpus.calls"] == len(pipeline.command_names(WORKLOADS[name]))
    assert metrics["longdoc.apply_policy.calls"] > 0
    assert metrics["verify.violations"] == 0
    assert metrics[f"strategies.pack_corpus.{WORKLOADS[name].strategy}.self_s"] > 0
    assert (metrics["emitter.sample_bytes"] > 0) == WORKLOADS[name].full


def _pass(tmp_path, runner=pipeline.run_command):
    workload = _tiny("short_docs")
    info = generate(workload, 5, tmp_path)
    env = pipeline.child_env(ROOT / "src")
    return pipeline.run_pass(workload, tmp_path, env, info["tokens"], runner=runner)


def test_corrupted_sample_file_is_a_failed_operation(tmp_path):
    def corrupting(name, argv, cwd, env):
        result = pipeline.run_command(name, argv, cwd, env)
        if name == "emit":
            path = cwd / pipeline.SAMPLES_NAME
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0xFF
            path.write_bytes(bytes(data))
        return result

    clean = _pass(tmp_path / "clean")
    assert not clean.failed, clean.errors
    corrupt = _pass(tmp_path / "corrupt", corrupting)
    assert corrupt.failed == {"emit"}, corrupt.errors
    ledger = run.Ledger()
    ledger.record(clean, pipeline.command_names(_tiny("short_docs")), "clean")
    ledger.record(corrupt, pipeline.command_names(_tiny("short_docs")), "corrupt")
    assert (ledger.attempted, ledger.failed) == (8, 1)


def test_output_drift_between_passes_is_a_failed_operation(tmp_path):
    names = pipeline.command_names(_tiny("short_docs"))
    first = _pass(tmp_path)
    second = _pass(tmp_path)
    second.manifest_sha256 = "0" * 64  # as if pack wrote different bytes
    ledger = run.Ledger()
    assert ledger.record(first, names, "first")
    assert not ledger.record(second, names, "second")
    assert second.failed == {"pack"}


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_only", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
