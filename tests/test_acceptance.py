"""End-to-end acceptance gate.

Each test here covers one release criterion and announces its verdict on
the terminal as ``[acceptance] <name>: PASS`` / ``FAIL`` so a full run
reads as a checklist.  The criteria pin:

1. padding-aware token budget scaling at the reference operating point,
2. exact-zero metric guarantees per strategy over a large random sweep,
3. best-fit never needing more samples than pad-last-document,
4. best-fit staying within the classic quality bound of the true optimum,
5. the hand-traced toy corpus metrics end-to-end through the CLI,
6. bit-exact emit/decode round-trips with mask-vs-padding agreement,
7. byte-identical outputs across independent processes,
8. exact agreement between the engine and the straight-line simulation,
9. packing throughput of a million documents on one core.
"""

from __future__ import annotations

import io
import math
import random
import subprocess
import sys
import time

import pytest

from seqpack import (
    DocumentRecord,
    InMemoryTokenStore,
    LongDocPolicy,
    PackingConfig,
    Strategy,
    decode_samples,
    emit_samples,
    pack_corpus,
    scaled_token_budget,
)
from seqpack.cli import main
from seqpack.longdoc import apply_policy

from oracle import brute_force_min_bins, simulate_reference
from util import (
    ALL_STRATEGIES,
    docs_from_lengths,
    make_config,
    samples_of,
    structural_violations,
    write_token_corpus,
)

_POLICIES = (LongDocPolicy.SPLIT, LongDocPolicy.SLIDE, LongDocPolicy.DROP)


@pytest.fixture(scope="module")
def announce(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _announce(name: str, ok: bool) -> None:
        line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)

    return _announce


def _random_corpus(rng: random.Random, count: int, max_len: int) -> list[DocumentRecord]:
    return [DocumentRecord(f"d{i}", rng.randint(1, max_len)) for i in range(count)]


@pytest.fixture(scope="module")
def sweep():
    """Shared random sweep: >=1000 corpora, lengths in [1, 4L],
    L in {16, 64, 256}, all long-document policies, packed with all four
    strategies.  Stores per-corpus summaries plus any guarantee
    violations; the wall-clock budget is asserted by its consumer."""
    rng = random.Random(20260817)
    contexts = (16, 64, 256)
    violations: list[str] = []
    pairs: list[tuple[int, int]] = []  # (best_fit samples, pad_last samples)
    corpora = 0
    t0 = time.perf_counter()
    for trial in range(1000):
        L = contexts[trial % len(contexts)]
        policy = _POLICIES[trial % len(_POLICIES)]
        # mostly small corpora for breadth, a few large ones for depth
        if trial < 3:
            count = 10_000
        elif trial % 50 == 0:
            count = rng.randint(1000, 3000)
        else:
            count = rng.randint(1, 150)
        docs = _random_corpus(rng, count, 4 * L)
        corpora += 1
        overlap = rng.choice((1, L // 4, L // 2)) if policy is LongDocPolicy.SLIDE else None
        per_strategy: dict[Strategy, int] = {}
        for strategy in ALL_STRATEGIES:
            cfg = PackingConfig(
                context_length=L,
                strategy=strategy,
                long_doc_policy=policy,
                slide_overlap=overlap,
            )
            m = pack_corpus(docs, cfg)
            per_strategy[strategy] = m.metrics.sample_count
            where = f"trial {trial} L={L} policy={policy.value} {strategy.value}"
            if strategy in (Strategy.CONCAT_THEN_SPLIT, Strategy.RESTART_LAST_DOCUMENT):
                if m.metrics.padding_rate != 0.0 or m.metrics.padding_token_count != 0:
                    violations.append(f"{where}: nonzero padding")
            else:
                if m.metrics.fragmentation_rate != 0.0 or m.metrics.fragmented_doc_count != 0:
                    violations.append(f"{where}: nonzero fragmentation")
            if strategy is not Strategy.CONCAT_THEN_SPLIT:
                for i, s in enumerate(m.samples):
                    _, start, _, offset = s.placements[0]
                    if offset != 0 or start != 0:
                        violations.append(f"{where}: sample {i} head rule")
                        break
        pairs.append(
            (per_strategy[Strategy.BEST_FIT], per_strategy[Strategy.PAD_LAST_DOCUMENT])
        )
    return {
        "violations": violations,
        "pairs": pairs,
        "corpora": corpora,
        "elapsed": time.perf_counter() - t0,
    }


def test_token_budget_scaling(announce):
    budget = scaled_token_budget(73 * 10**9, 0.1755)
    ok = abs(budget - 88.5e9) <= 0.05e9 and round(budget / 1e9) == 89
    announce("token-budget scaling (73G at 17.55% padding -> 88.5G)", ok)
    assert ok, f"budget={budget}"


def test_exact_zero_metric_guarantees(announce, sweep):
    ok = (
        not sweep["violations"]
        and sweep["corpora"] >= 1000
        and sweep["elapsed"] < 120.0
    )
    announce(
        f"exact-zero guarantees on {sweep['corpora']} corpora "
        f"({sweep['elapsed']:.1f}s)",
        ok,
    )
    assert sweep["corpora"] >= 1000
    assert sweep["elapsed"] < 120.0, f"sweep took {sweep['elapsed']:.1f}s"
    assert not sweep["violations"], sweep["violations"][:10]


def test_best_fit_never_needs_more_samples_than_padding(announce, sweep):
    bad = [(b, p) for b, p in sweep["pairs"] if b > p]
    ok = not bad and len(sweep["pairs"]) >= 1000
    announce(
        f"best_fit <= pad_last_document samples on all {len(sweep['pairs'])} corpora",
        ok,
    )
    assert ok, f"counterexamples: {bad[:5]}"


def test_best_fit_quality_bound(announce):
    rng = random.Random(40)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for _ in range(1000):
        cap = rng.choice((8, 16, 32, 64))
        items = [rng.randint(1, cap) for _ in range(rng.randint(1, 12))]
        opt = brute_force_min_bins(items, cap)
        cfg = PackingConfig(
            context_length=cap, strategy=Strategy.BEST_FIT, sep_after_every_doc=False
        )
        got = pack_corpus(docs_from_lengths(items), cfg).metrics.sample_count
        checked += 1
        worst = max(worst, got / opt)
        if got > math.ceil(11 * opt / 9) + 1:
            announce("best_fit within ceil(11/9 x optimum) + 1", False)
            raise AssertionError(f"items={items} cap={cap} got={got} opt={opt}")
    elapsed = time.perf_counter() - t0
    ok = checked >= 1000 and elapsed < 60.0
    announce(
        f"best_fit within ceil(11/9 x optimum) + 1 on {checked} instances "
        f"(worst ratio {worst:.3f}, {elapsed:.1f}s)",
        ok,
    )
    assert ok, f"checked={checked} elapsed={elapsed:.1f}s"


def test_toy_corpus_through_cli(announce, tmp_path, capsys):
    corpus = tmp_path / "toy.jsonl"
    corpus.write_text(
        '{"doc_id": "A", "length": 3}\n'
        '{"doc_id": "B", "length": 4}\n'
        '{"doc_id": "C", "length": 2}\n'
    )
    expected = {
        "concat_then_split": "strategy=concat_then_split samples=2 frag=0.6667 pad=0.0000",
        "restart_last_document": "strategy=restart_last_document samples=2 frag=0.3333 pad=0.0000",
        "pad_last_document": "strategy=pad_last_document samples=3 frag=0.0000 pad=0.2000",
        "best_fit": "strategy=best_fit samples=3 frag=0.0000 pad=0.2000",
    }
    ok = True
    got = {}
    for name, line in expected.items():
        out = tmp_path / f"{name}.json"
        code = main(
            ["pack", "--context-length", "5", "--strategy", name, str(corpus), "--out", str(out)]
        )
        stdout = capsys.readouterr().out.strip()
        got[name] = (code, stdout)
        ok = ok and code == 0 and stdout == line
        verify_code = main(["verify", str(corpus), "--manifest", str(out)])
        verify_out = capsys.readouterr().out.strip()
        ok = ok and verify_code == 0 and verify_out == "ok"
    announce("toy corpus [3,4,2] at L=5 end-to-end through the CLI", ok)
    assert ok, got


def test_emit_decode_round_trip_sweep(announce):
    rng = random.Random(41)
    failures: list[str] = []
    corpora = 0
    for trial in range(100):
        L = rng.choice((8, 16, 32))
        strategy = ALL_STRATEGIES[trial % 4]
        policy = _POLICIES[trial % 3]
        # keep the incomplete tail so every retained document is fully
        # reproducible from the stream
        cfg = PackingConfig(
            context_length=L,
            strategy=strategy,
            long_doc_policy=policy,
            slide_overlap=L // 4 if policy is LongDocPolicy.SLIDE else None,
            drop_final_partial=False,
        )
        flat: list[int] = []
        raw: list[DocumentRecord] = []
        for i in range(rng.randint(1, 60)):
            n = rng.randint(1, 3 * L)
            raw.append(DocumentRecord(f"d{i}", n, "mem", 4 * len(flat)))
            flat.extend(rng.randrange(2, 2**32) for _ in range(n))
        retained, _ = apply_policy(raw, cfg)
        corpora += 1
        manifest = pack_corpus(raw, cfg)
        store_map = {
            d.doc_id: flat[d.offset // 4 : d.offset // 4 + d.length]
            for d in retained
        }
        store = InMemoryTokenStore(store_map)
        sink = io.BytesIO()
        summary = emit_samples(manifest, store, sink)
        # decode compares every placed token with the store; the structural
        # checks make the placements cover every retained document
        result = decode_samples(io.BytesIO(sink.getvalue()), manifest, store, summary.checksum)
        where = f"trial {trial} {strategy.value} {policy.value} L={L}"
        if result.zero_mask_tokens != manifest.metrics.padding_token_count:
            failures.append(f"{where}: mask/padding disagree")
        placed = {doc_id for placements, _ in samples_of(manifest.samples) for doc_id, *_ in placements}
        if placed != {d.doc_id for d in retained}:
            failures.append(f"{where}: document set mismatch")
        if structural_violations(manifest, raw):
            failures.append(f"{where}: manifest fails the structural checks")
    ok = not failures and corpora >= 100
    announce(f"emit/decode round-trip on {corpora} token corpora", ok)
    assert ok, failures[:5]


def test_cross_process_determinism(announce, tmp_path):
    rng = random.Random(42)
    corpus, _ = write_token_corpus(tmp_path, [rng.randint(1, 20) for _ in range(40)], rng)
    env_manifests = []
    env_samples = []
    for run in ("one", "two"):
        mdir = tmp_path / run
        mdir.mkdir()
        manifest_path = mdir / "manifest.json"
        samples_path = mdir / "samples.bin"
        pack = subprocess.run(
            [
                sys.executable, "-m", "seqpack", "pack",
                "--context-length", "16", "--strategy", "best_fit",
                str(corpus), "--out", str(manifest_path),
            ],
            capture_output=True,
            text=True,
        )
        emit = subprocess.run(
            [
                sys.executable, "-m", "seqpack", "emit",
                str(corpus), "--manifest", str(manifest_path), "--out", str(samples_path),
            ],
            capture_output=True,
            text=True,
        )
        assert pack.returncode == 0, pack.stderr
        assert emit.returncode == 0, emit.stderr
        env_manifests.append(manifest_path.read_bytes())
        env_samples.append(samples_path.read_bytes())
    ok = env_manifests[0] == env_manifests[1] and env_samples[0] == env_samples[1]
    announce("independent processes produce byte-identical manifest and samples", ok)
    assert ok


def test_engine_matches_reference_simulation(announce, toy_docs):
    failures: list[str] = []
    for strategy in ALL_STRATEGIES:
        cfg = make_config(strategy)
        if simulate_reference(toy_docs, cfg, strategy) != pack_corpus(toy_docs, cfg).metrics:
            failures.append(f"toy {strategy.value}")
    rng = random.Random(43)
    corpora = 0
    for trial in range(500):
        L = rng.choice((5, 8, 16, 32))
        docs = _random_corpus(rng, rng.randint(1, 80), L)
        strategy = ALL_STRATEGIES[trial % 4]
        cfg = PackingConfig(
            context_length=L,
            strategy=strategy,
            sep_after_every_doc=rng.random() < 0.7,
            drop_final_partial=rng.random() < 0.7,
            online=(strategy is Strategy.BEST_FIT and rng.random() < 0.3),
        )
        corpora += 1
        if simulate_reference(docs, cfg, strategy) != pack_corpus(docs, cfg).metrics:
            failures.append(f"trial {trial} {strategy.value} L={L}")
    ok = not failures and corpora >= 500
    announce(f"engine equals reference simulation on fixtures + {corpora} corpora", ok)
    assert ok, failures[:5]


def test_million_document_throughput(announce):
    rng = random.Random(44)
    L = 2048
    docs = [DocumentRecord(str(i), rng.randint(1, L)) for i in range(1_000_000)]
    cfg = PackingConfig(context_length=L, strategy=Strategy.BEST_FIT)
    t0 = time.perf_counter()
    manifest = pack_corpus(docs, cfg)
    elapsed = time.perf_counter() - t0
    placed = sum(len(s.placements) for s in manifest.samples)
    ok = elapsed < 60.0 and placed == 1_000_000
    announce(
        f"best_fit packs 1e6 documents in {elapsed:.1f}s "
        f"({manifest.metrics.sample_count} samples)",
        ok,
    )
    assert placed == 1_000_000
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
