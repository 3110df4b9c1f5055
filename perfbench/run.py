"""seqpack benchmark: CLI pipeline time, throughput and peak RSS.

Usage (from anywhere; the checkout is found from this file's location):

    python3 perfbench/run.py --workload short_docs --seed 1 --seconds 30 --trace 0

``--trace 0`` runs seqpack's real CLI commands as subprocesses, one at a
time, on a corpus generated from ``--seed``, for ``--seconds`` seconds,
checks every output and reports the end-to-end metrics.  ``--trace 1``
additionally calls ``seqpack.cli.main`` in-process with timing wrappers
on each layer and reports the per-layer metrics.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, digests, raw samples, spans) goes to
``perfbench/out/results/``.  Exit code 0 when a result was printed, 2
when the checkout holds no seqpack sources.

End-to-end metrics (medians over the run's passes):

* ``setup_s`` - generate the corpus from the seed plus one untimed
  warm-up pass; median of SETUPS set-ups.
* ``pack_s``, ``verify_s``, ``compare_s`` (and printed: ``emit_s``) - wall
  time of one command, interpreter start-up included.
* ``pipeline_mtok_s`` - corpus tokens / (pack + verify + emit) wall time.
* ``pack_peak_rss_mb``, ``peak_rss_mb`` (and printed: ``emit_peak_rss_mb``)
  - peak RSS of pack, and the largest over the pass's commands.

``perfbench/repeat.py`` runs several seeds and reports spreads;
``python3 -m pytest perfbench/tests -q`` tests the benchmark itself.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"  # work directories and result records (git-ignored)
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import pipeline  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import CORPUS_NAME, TOKENS_NAME, WORKLOADS, Workload, generate  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # measured passes per run, even when --seconds runs out first
MIN_TRACE_PASSES = 2
DEADLINE_S = 150  # no pass starts later than this, so a run ends within 180 s
STARTUP_SAMPLES = 5
STRATEGIES = pipeline.ALL_STRATEGIES.split(",")

END_TO_END = {  # name -> unit; emit_* and error_rate are printed, see below
    "setup_s": "s",
    "pack_s": "s",
    "verify_s": "s",
    "compare_s": "s",
    "pipeline_mtok_s": "Mtok/s",
    "pack_peak_rss_mb": "MB",
    "peak_rss_mb": "MB",
}
# Printed for every workload but not in the JSON metrics: they do not
# exist on plan_only (no emit) or are 0 on a correct run, and the JSON
# metrics must be present and non-zero on every workload.  error_rate
# is failed / attempted of the JSON line.
PRINTED_ONLY = {"emit_s": "s", "emit_peak_rss_mb": "MB", "error_rate": "ratio"}

PER_LAYER = {
    "cli.startup_s": "s",
    **{f"cli.{c}.self_s": "s" for c in ("pack", "verify", "emit", "compare")},
    "corpus.ingest_corpus.self_s": "s",
    "corpus.ingest_corpus.calls": "count",
    "corpus.FileTokenStore.get.self_s": "s",
    "corpus.FileTokenStore.get.calls": "count",
    "corpus.docs_read": "count",
    "longdoc.apply_policy.self_s": "s",
    "longdoc.apply_policy.calls": "count",
    "longdoc.chunks_derived": "count",
    **{f"strategies.pack_corpus.{s}.self_s": "s" for s in STRATEGIES},
    "strategies.placements": "count",
    "strategies.samples": "count",
    "metrics.compute_metrics.self_s": "s",
    "metrics.compute_metrics.calls": "count",
    "metrics.compare_strategies.self_s": "s",
    "metrics.useful_token_ratio": "ratio",
    "manifest_io.manifest_to_json.self_s": "s",
    "manifest_io.manifest_from_json.self_s": "s",
    "manifest_io.write_bytes_atomic.self_s": "s",
    "manifest_io.manifest_bytes": "bytes",
    "verify.verify_manifest.self_s": "s",
    "verify.violations": "count",
    "emitter.emit_samples.self_s": "s",
    "emitter.decode_samples.self_s": "s",
    "emitter.sample_bytes": "bytes",
    "trace.overhead_s": "s",
    # CLI wall time that neither start-up nor the in-process run explains:
    # heap growth in a fresh process and interpreter teardown at exit
    "trace.unaccounted_s": "s",
}


class Ledger:
    """Attempted and failed operations (one per command run) plus the
    byte identity of outputs across passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[str, str | None] | None = None

    def record(self, result: pipeline.PassResult, names: list[str], label: str) -> bool:
        digests = {"manifest_sha256": result.manifest_sha256,
                   "sample_sha256": result.sample_sha256}
        if self.reference is None and not result.failed:
            self.reference = digests
        elif self.reference is not None:
            for key, command in (("manifest_sha256", "pack"), ("sample_sha256", "emit")):
                if command in names and command not in result.failed \
                        and digests[key] != self.reference[key]:
                    result.fail(command, f"{key} {digests[key]} differs from the "
                                         f"first pass's {self.reference[key]}")
        self.attempted += len(names)
        self.failed += len(result.failed)
        self.errors.extend(f"{label}: {e}" for e in result.errors)
        return not result.failed


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


@dataclass
class Run:
    """One benchmark invocation: its inputs, its working directory and
    what it has recorded so far."""

    workload: Workload
    seed: int
    seconds: float
    work: Path
    env: dict
    ledger: Ledger
    record: dict
    deadline: float  # perf_counter time after which no new pass starts

    def keep_measuring(self, passes: int, min_passes: int, t_end: float) -> bool:
        now = time.perf_counter()
        if passes and now > self.deadline:
            return False
        return passes < min_passes or now < t_end


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def summary_line(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"  {name:<40} n/a"
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (f"  {name:<40} {median(values):>12.6g} {unit:<7} n={len(values)} "
            f"q1={q[0]:.6g} q3={q[2]:.6g} min={min(values):.6g} max={max(values):.6g}")


def set_up(run: Run, index: int) -> tuple[Path, dict, float]:
    """Generate the corpus into a fresh directory and make one untimed
    warm-up pass; return the directory, the corpus summary and the
    set-up time."""
    corpus_dir = run.work / f"setup{index}"
    t0 = time.perf_counter()
    info = generate(run.workload, run.seed, corpus_dir)
    warm = pipeline.run_pass(run.workload, corpus_dir, run.env, info["tokens"])
    elapsed = time.perf_counter() - t0
    run.ledger.record(warm, pipeline.command_names(run.workload), f"setup {index}")
    info["corpus_sha256"] = pipeline.sha256_file(corpus_dir / CORPUS_NAME)
    tokens = corpus_dir / TOKENS_NAME
    info["tokens_sha256"] = pipeline.sha256_file(tokens) if tokens.is_file() else None
    return corpus_dir, info, elapsed


def run_end_to_end(run: Run) -> dict[str, float]:
    workload, env, ledger = run.workload, run.env, run.ledger
    names = pipeline.command_names(workload)
    setup_times, infos = [], []
    corpus_dir = None
    for k in range(SETUPS):
        if corpus_dir is not None:
            shutil.rmtree(corpus_dir)
        corpus_dir, info, elapsed = set_up(run, k)
        setup_times.append(elapsed)
        infos.append(info)
    if any(i != infos[0] for i in infos):
        ledger.errors.append(f"generator is not deterministic: {infos}")
    info = infos[0]

    samples: dict[str, list[float]] = {k: [] for k in (*END_TO_END, *PRINTED_ONLY)}
    samples["setup_s"] = setup_times
    passes = 0
    t_end = time.perf_counter() + run.seconds
    while run.keep_measuring(passes, MIN_PASSES, t_end):
        result = pipeline.run_pass(workload, corpus_dir, env, info["tokens"])
        passes += 1
        if not ledger.record(result, names, f"pass {passes}"):
            continue
        cmds = result.commands
        for name in names:
            samples[f"{name}_s"].append(cmds[name].wall_s)
        samples["pack_peak_rss_mb"].append(cmds["pack"].peak_rss_mb)
        samples["peak_rss_mb"].append(max(c.peak_rss_mb for c in cmds.values()))
        if "emit" in cmds:
            samples["emit_peak_rss_mb"].append(cmds["emit"].peak_rss_mb)
        to_result = sum(cmds[n].wall_s for n in ("pack", "verify", "emit") if n in cmds)
        samples["pipeline_mtok_s"].append(info["tokens"] / to_result / 1e6)
    samples["error_rate"] = [ledger.failed / ledger.attempted]

    units = {**END_TO_END, **PRINTED_ONLY}
    print(f"passes: setup={SETUPS} measured={passes}")
    print("end-to-end metrics (median over passes):")
    for name, unit in units.items():
        print(summary_line(name, samples[name], unit))
    run.record.update(corpus=info, samples=samples, passes=passes)
    return {name: median(samples[name]) for name in END_TO_END}


def run_in_process(
    workload: Workload, corpus_dir: Path, corpus_tokens: int, tracer: Tracer | None,
    command_ids: dict[str, int],
) -> tuple[pipeline.PassResult, dict[str, float]]:
    """One pass through ``seqpack.cli.main`` in this process; returns the
    checked pass and each command's wall time."""
    import seqpack.cli

    result = pipeline.PassResult()
    walls: dict[str, float] = {}
    cwd = os.getcwd()
    os.chdir(corpus_dir)
    try:
        for name in pipeline.command_names(workload):
            argv = pipeline.command_argv(workload, name)
            out, err = io.StringIO(), io.StringIO()
            gc.collect()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    if tracer is None:
                        code = seqpack.cli.main(argv)
                    else:
                        tracer.command_id = command_ids[name]
                        code = tracer.span(f"cli.{name}", seqpack.cli.main, argv)
                except Exception:  # the CLI's own contract is violated: record it
                    code = 1
                    err.write(traceback.format_exc())
            walls[name] = time.perf_counter() - t0
            result.commands[name] = pipeline.CommandResult(
                name, argv, code, walls[name], 0.0, out.getvalue(), err.getvalue())
    finally:
        os.chdir(cwd)
    pipeline.check_pass(workload, corpus_dir, corpus_tokens, result)
    return result, walls


def run_traced(run: Run) -> dict[str, float]:
    workload, env, ledger = run.workload, run.env, run.ledger
    names = pipeline.command_names(workload)
    command_ids = {name: i for i, name in enumerate(names)}
    corpus_dir, info, _ = set_up(run, 0)

    startup = []
    probe = [sys.executable, "-c", "import seqpack.cli"]
    for _ in range(STARTUP_SAMPLES):
        startup.append(pipeline.run_command("startup", probe, corpus_dir, env).wall_s)
    startup_s = median(startup)

    sys.path.insert(0, str(SRC))
    import seqpack

    if not Path(seqpack.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported seqpack from {seqpack.__file__}, not from {SRC}")

    layer_samples: dict[str, list[float]] = {}
    accounting, absent = [], set()
    last_spans: list = []
    passes = 0
    t_end = time.perf_counter() + run.seconds
    while run.keep_measuring(passes, MIN_TRACE_PASSES, t_end):
        passes += 1
        cli = pipeline.run_pass(workload, corpus_dir, env, info["tokens"])
        ledger.record(cli, names, f"pass {passes} cli")
        tracer = Tracer()
        runs = {}
        # alternate which in-process variant goes first
        for traced in ((False, True) if passes % 2 else (True, False)):
            if traced:
                tracer.install()
            try:
                runs[traced] = run_in_process(workload, corpus_dir, info["tokens"],
                                              tracer if traced else None, command_ids)
            finally:
                tracer.uninstall()
            label = f"pass {passes} {'traced' if traced else 'in-process'}"
            ledger.record(runs[traced][0], names, label)
        absent.update(tracer.absent)

        per_pass: dict[str, float] = {}
        self_sum = dict.fromkeys(names, 0.0)  # per command, tracer's own spans excluded
        by_id = {i: name for name, i in command_ids.items()}
        for name, self_s, command_id in tracer.self_times():
            per_pass[f"{name}.self_s"] = per_pass.get(f"{name}.self_s", 0.0) + self_s
            per_pass[f"{name}.calls"] = per_pass.get(f"{name}.calls", 0) + 1
            if not name.startswith("trace."):
                self_sum[by_id[command_id]] += self_s
        for command_id, counts in tracer.counts.items():
            for key, value in counts.items():
                if key == "metrics.useful_token_ratio":  # of the pack command's plan
                    if command_id == command_ids["pack"]:
                        per_pass[key] = value
                else:
                    per_pass[key] = per_pass.get(key, 0) + value
        traced_walls, plain_walls = runs[True][1], runs[False][1]
        per_pass["trace.overhead_s"] = sum(traced_walls.values()) - sum(plain_walls.values())
        per_pass["trace.unaccounted_s"] = 0.0
        for name in names:
            if name in cli.commands and name in plain_walls and name in traced_walls:
                accounting.append({
                    "pass": passes, "command": name,
                    "cli_wall_s": cli.commands[name].wall_s,
                    "self_sum_s": self_sum[name],
                    "startup_s": startup_s,
                    "overhead_s": traced_walls[name] - plain_walls[name],
                })
                per_pass["trace.unaccounted_s"] += (
                    cli.commands[name].wall_s - startup_s - plain_walls[name])
        for key, value in per_pass.items():
            layer_samples.setdefault(key, []).append(value)
        last_spans = tracer.spans

    layer_samples["cli.startup_s"] = startup
    metrics = {}
    not_run = []
    for name in PER_LAYER:
        values = layer_samples.get(name)
        if values is None:
            not_run.append(name)
        metrics[name] = median(values) if values else 0.0

    print(f"passes: traced={passes} (each: cli, in-process, traced in-process)")
    print("per-layer metrics (median over traced passes):")
    for name, unit in PER_LAYER.items():
        print(summary_line(name, layer_samples.get(name, []), unit))
    print("accounting (self times + cli.startup_s vs CLI wall, per command, last pass):")
    for row in accounting[-len(names):]:
        residual = row["self_sum_s"] + row["startup_s"] - row["cli_wall_s"]
        print(f"  {row['command']:<8} cli_wall={row['cli_wall_s']:.4f} "
              f"self_sum={row['self_sum_s']:.4f} startup={row['startup_s']:.4f} "
              f"residual={residual:+.4f} overhead={row['overhead_s']:+.4f}")
    print(f"not run on this workload (reported as 0): {', '.join(not_run) or 'none'}")
    print(f"absent spans or counters: {', '.join(sorted(absent)) or 'none'}")
    run.record.update(corpus=info, samples=layer_samples, passes=passes,
                      accounting=accounting, absent=sorted(absent), not_run=not_run)
    run.record["spans"] = last_spans
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqpack" / "cli.py").is_file():
        print(f"error: no seqpack sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    ledger = Ledger()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds,
              OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}",
              pipeline.child_env(SRC), ledger, record, deadline)
    print(f"seqpack benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    e = record["environment"]
    print(f"environment: python={e['python']} numpy={e['numpy']} nproc={e['nproc']} "
          f"loadavg={','.join(f'{x:.2f}' for x in e['loadavg'])}")
    try:
        runner = run_traced if args.trace else run_end_to_end
        metrics = runner(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    ref = ledger.reference or {}
    c = record["corpus"]
    print(f"corpus: documents={c['documents']} tokens={c['tokens']} "
          f"over_length={c['over_length']} corpus_sha256={c['corpus_sha256']}")
    print(f"digests: manifest_sha256={ref.get('manifest_sha256')} "
          f"sample_sha256={ref.get('sample_sha256')}")
    for error in ledger.errors[:20]:
        print(f"FAILED {error}")
    # a metric with no sample (every pass failed) is reported as 0 on an
    # incorrect run, since the result line must be strict JSON
    correct = not ledger.errors and all(np.isfinite(v) for v in metrics.values())
    metrics = {k: v if np.isfinite(v) else 0.0 for k, v in metrics.items()}
    record.update(digests=ref, errors=ledger.errors, metrics=metrics, correct=correct,
                  attempted=ledger.attempted, failed=ledger.failed)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:  # (name, start, end, parent, command id), one per line
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
