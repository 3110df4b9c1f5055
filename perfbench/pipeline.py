"""Run seqpack's CLI commands as subprocesses and check their outputs.

One pass runs the workload's commands in order, one at a time (a
closed loop with a single client): ``pack``, ``verify``, ``emit
--decode-check`` (full-mode workloads only) and ``compare --json`` over
all four strategies.  Every command is one attempted operation; it
fails on a non-zero exit or on any output check below.  Peak RSS comes
from ``os.wait4`` on that command's own child, so one command's peak
never leaks into the next (``RUSAGE_CHILDREN`` keeps a running maximum
over every child reaped so far).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CORPUS_NAME, Workload

ALL_STRATEGIES = "concat_then_split,restart_last_document,pad_last_document,best_fit"
MANIFEST_NAME = "manifest.json"
SAMPLES_NAME = "samples.bin"
_LAUNCHER = Path(__file__).resolve().with_name("launch.py")
_HEADER_BYTES = 20  # PKSB header: magic, version, flags, L, sample count


@dataclass
class CommandResult:
    name: str
    argv: list[str]
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class PassResult:
    """One pass of the workload's commands with its check outcome."""

    commands: dict[str, CommandResult] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    failed: set[str] = field(default_factory=set)
    manifest_sha256: str | None = None
    sample_sha256: str | None = None

    def fail(self, command: str, message: str) -> None:
        self.failed.add(command)
        self.errors.append(f"{command}: {message}")


def command_names(workload: Workload) -> list[str]:
    return ["pack", "verify", "emit", "compare"] if workload.full else ["pack", "verify", "compare"]


def command_argv(workload: Workload, name: str) -> list[str]:
    """seqpack arguments of one command, relative to the corpus directory."""
    L = str(workload.context_length)
    if name == "pack":
        return ["pack", "--context-length", L, "--strategy", workload.strategy,
                CORPUS_NAME, "--out", MANIFEST_NAME]
    if name == "verify":
        return ["verify", CORPUS_NAME, "--manifest", MANIFEST_NAME]
    if name == "emit":
        return ["emit", CORPUS_NAME, "--manifest", MANIFEST_NAME, "--out", SAMPLES_NAME,
                "--decode-check"]
    if name == "compare":
        return ["compare", "--context-length", L, CORPUS_NAME, "--strategies",
                ALL_STRATEGIES, "--json"]
    raise ValueError(f"unknown command {name!r}")


def child_env(src_dir: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src_dir)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_command(name: str, argv: list[str], cwd: Path, env: dict[str, str]) -> CommandResult:
    """Run one command to completion through the launcher, which times
    it and reaps it with ``os.wait4`` (see launch.py)."""
    with tempfile.TemporaryDirectory(dir=cwd) as tmp:
        tmp = Path(tmp).resolve()
        report, out_path, err_path = tmp / "report.json", tmp / "stdout", tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            launcher = subprocess.run(
                [sys.executable, "-I", "-S", str(_LAUNCHER), str(report), *argv],
                cwd=cwd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            )
        stdout = out_path.read_text("utf-8", "replace")
        stderr = err_path.read_text("utf-8", "replace")
        if launcher.returncode != 0 or not report.is_file():
            return CommandResult(name, argv, launcher.returncode or -1, 0.0, 0.0,
                                 stdout, stderr or "launcher failed")
        info = json.loads(report.read_text("utf-8"))
    # ru_maxrss is in KiB on Linux
    return CommandResult(name, argv, info["exit_code"], info["wall_s"],
                         info["peak_rss_kib"] / 1024.0, stdout, stderr)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def seqpack_argv(name: str, workload: Workload) -> list[str]:
    return [sys.executable, "-m", "seqpack", *command_argv(workload, name)]


def run_pass(workload: Workload, corpus_dir: Path, env: dict[str, str],
             corpus_tokens: int, runner=run_command) -> PassResult:
    """Run every command of the workload once in ``corpus_dir`` and
    check the outputs (see :func:`check_pass`)."""
    result = PassResult()
    for name in command_names(workload):
        pack = result.commands.get("pack")
        if pack is not None and pack.exit_code != 0:
            result.fail(name, "not run: pack failed")
            continue
        result.commands[name] = runner(name, seqpack_argv(name, workload), corpus_dir, env)
    check_pass(workload, corpus_dir, corpus_tokens, result)
    return result


def _summary_fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def check_pass(workload: Workload, corpus_dir: Path, corpus_tokens: int,
               result: PassResult) -> None:
    """Check every command's output against the manifest and the corpus.

    Failures are recorded per command on ``result``.  Byte identity
    across passes is checked by the caller from the recorded digests.
    """
    for name, cmd in result.commands.items():
        if cmd.exit_code != 0:
            result.fail(name, f"exit {cmd.exit_code}: {cmd.stderr.strip()[-300:]}")
    if "pack" in result.failed:
        return
    try:
        raw = (corpus_dir / MANIFEST_NAME).read_bytes()
        result.manifest_sha256 = hashlib.sha256(raw).hexdigest()
        manifest = json.loads(raw)
        metrics = manifest["metrics"]
        config = manifest["config"]
        L = workload.context_length
        if config["context_length"] != L or config["strategy"] != workload.strategy:
            result.fail("pack", f"manifest config {config} is not the requested one")
        if manifest["documents"]["total_tokens"] != corpus_tokens:
            result.fail("pack", "manifest total_tokens differs from the corpus")
        if metrics["total_training_tokens"] != metrics["sample_count"] * L:
            result.fail("pack", "total_training_tokens != sample_count * L")
        placements = sum(len(s["placements"]) for s in manifest["samples"])
        samples = len(manifest["samples"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.fail("pack", f"manifest unreadable: {exc!r}")
        return

    lines = result.commands["pack"].stdout.splitlines()
    fields = _summary_fields(lines[-1]) if lines else {}
    expected = {
        "strategy": workload.strategy,
        "samples": str(metrics["sample_count"]),
        "frag": f"{metrics['fragmentation_rate']:.4f}",
        "pad": f"{metrics['padding_rate']:.4f}",
    }
    if fields != expected or len(lines) != 1:
        result.fail("pack", f"summary {lines!r} disagrees with manifest metrics {expected}")

    verify = result.commands.get("verify")
    if verify is not None and "verify" not in result.failed and verify.stdout != "ok\n":
        result.fail("verify", f"printed {verify.stdout[:300]!r}, not 'ok'")

    emit = result.commands.get("emit")
    if emit is not None and "emit" not in result.failed:
        _check_emit(emit, corpus_dir, samples, placements, L, result)

    compare = result.commands.get("compare")
    if compare is not None and "compare" not in result.failed:
        try:
            rows = {row["strategy"]: row for row in json.loads(compare.stdout)}
            row = rows[workload.strategy]
            mismatch = {
                k: (row[k], metrics[k])
                for k in ("sample_count", "total_training_tokens",
                          "fragmentation_rate", "padding_rate")
                if row[k] != metrics[k]
            }
            if mismatch or len(rows) != 4:
                result.fail("compare", f"row for {workload.strategy} differs from pack: {mismatch}")
        except (ValueError, KeyError, TypeError) as exc:
            result.fail("compare", f"unreadable --json output: {exc!r}")


def _check_emit(emit: CommandResult, corpus_dir: Path, samples: int,
                placements: int, L: int, result: PassResult) -> None:
    lines = emit.stdout.splitlines()
    fields = _summary_fields(lines[0]) if lines else {}
    path = corpus_dir / SAMPLES_NAME
    if not lines or not lines[-1].startswith("decode-check: ok"):
        result.fail("emit", f"no 'decode-check: ok' in {emit.stdout[-300:]!r}")
        return
    if fields.get("samples") != str(samples) or fields.get("tokens") != str(samples * L):
        result.fail("emit", f"summary {lines[0]!r} disagrees with the manifest")
        return
    size = _HEADER_BYTES + samples * (5 * L + 2) + 4 * placements
    if not path.is_file() or path.stat().st_size != size:
        result.fail("emit", f"sample file is not {size} bytes")
        return
    digest = sha256_file(path)
    if fields.get("checksum") != f"sha256:{digest}":
        result.fail("emit", f"sample file sha256 {digest} != reported {fields.get('checksum')}")
        return
    result.sample_sha256 = digest
