#!/usr/bin/env python3
"""Benchmark of the epigrid pipeline on generated worlds.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all        # every workload, one table

Run it from the repository root.  It writes the workload's world, made from
--seed, under .bench_work/ and removes it at the end.  For --seconds it then
drives the real CLI, `python -m epigrid run`, as a child process and checks
every output against the generator's ground truth.

--trace 0 reports the end-to-end metrics, each the median over the run:
  pipeline_s    spawn to exit of a forced full run on a fresh output directory
  setup_s       spawn to the first stage_start event (full runs and ingest-only probes)
  noop_rerun_s  spawn to exit of an unforced re-run that skips all six stages
  peak_rss_mb   ru_maxrss of the full-run child, from os.wait4
  roc_auc       from metrics.json, fixed for a given seed
--trace 1 pairs an untraced full run with a traced in-process run
(bench/tracer.py) and reports the per-layer metrics listed in bench/layers.py.

A failed invocation exits non-zero, writes to stderr, breaks a ground-truth
check or leaves artifacts that differ from the run's other repetitions;
error_rate is failed / attempted.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

This process stays small on purpose: world generation (world.py) and the
ground-truth checks (checks.py) run in children of their own.  A child's
ru_maxrss starts from its parent's peak resident size, so a parent that held
a world in memory would inflate peak_rss_mb.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import layers
import tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("weekly-rasters", "long-panel", "many-regions")  # as in world.WORKLOADS
CHILD_TIMEOUT_S = 60.0  # full runs take 5-10 s on 2 cores; a hung child must not outlast the run
# short invocations after each full run; a single one spreads by ~25%, so a
# run takes dozens, most of them cheap no-op re-runs
NOOPS_PER_CYCLE, PROBES_PER_CYCLE = 8, 2
END_TO_END = {
    "pipeline_s": "s",
    "setup_s": "s",
    "noop_rerun_s": "s",
    "peak_rss_mb": "MB",
    "roc_auc": "ratio",
}


@dataclass
class Invocation:
    code: int
    wall_s: float
    events: list[tuple[float, dict]]  # (seconds after spawn, event)
    stderr: str
    rss_mb: float

    def arrival(self, kind: str, stage: str | None = None) -> float | None:
        for t, event in self.events:
            if event.get("event") == kind and stage in (None, event.get("stage")):
                return t
        return None

    def stages(self, kind: str) -> list[str]:
        return [e.get("stage") for _, e in self.events if e.get("event") == kind]

    def problems(self) -> list[str]:
        out = []
        if self.code != 0:
            out.append(f"exit code {self.code}")
        if self.stderr.strip():
            out.append(f"stderr: {self.stderr.strip().splitlines()[0][:200]}")
        out += [f"stdout line is not a JSON event: {e['line']!r}"
                for _, e in self.events if e.get("event") == "unparsable"]
        return out


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "epigrid", "run", *args]


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file in an output directory, by name."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.is_file():
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            found[path.name] = h.hexdigest()
    return found


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _event(line: bytes) -> dict:
    try:
        event = json.loads(line)
    except ValueError:
        event = None
    if isinstance(event, dict):
        return event
    return {"event": "unparsable", "line": line.decode(errors="replace")[:200]}


def invoke(argv: list[str], errpath: Path) -> Invocation:
    """Run one child to its end, timing each stdout line's arrival from spawn."""
    env = child_env()
    with open(errpath, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, bufsize=0
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        events = []
        try:
            for line in iter(proc.stdout.readline, b""):
                events.append((time.perf_counter() - start, _event(line)))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Invocation(proc.returncode, wall, events, stderr, usage.ru_maxrss / 1024.0)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.append(f"{what}: {'; '.join(problems)}")
        return not problems


class Bench:
    """One workload's world, its invocations and the tally of their outcomes."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        self.root = work / "world"
        subprocess.run(
            [sys.executable, str(BENCH / "world.py"), "--workload", name, "--seed", str(seed),
             "--out", str(self.root)],
            check=True, timeout=CHILD_TIMEOUT_S,
        )
        self.config = self.root / "config.json"
        self.out = self.root / "out"
        doc = json.loads(self.config.read_text())
        doc["output_dir"] = "probe_out"
        self.probe_config = self.root / "probe.json"
        self.probe_config.write_text(json.dumps(doc, indent=2))
        self.tally = Tally()
        self.reference: dict[str, str] | None = None  # digests of the first artifacts that passed
        self.roc_auc: float | None = None

    def _invoke(self, argv) -> Invocation:
        return invoke(argv, self.work / "stderr.txt")

    def _check_full(self, inv: Invocation, what: str) -> bool:
        """Exit, events, then artifacts: the first repetition's must pass every
        ground-truth check, and each later one's must equal them byte for byte."""
        problems = inv.problems()
        if inv.stages("stage_end") != list(layers.STAGES):
            problems.append(f"stage_end events {inv.stages('stage_end')}")
        if not problems:
            got = digests(self.out)
            if self.reference is None:
                problems = self._ground_truth()
                self.reference = None if problems else got
            elif got != self.reference:
                differ = sorted(k for k in set(got) | set(self.reference) if got.get(k) != self.reference.get(k))
                problems = [f"artifacts differ from the first repetition: {', '.join(differ)}"]
        return self.tally.record(what, problems)

    def _ground_truth(self) -> list[str]:
        """checks.py on the output directory, in a child; remembers roc_auc."""
        done = subprocess.run(
            [sys.executable, str(BENCH / "checks.py"), str(self.root), str(self.out)],
            capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            return [f"checker failed: {done.stderr.decode(errors='replace').strip()[-300:]}"]
        result = json.loads(done.stdout)
        self.roc_auc = result["roc_auc"]
        return result["failures"]

    def full(self) -> Invocation | None:
        """A forced full run on a fresh output directory, checked."""
        shutil.rmtree(self.out, ignore_errors=True)
        inv = self._invoke(cli("--config", str(self.config), "--force"))
        return inv if self._check_full(inv, "full run") else None

    def traced(self) -> tuple[Invocation, dict] | None:
        """The traced in-process run on a fresh output directory, checked."""
        shutil.rmtree(self.out, ignore_errors=True)
        spans = self.work / "spans.json"
        inv = self._invoke(
            [sys.executable, str(BENCH / "tracer.py"), "--config", str(self.config),
             "--spans", str(spans)]
        )
        if not self._check_full(inv, "traced run"):
            return None
        return inv, json.loads(spans.read_text())

    def noop(self) -> Invocation | None:
        """An unforced re-run over the last full run's outputs: all six stages skip."""
        inv = self._invoke(cli("--config", str(self.config)))
        problems = inv.problems()
        if inv.stages("stage_skip") != list(layers.STAGES) or inv.stages("stage_start"):
            problems.append(f"expected six stage_skip events, got {[e for _, e in inv.events][:8]}")
        return inv if self.tally.record("no-op re-run", problems) else None

    def probe(self) -> float | None:
        """Set-up time of a forced ingest-only run: spawn to its stage_start."""
        inv = self._invoke(cli("--config", str(self.probe_config), "--stage", "ingest", "--force"))
        problems = inv.problems()
        if inv.stages("stage_end") != ["ingest"]:
            problems.append(f"stage_end events {inv.stages('stage_end')}")
        ok = self.tally.record("set-up probe", problems)
        return inv.arrival("stage_start") if ok else None

    def hashed_mb(self) -> float:
        """Bytes a no-op re-run hashes: each stage's inputs and outputs, from the manifest."""
        manifest = json.loads((self.out / "manifest.json").read_text())
        total = 0
        for entry in manifest["stages"].values():
            for name in entry["inputs"]:
                path = self.out / name if (self.out / name).exists() else self.root / name
                files = path.iterdir() if path.is_dir() else [path]
                total += sum(p.stat().st_size for p in files if p.is_file())
            total += sum((self.out / name).stat().st_size for name in entry["outputs"])
        return total / 1e6


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, list[float]]:
    """Full runs, no-op re-runs and set-up probes, interleaved, for `seconds`.

    A cycle starts only if the longest one so far still fits, so a run ends
    close to `seconds` after its set-up.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    deadline = time.perf_counter() + seconds
    full_cost = small_cost = 0.0
    fulls = 0
    while True:
        left = deadline - time.perf_counter()
        do_full = fulls == 0 or full_cost <= left
        if not do_full and (small_cost > left or left <= 0):
            break
        begun = time.perf_counter()
        if do_full:
            fulls += 1
            inv = bench.full()
            if inv is not None:
                samples["pipeline_s"].append(inv.wall_s)
                samples["peak_rss_mb"].append(inv.rss_mb)
                samples["setup_s"].append(inv.arrival("stage_start"))
        small = time.perf_counter()
        for i in range(NOOPS_PER_CYCLE):
            inv = bench.noop()
            if inv is not None:
                samples["noop_rerun_s"].append(inv.wall_s)
            if i % (NOOPS_PER_CYCLE // PROBES_PER_CYCLE) == 0:
                setup = bench.probe()
                if setup is not None:
                    samples["setup_s"].append(setup)
        small_cost = max(small_cost, time.perf_counter() - small)
        if do_full:
            full_cost = max(full_cost, time.perf_counter() - begun)
    if bench.roc_auc is not None:  # the same for every repetition: their artifacts are identical
        samples["roc_auc"] = [bench.roc_auc]
    return samples


def layer_values(bench: Bench, untraced: Invocation, traced: Invocation, doc: dict) -> dict[str, float]:
    """Per-layer metrics of one untraced/traced pair."""
    values: dict[str, float] = defaultdict(float)
    for name, (seconds, calls) in tracer.self_times(doc["spans"]).items():
        values[f"{name}.s"] += seconds
        values[f"{name}.calls"] += calls
        values[f"layer.{name.split('.')[0]}.s"] += seconds
    values.update(doc["counts"])
    for stage in layers.STAGES:
        values[f"stage.{stage}.s"] = untraced.arrival("stage_end", stage) - untraced.arrival("stage_start", stage)
    values["cli.noop.hashed_mb"] = bench.hashed_mb()
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return values


def measure_layers(bench: Bench, seconds: float) -> tuple[dict[str, float], list[str], list[str]]:
    """Untraced/traced pairs for `seconds`.

    Returns the median of each per-layer metric, the calls left uncovered and
    the traced functions no pair reached.
    """
    samples: dict[str, list[float]] = defaultdict(list)
    missed: set[str] = set()
    unreached = set(layers.TRACED)
    deadline = time.perf_counter() + seconds
    cost = 0.0
    pairs = 0
    while pairs == 0 or cost <= deadline - time.perf_counter():
        begun = time.perf_counter()
        pairs += 1
        untraced = bench.full()
        result = bench.traced() if untraced is not None else None
        if result is not None:
            values = layer_values(bench, untraced, *result)
            for metric in layers.METRICS:
                samples[metric.name].append(values.get(metric.name, 0.0))
            missed.update(result[1]["uncovered"])
            unreached -= {span[0] for span in result[1]["spans"]}
        cost = max(cost, time.perf_counter() - begun)
    medians = {name: statistics.median(v) for name, v in samples.items()}
    return medians, sorted(missed), sorted(unreached)


def report_layers(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    values, missed, unreached = measure_layers(bench, seconds)
    name = bench.name
    lines = []
    if values:
        hot = sorted(layers.LAYERS, key=lambda m: -values[f"layer.{m}.s"])
        lines.append(f"{name}: layers by self time: "
                     + ", ".join(f"{m} {values[f'layer.{m}.s']:.3f} s" for m in hot))
    for m in layers.METRICS:
        if m.name in values:
            moves = f"moves {', '.join(m.moves)} on {', '.join(m.on)}" if m.moves else ""
            lines.append(f"{name:15} {m.name:40} {values[m.name]:14.6f} {m.unit:7} {moves}")
    lines += [f"{name}: not reached: {f}" for f in unreached]
    lines += [f"{name}: uncovered (bound at import, cost left in the caller): {u}" for u in missed]
    return {m.name: (values[m.name], m.unit) for m in layers.METRICS if m.name in values}, lines


def report_end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    samples = measure_end_to_end(bench, seconds)
    metrics = {k: (statistics.median(samples[k]), u) for k, u in END_TO_END.items() if samples[k]}
    lines = []
    for k, (v, unit) in metrics.items():
        n = len(samples[k])
        if k == "roc_auc":
            note = "fixed by seed"
        elif n > 1:
            q1, _, q3 = statistics.quantiles(samples[k], n=4)
            note = f"median of {n}, quartiles {q1:.6f} {q3:.6f}"
        else:
            note = "1 sample"
        lines.append(f"{bench.name:15} {k:14} {v:14.6f} {unit:5} {note}")
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict, list[str]]:
    """Returns the tally, {metric: (value, unit)} and the report lines."""
    work = ROOT / ".bench_work" / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(name, seed, work)
        bench.probe()  # warm-up, not timed: byte-compiles the package on a fresh checkout
        metrics, lines = (report_layers if trace else report_end_to_end)(bench, seconds)
        tally = bench.tally
        rate = tally.failed / tally.attempted
        lines.append(f"{name:15} {'error_rate':14} {rate:14.6f} failed/attempted ({tally.failed}/{tally.attempted})")
        lines += [f"{name}: FAILED {m}" for m in tally.messages[:10]]
        return tally, metrics, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="epigrid pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "epigrid" / "cli.py").is_file():
        sys.stderr.write(f"no epigrid package under {SRC}: run from the repository root\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        tally, found, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
