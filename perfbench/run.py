#!/usr/bin/env python3
"""Benchmark of the er-evalkit CLI pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 30

A run generates the workload's inputs from the seed, then, for the given
number of seconds, alternates the workload's CLI stage sequence (each stage
a fresh ``python -m er_evalkit.cli`` process) with regenerating the inputs
(``setup_s``), and checks every output. End-to-end metrics are
medians over those repetitions. With ``--trace 1`` it also runs the stages
in-process under spans (perfbench/traced.py) and reports the per-layer
metrics instead. Metric names and units come from BENCHMARK.json. The last
line of standard output is the JSON result; a human-readable table goes to
standard error, and the full record (per-iteration values, input
properties, spans) to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_SLOT_S = 0.4   # set-up repeats in a slot until this much time passed
STARTUP_REPEATS = 5
STAGE_TIMEOUT_S = 60
STAGES = ("simulate", "ingest-catalog", "score-importance", "aggregate-ctr",
          "build-relevance", "evaluate", "diagnose", "compare")


def child_env() -> dict[str, str]:
    """Fixed environment for every child: no ER_EVALKIT_THREADS, no config,
    the checkout's src on PYTHONPATH (the package need not be installed)
    and a fixed hash seed, so set iteration order cannot vary run to run."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
            "LC_ALL": "C.UTF-8"}


@dataclass
class Proc:
    """One finished child process, measured by os.wait4."""

    name: str
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: Path
    stderr: Path


class Launcher:
    """Client of perfbench/launcher.py, which spawns and measures children.

    Start it before this process allocates much: the launcher's own memory
    is the floor of every child's reported peak RSS.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STAGE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def spawn(self, name: str, argv: list[str], log_dir: Path, tag: str) -> Proc:
        """Run ``python argv`` with stdout/stderr in log_dir and wait for it."""
        stdout, stderr = log_dir / f"{tag}.stdout", log_dir / f"{tag}.stderr"
        request = {"argv": [sys.executable, *argv], "env": child_env(),
                   "stdout": str(stdout), "stderr": str(stderr),
                   "timeout_s": STAGE_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        r = json.loads(reply)
        return Proc(name, r["exit_code"], r["wall_s"], r["cpu_s"], r["rss_mb"],
                    stdout, stderr)


def cli(stage: str, *args: str) -> tuple[str, list[str]]:
    return stage, ["-m", "er_evalkit.cli", stage, *args]


# ------------------------------------------------------------- workloads

class Simulate:
    name = "simulate"
    outputs = ("basics.tsv", "ratings.tsv", "ranks.tsv", "clicklog.jsonl",
               "run.jsonl", "truth_qrels.jsonl")

    @staticmethod
    def generate(seed: int, inp: Path) -> gen.Generated:
        # The simulator makes its own inputs; the work unit is the
        # query x title pairs the mock matcher scores at the defaults.
        return gen.Generated(unit=1000 * 500, props={
            "n_titles": 1000, "n_queries": 500, "n_replays": 200})

    @staticmethod
    def stages(seed: int, inp: Path, out: Path):
        return [cli("simulate", "--seed", str(seed), "--out-dir", str(out))]

    check = staticmethod(checks.check_simulate)


class Testset:
    name = "testset"
    outputs = ("catalog.jsonl", "scored.jsonl", "ctr.jsonl", "qrels.jsonl",
               "qrels.provenance.jsonl")
    generate = staticmethod(gen.gen_testset)

    @staticmethod
    def stages(seed: int, inp: Path, out: Path):
        return [
            cli("ingest-catalog", "--basics", str(inp / "basics.tsv"),
                "--ratings", str(inp / "ratings.tsv"),
                "--ranks", str(inp / "ranks.tsv"),
                "--out", str(out / "catalog.jsonl")),
            cli("score-importance", "--catalog", str(out / "catalog.jsonl"),
                "--out", str(out / "scored.jsonl")),
            cli("aggregate-ctr", "--events", str(inp / "clicklog.jsonl"),
                "--out", str(out / "ctr.jsonl")),
            cli("build-relevance", "--ctr", str(out / "ctr.jsonl"),
                "--scored", str(out / "scored.jsonl"),
                "--out", str(out / "qrels.jsonl")),
        ]

    check = staticmethod(checks.check_testset)


class Evaluate:
    name = "evaluate"
    outputs = ("baseline.report.json", "candidate.report.json",
               "diagnoses.jsonl", "delta.json")
    generate = staticmethod(gen.gen_evaluate)

    @staticmethod
    def stages(seed: int, inp: Path, out: Path):
        qrels = str(inp / "qrels.jsonl")
        return [
            cli("evaluate", "--qrels", qrels, "--run", str(inp / "baseline.jsonl"),
                "--out", str(out / "baseline.report.json")),
            cli("evaluate", "--qrels", qrels, "--run", str(inp / "candidate.jsonl"),
                "--out", str(out / "candidate.report.json")),
            cli("diagnose", "--qrels", qrels, "--run", str(inp / "candidate.jsonl"),
                "--out", str(out / "diagnoses.jsonl")),
            cli("compare", "--baseline", str(out / "baseline.report.json"),
                "--candidate", str(out / "candidate.report.json"),
                "--out", str(out / "delta.json")),
        ]

    check = staticmethod(checks.check_evaluate)


WORKLOADS = {w.name: w for w in (Simulate, Testset, Evaluate)}


# ------------------------------------------------------------------ run

def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Run:
    """One benchmark run of one workload: set-up, timed loop, optional trace."""

    def __init__(self, launcher: Launcher, workload, seed: int, seconds: int,
                 work: Path):
        self.spawn = launcher.spawn
        self.w, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.inp = work / "inputs"
        self.out = work / "out"
        self.logs = work / "logs"
        self.checker = checks.Checker()
        self.iterations: list[list[Proc]] = []
        self.setup_times: list[float] = []
        self.slot_times: list[float] = []

    def setup_once(self, dest: Path) -> gen.Generated:
        """One timed set-up: generate the inputs into dest, then start the
        CLI once so byte-compilation and the page cache are warm."""
        fresh_dir(dest)
        start = time.perf_counter()
        generated = self.w.generate(self.seed, dest)
        proc = self.spawn("warmup", ["-m", "er_evalkit.cli", "--help"],
                          fresh_dir(self.work / "setup-logs"), "warmup")
        self.setup_times.append(time.perf_counter() - start)
        self.checker.expect("setup: CLI starts", proc.exit_code == 0,
                            proc.stderr.read_text()[-500:])
        return generated

    def setup_slot(self) -> None:
        """Set-up samples between repetitions: one, and more until
        SETUP_SLOT_S has passed. The first makes the inputs; every later one
        regenerates them elsewhere and must match byte for byte. Spreading
        the samples over the run makes their median steadier than taking
        them back to back."""
        start = time.perf_counter()
        while True:
            if not self.setup_times:
                self.gen = self.setup_once(self.inp)
                self.inputs = digest_dir(self.inp)
            else:
                regen = self.work / "regen"
                self.setup_once(regen)
                self.checker.expect(
                    f"setup {len(self.setup_times)}: same seed, same inputs",
                    digest_dir(regen) == self.inputs)
                shutil.rmtree(regen)
            if time.perf_counter() - start >= SETUP_SLOT_S:
                return

    def iterate(self) -> list[Proc]:
        fresh_dir(self.out)
        fresh_dir(self.logs)
        procs = []
        for i, (stage, argv) in enumerate(self.w.stages(self.seed, self.inp,
                                                       self.out)):
            proc = self.spawn(stage, argv, self.logs, f"{i}-{stage}")
            procs.append(proc)
            self.checker.expect(f"{stage} exits 0", proc.exit_code == 0,
                                proc.stderr.read_text()[-500:])
            if proc.exit_code != 0:
                break
        return procs

    def measure(self) -> None:
        """Alternate set-up slots and repetitions of the stage sequence while
        another repetition and slot still fit in the run's seconds."""
        start = time.perf_counter()
        self.setup_slot()
        n_stages = len(self.w.stages(self.seed, self.inp, self.out))
        while True:
            slot_start = time.perf_counter()
            procs = self.iterate()
            self.iterations.append(procs)
            if len(procs) < n_stages:
                return
            if len(self.iterations) == 1:
                self.w.check(self.checker, self.gen, self.out, procs, self.seed)
                self.reference = digest_dir(self.out)
                self.stdout_bytes = sum(p.stdout.stat().st_size for p in procs)
            else:
                self.checker.expect(
                    f"iteration {len(self.iterations)}: same output bytes",
                    digest_dir(self.out) == self.reference)
            self.setup_slot()
            self.slot_times.append(time.perf_counter() - slot_start)
            if (time.perf_counter() - start + median(self.slot_times)
                    > self.seconds):
                return

    def end_to_end(self) -> dict[str, float]:
        walls = [sum(p.wall_s for p in it) for it in self.iterations]
        wall = median(walls)
        return {
            "wall_s": wall,
            "cpu_s": median(sum(p.cpu_s for p in it) for it in self.iterations),
            "peak_rss_mb": median(max(p.rss_mb for p in it)
                                  for it in self.iterations),
            "setup_s": median(self.setup_times),
            "items_per_s": self.gen.unit / wall,
        }

    def stage_metrics(self) -> dict[str, float]:
        """cli.<stage>.{wall_s,cpu_s,peak_rss_mb}: per-iteration sums over a
        stage's invocations (max for RSS), median over iterations; 0 for a
        stage the workload does not run."""
        out = {}
        for stage in STAGES:
            runs = [[p for p in it if p.name == stage] for it in self.iterations]
            ran = all(runs)
            out[f"cli.{stage}.wall_s"] = median(
                sum(p.wall_s for p in r) for r in runs) if ran else 0.0
            out[f"cli.{stage}.cpu_s"] = median(
                sum(p.cpu_s for p in r) for r in runs) if ran else 0.0
            out[f"cli.{stage}.peak_rss_mb"] = median(
                max(p.rss_mb for p in r) for r in runs) if ran else 0.0
        return out

    def trace(self) -> tuple[dict[str, float], dict]:
        """Per-layer metrics: CLI start-up, per-stage process figures, and
        the in-process traced pass with its micro-benchmarks."""
        startup = []
        for i in range(STARTUP_REPEATS):
            proc = self.spawn("startup", ["-m", "er_evalkit.cli", "--help"],
                              self.logs, "startup")
            self.checker.expect("--help exits 0", proc.exit_code == 0)
            startup.append(proc.wall_s)
        metrics = {"cli.startup_s": median(startup)}
        metrics.update(self.stage_metrics())
        metrics["cli.stdout_bytes"] = self.stdout_bytes

        traced_out = fresh_dir(self.work / "traced")
        result_path = self.work / "traced.json"
        proc = self.spawn("traced", [str(HERE / "traced.py"), self.w.name,
                                     str(self.seed), str(self.inp),
                                     str(traced_out), str(result_path)],
                          self.logs, "traced")
        ok = proc.exit_code == 0 and result_path.is_file()
        self.checker.expect("traced pass exits 0", ok,
                            proc.stderr.read_text()[-2000:])
        if not ok:
            return metrics, {}
        traced = json.loads(result_path.read_text())
        got = digest_dir(traced_out)
        for name in self.w.outputs:
            self.checker.expect(f"traced pass writes the CLI's {name}",
                                got.get(name) == self.reference.get(name))
        metrics.update(self_times(traced["spans"]))
        metrics.update(traced["values"])

        # Tracing overhead: traced stage spans against the untraced stage
        # walls less one interpreter start-up per invocation.
        invocations = len(self.iterations[0])
        untraced = (sum(metrics[f"cli.{s}.wall_s"] for s in STAGES)
                    - invocations * metrics["cli.startup_s"])
        traced_s = sum(end - start for name, start, end, parent
                       in traced["spans"] if parent is None
                       and name.startswith("cli."))
        metrics["trace.traced_s"] = traced_s
        metrics["trace.untraced_s"] = untraced
        metrics["trace.overhead_frac"] = traced_s / untraced - 1
        return metrics, traced


def self_times(spans: list) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover
    (children never overlap: the pipeline is sequential)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (end - start) - child[i]
    return out


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(launcher: Launcher, name: str, seed: int, seconds: int,
            trace: bool) -> dict:
    spec = load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    work = fresh_dir(WORK_ROOT / f"{name}-{seed}-{os.getpid()}")
    run = Run(launcher, WORKLOADS[name], seed, seconds, work)
    record: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": trace}
    try:
        run.measure()
        produced = run.end_to_end()
        traced = {}
        if trace and not run.checker.failed:
            produced, traced = run.trace()
        record.update(
            inputs=run.gen.props, work_unit=run.gen.unit,
            setup_s=run.setup_times,
            iterations=[[vars(p) | {"stdout": str(p.stdout.name),
                                    "stderr": str(p.stderr.name)}
                         for p in it] for it in run.iterations],
            spans=traced.get("spans", []),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {}
    for m in wanted:
        value = produced.get(m["name"], 0.0 if trace else None)
        if value is None:
            run.checker.expect(f"metric {m['name']} measured", False)
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    per_stage = run.stage_metrics()
    stage_walls = {stage: per_stage[f"cli.{stage}.wall_s"]
                   for stage in dict.fromkeys(p.name for p in run.iterations[0])}
    record.update(checks=run.checker.results, metrics=metrics,
                  stage_wall_s=stage_walls)
    save_record(record)
    return {"correct": not run.checker.failed,
            "attempted": run.checker.attempted,
            "failed": run.checker.failed, "metrics": metrics}, stage_walls


def save_record(record: dict) -> None:
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-"
            f"trace{int(record['trace'])}-{os.getpid()}.json")
    (results / name).write_text(json.dumps(record, indent=1, default=str))


def print_table(workload: str, result: dict, stage_walls: dict) -> None:
    def line(name, value, unit):
        print(f"  {name:34s} {value:16.6f} {unit}", file=sys.stderr)

    print(f"{workload}: correct={result['correct']} "
          f"attempted={result['attempted']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        line(name, m["value"], m["unit"])
    line("failed_frac", result["failed"] / result["attempted"], "ratio")
    for stage, wall in stage_walls.items():
        line(f"stage {stage}", wall, "s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "er_evalkit" / "cli.py").is_file():
        print(f"error: no er_evalkit package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with Launcher() as launcher:
        for name in names:
            result, stage_walls = run_one(launcher, name, args.seed,
                                          args.seconds, bool(args.trace))
            print_table(name, result, stage_walls)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}.{k}" if len(names) > 1 else k: v
                 for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0

if __name__ == "__main__":
    sys.exit(main())
