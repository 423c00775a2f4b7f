#!/usr/bin/env python3
"""Paired benchmark runs of two revisions: is one faster, or no worse?

Usage, from the root of a checkout:

    python3 tools/ab.py --base REV --head REV --workload W --seed 7 \\
        --pairs 10

A pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once for each revision, T being ``run_seconds`` of ``BENCHMARK.json``,
alternating which side runs first. Each pair extracts both revisions anew
with ``git archive REV | tar -x`` into a fresh temporary directory, in run
order, each tree named by its place in that order, so no side keeps a tree
or a name of its own. Both trees are byte-compiled, each tree's own
``perfbench/`` times its own ``src/``, and each run's record is read from
its tree's ``.perfbench_work/results/``.

``BENCH_<head-sha>.json`` at the root of the checkout gets, per workload
and seed, a list of rounds, one per call: each round's command line,
the facts of the machine it ran on (CPUs, affinity, Python, kernel,
start-up time), every pair's end-to-end metrics, stage walls and stage
peak RSS, then each side's median and quartiles and the head's wins per
metric (ties count for neither side); and both SHAs. It is rewritten after
every pair. A later call for the same two SHAs adds its workload and seed
to the file, or a round to that workload and seed's rounds, so no run made
is dropped. Standard library only, and outside the tests' collection, so
no test run starts it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(sha: str, tree: Path) -> None:
    """The files of ``sha`` in ``tree``, byte-compiled."""
    tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"error: git archive {sha} failed")
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=tree, check=True)


def stage_peaks(record: dict) -> dict[str, float]:
    """Each stage's peak RSS as perfbench reports it: the median over
    repetitions of the largest of that stage's calls."""
    names = dict.fromkeys(p["name"] for p in record["iterations"][0])
    return {name: statistics.median(
        max(p["rss_mb"] for p in it if p["name"] == name)
        for it in record["iterations"]) for name in names}


def run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``tree``: its result line and its record's
    end-to-end metrics, stage walls and stage peaks."""
    results = tree / ".perfbench_work" / "results"
    before = set(results.glob("*.json"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: perfbench in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    [path] = set(results.glob(f"{workload}-seed{seed}-trace0-*.json")) - before
    record = json.loads(path.read_text())
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in record["metrics"].items()},
            "stage_wall_s": record["stage_wall_s"],
            "stage_peak_rss_mb": stage_peaks(record)}


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles, the quartiles by the inclusive method."""
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summary(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per end-to-end metric, each side's median and quartiles and the
    head's wins and the ties over ``pairs``; per stage, each side's median
    wall and peak. ``better`` maps each metric to "lower" or "higher"."""
    out: dict = {"metrics": {}, "stage_wall_s": {}, "stage_peak_rss_mb": {}}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        gaps = [sign * (p["head"]["metrics"][name]
                        - p["base"]["metrics"][name]) for p in pairs]
        out["metrics"][name] = {
            side: quartiles([p[side]["metrics"][name] for p in pairs])
            for side in ("base", "head")} | {
            "head_wins": sum(gap > 0 for gap in gaps),
            "ties": sum(gap == 0 for gap in gaps)}
    for key in ("stage_wall_s", "stage_peak_rss_mb"):
        for stage in pairs[0]["base"][key]:
            out[key][stage] = {side: statistics.median(
                p[side][key][stage] for p in pairs)
                for side in ("base", "head")}
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs)
                     for side in ("base", "head")}
    return out


def machine() -> dict:
    starts = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        starts.append(time.perf_counter() - start)
    return {"cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "kernel": os.uname().release,
            "python_c_pass_s": statistics.median(starts)}


def new_round(bench: dict, shas: dict[str, str], workload: str, seed: int,
              entry: dict) -> dict:
    """``bench``, a BENCH file's contents, with ``entry`` appended to the
    rounds of ``workload`` at ``seed``; contents for other SHAs are
    replaced by these SHAs' alone."""
    if {side: bench.get(side) for side in shas} != shas:
        bench = {**shas, "workloads": {}}
    rounds = bench["workloads"].setdefault(f"{workload}-seed{seed}", {
        "workload": workload, "seed": seed, "rounds": []})["rounds"]
    rounds.append(entry)
    return bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    shas = {side: git("rev-parse", f"{getattr(args, side)}^{{commit}}")
            for side in ("base", "head")}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = ROOT / f"BENCH_{shas['head']}.json"
    entry = {"seconds": seconds, "trace": 0,
             "command": [Path(sys.argv[0]).as_posix(), *sys.argv[1:]],
             "machine": machine(), "pairs": []}
    bench = new_round(json.loads(out.read_text()) if out.exists() else {},
                      shas, args.workload, args.seed, entry)
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {"first": order[0]}
        with tempfile.TemporaryDirectory(prefix="ab-") as work:
            trees = {side: Path(work) / str(place)
                     for place, side in enumerate(order, 1)}
            for side in order:
                extract(shas[side], trees[side])
            for side in order:
                pair[side] = run(trees[side], args.workload, args.seed,
                                 seconds)
        entry["pairs"].append(pair)
        entry["summary"] = summary(entry["pairs"], better)
        out.write_text(json.dumps(bench, indent=1) + "\n")
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{side} wall_s {pair[side]['metrics']['wall_s']:.3f}"
            for side in ("base", "head")), file=sys.stderr)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
