"""In-process traced pass over one workload's CLI stages.

    python perfbench/traced.py WORKLOAD SEED INPUTS_DIR OUT_DIR RESULT_JSON

run.py starts this with the checkout's src on PYTHONPATH. It calls each
module's public functions in the order the CLI does, records a span (name,
start, end, parent) around every call, and counts work at the same
boundaries. Spans stay in memory and are written to RESULT_JSON at the end,
together with the counters and, for ``simulate``, micro-benchmarks of the
edit-distance kernel and the SplitMix64 draws.

Where the CLI streams one layer into another (``gen_clicklog`` into
``write_events``, ``parse_events`` into aggregation) the pass materializes
the list in between, so each layer gets its own span.
"""

from __future__ import annotations

import json
import logging
import random
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from er_evalkit import (catalog, clickstream, diagnose, importance, jsonl,
                        metrics, relevance, simulate)
from er_evalkit.rng import SplitMix64, derive_seed

MICRO_REPEATS = 5
MICRO_DRAWS = 100_000
MICRO_PAIRS = 5_000


class Tracer:
    """Spans as [name, start, end, parent index] and named counters, kept in
    memory until the pass ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.values: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def read(self, *paths: Path) -> None:
        for path in paths:
            self.add("jsonl.bytes_read", path.stat().st_size)

    def wrote(self, *paths: Path) -> None:
        for path in paths:
            self.add("jsonl.bytes_written", path.stat().st_size)

    def emit(self, text_fn, path: Path) -> None:
        """The summary a CLI stage prints, written to a file instead."""
        with self.span("cli.emit"):
            path.write_text(text_fn() + "\n", encoding="utf-8")


def per_call_ns(fn, n: int) -> float:
    """Median over MICRO_REPEATS of the time per call of fn(i), i < n."""
    times = []
    for _ in range(MICRO_REPEATS):
        start = time.perf_counter()
        for i in range(n):
            fn(i)
        times.append((time.perf_counter() - start) / n * 1e9)
    return statistics.median(times)


def count_gauss_draws(config) -> int:
    """SplitMix64.gauss calls made by simulate's generation and matching.

    Counted in a separate untimed replay: a counter on a call made 500k
    times would distort the timed pass's run_mock_er span.
    """
    base = simulate.SplitMix64
    draws = [0]

    class CountingSplitMix64(base):
        def gauss(self, mu=0.0, sigma=1.0):
            draws[0] += 1
            return base.gauss(self, mu, sigma)

    simulate.SplitMix64 = CountingSplitMix64
    try:
        titles = simulate.gen_catalog(config)
        queries = simulate.gen_queries(titles, config)
        simulate.run_mock_er(titles, queries, config)
    finally:
        simulate.SplitMix64 = base
    return draws[0]


def trace_simulate(t: Tracer, seed: int, inp: Path, out: Path) -> None:
    config = simulate.SimConfig(seed=seed)
    with t.span("cli.simulate"):
        titles = t.call("simulate.gen_catalog", simulate.gen_catalog, config)
        queries = t.call("simulate.gen_queries", simulate.gen_queries,
                         titles, config)
        run = t.call("simulate.run_mock_er", simulate.run_mock_er,
                     titles, queries, config)
        t.call("simulate.write_catalog_tsv", simulate.write_catalog_tsv,
               titles, out)
        events = t.call("simulate.gen_clicklog", lambda: list(
            simulate.gen_clicklog(run, dict(queries), config)))
        t.call("clickstream.write_events", clickstream.write_events,
               events, out / "clicklog.jsonl")
        t.call("metrics.save_run", metrics.save_run, run, out / "run.jsonl")
        t.call("simulate.write_truth_qrels", simulate.write_truth_qrels,
               queries, out / "truth_qrels.jsonl")
    t.wrote(out / "clicklog.jsonl", out / "run.jsonl", out / "truth_qrels.jsonl")
    t.add("simulate.pairs_scored", len(queries) * len(titles))
    t.add("rng.gauss_draws", count_gauss_draws(config))

    # Micro-benchmarks at the workload seed.
    gauss = SplitMix64(derive_seed(seed, "matcher")).gauss
    uniform = SplitMix64(derive_seed(seed, "matcher")).random
    t.add("rng.gauss_ns_per_draw",
          per_call_ns(lambda i: gauss(0.0, 0.05), MICRO_DRAWS))
    t.add("rng.random_ns_per_draw", per_call_ns(lambda i: uniform(), MICRO_DRAWS))
    sample = random.Random(seed)
    names = [clickstream.normalize_query(title.name) for title in titles.titles]
    pairs = [(sample.choice(queries)[0], sample.choice(names))
             for _ in range(MICRO_PAIRS)]
    t.add("simulate.levenshtein_ns_per_pair", per_call_ns(
        lambda i: simulate.levenshtein(*pairs[i]), MICRO_PAIRS))


def trace_testset(t: Tracer, seed: int, inp: Path, out: Path) -> None:
    with t.span("cli.ingest-catalog"):
        parsed = t.call("catalog.parse_catalog", catalog.parse_catalog,
                        inp / "basics.tsv", inp / "ratings.tsv",
                        inp / "ranks.tsv")
        t.call("catalog.write_catalog", catalog.write_catalog, parsed,
               out / "catalog.jsonl")
        t.emit(lambda: jsonl.dumps(parsed.stats.as_dict()),
               out / "ingest.stdout")
    t.wrote(out / "catalog.jsonl")
    stats = parsed.stats
    t.add("catalog.rows_in",
          stats.basics_rows + stats.ratings_rows + stats.ranks_rows)
    t.add("catalog.rejects", stats.rejects)

    with t.span("cli.score-importance"):
        loaded = t.call("catalog.load_catalog", catalog.load_catalog,
                        out / "catalog.jsonl")
        scored, excluded = t.call("importance.score_catalog",
                                  importance.score_catalog, loaded,
                                  importance.ImportanceConfig())
        t.call("importance.write_scored", importance.write_scored, scored,
               out / "scored.jsonl")
    t.call("jsonl.load_jsonl", jsonl.load_jsonl, out / "catalog.jsonl")
    t.read(out / "catalog.jsonl")
    t.wrote(out / "scored.jsonl")
    t.add("importance.scored", len(scored))
    t.add("importance.excluded", excluded)

    with t.span("cli.aggregate-ctr"):
        parse_stats = clickstream.ParseStats()
        events = t.call("clickstream.parse_events", lambda: list(
            clickstream.parse_events(inp / "clicklog.jsonl", stats=parse_stats)))
        records = t.call("clickstream.aggregate",
                         clickstream.aggregate_in_shards, events, 1, threads=1)
        kept, _ = t.call("clickstream.filter", clickstream.filter_records,
                         records, clickstream.CtrFilter())
        t.call("clickstream.write_ctr", clickstream.write_ctr_records, kept,
               out / "ctr.jsonl")
    t.read(inp / "clicklog.jsonl")
    t.wrote(out / "ctr.jsonl")
    t.add("clickstream.events_in", parse_stats.lines)
    t.add("clickstream.events_rejected", parse_stats.rejected)
    t.add("clickstream.pairs_out", len(records))
    t.add("clickstream.kept_ratio", len(kept) / len(records))

    with t.span("cli.build-relevance"):
        ctr = t.call("clickstream.load_ctr", clickstream.load_ctr_records,
                     out / "ctr.jsonl")
        scored = t.call("importance.load_scored", importance.load_scored,
                        out / "scored.jsonl")
        relset, summary = t.call("relevance.merge_relevance",
                                 relevance.merge_relevance, ctr, scored)
        t.call("relevance.emit_qrels", relevance.emit_qrels, relset,
               out / "qrels.jsonl")
    t.call("jsonl.load_jsonl", jsonl.load_jsonl, out / "ctr.jsonl")
    t.call("jsonl.load_jsonl", jsonl.load_jsonl, out / "scored.jsonl")
    t.read(out / "ctr.jsonl", out / "scored.jsonl")
    t.wrote(out / "qrels.jsonl", out / "qrels.provenance.jsonl")
    t.add("relevance.pairs_in", len(ctr))
    t.add("relevance.included_ratio", summary.included / len(ctr))


class _CountHandler(logging.Handler):
    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        self.count += 1


def trace_evaluate(t: Tracer, seed: int, inp: Path, out: Path) -> None:
    warnings = _CountHandler()
    logging.getLogger(metrics.__name__).addHandler(warnings)
    k, qrels_path = metrics.DEFAULT_K, inp / "qrels.jsonl"

    def load(run_path: Path):
        qrels = t.call("relevance.load_qrels", relevance.load_qrels, qrels_path)
        run = t.call("metrics.load_run", metrics.load_run, run_path)
        t.add("metrics.results_loaded", sum(len(r.ranked) for r in run))
        return qrels, run

    def floor(run_path: Path):
        t.call("jsonl.load_jsonl", jsonl.load_jsonl, qrels_path)
        t.call("jsonl.load_jsonl", jsonl.load_jsonl, run_path)
        t.read(qrels_path, run_path)

    for side in ("baseline", "candidate"):
        run_path = inp / f"{side}.jsonl"
        with t.span("cli.evaluate"):
            qrels, run = load(run_path)
            report = t.call("metrics.evaluate_run", metrics.evaluate_run,
                            qrels, run, k=k)
            t.call("metrics.report_save", report.save,
                   out / f"{side}.report.json")
            t.emit(lambda: jsonl.dumps(report.to_dict()),
                   out / f"evaluate-{side}.stdout")
        t.add("metrics.queries_evaluated", report.counts["evaluated"])
        floor(run_path)

    run_path = inp / "candidate.jsonl"
    with t.span("cli.diagnose"):
        qrels, run = load(run_path)
        diagnoses, summary = t.call(
            "diagnose.diagnose_run", diagnose.diagnose_run, qrels, run, k=k,
            target_bin=metrics.ConfidenceBin.HIGH)
        t.call("diagnose.write_diagnoses", diagnose.write_diagnoses,
               diagnoses, out / "diagnoses.jsonl")
        t.emit(lambda: jsonl.dumps(summary.to_dict()), out / "diagnose.stdout")
    floor(run_path)
    t.wrote(out / "diagnoses.jsonl")
    t.add("diagnose.inconsistent_summaries", int(not summary.consistent))

    with t.span("cli.compare"):
        baseline = t.call("metrics.report_load", metrics.MetricsReport.load,
                          out / "baseline.report.json")
        candidate = t.call("metrics.report_load", metrics.MetricsReport.load,
                           out / "candidate.report.json")
        delta = t.call("diagnose.compare_reports", diagnose.compare_reports,
                       baseline, candidate)
        t.call("diagnose.delta_save", delta.save, out / "delta.json")
        t.emit(lambda: jsonl.dumps(delta.to_dict()), out / "compare.stdout")
    t.add("metrics.non_monotone_warnings", warnings.count)


PASSES = {"simulate": trace_simulate, "testset": trace_testset,
          "evaluate": trace_evaluate}


def main(argv: list[str]) -> int:
    workload, seed, inp, out, result = argv
    tracer = Tracer()
    PASSES[workload](tracer, int(seed), Path(inp), Path(out))
    Path(result).write_text(json.dumps({"spans": tracer.spans,
                                        "values": tracer.values}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
