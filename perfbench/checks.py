"""Output checks for each workload, in the benchmark's own stdlib code.

Expected values come from what the input generator planted (perfbench/gen.py)
or, for ``simulate``, from pinned digests and the documented file shapes,
never from ``er_evalkit`` itself. Each check counts as one attempted
operation; a failed one counts toward the run's ``failed``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import gen

# sha256 of every simulate output at the defaults, seed 42.
SIMULATE_SEED = 42
SIMULATE_DIGESTS = {
    "basics.tsv": "2b178349bc7d01dba758d13c9a0cc83296841bb0618e5a6ebe16bb38d2105809",
    "ratings.tsv": "405b47fad3e281a7206fcc0aaf002ce7f6fea453870bff078d12b975099e5c33",
    "ranks.tsv": "c8686871dd54186e2e52e1633400b31423d01a4c37fa447332bc89064dac9838",
    "clicklog.jsonl": "390a779219d3cc6a0be149bb32be62f032ee935114403d205b2fce818e0664a8",
    "run.jsonl": "5242b36987f0d0f911d4e489825b2a2f01e22b12b08c11907d84bfd4fb6ac934",
    "truth_qrels.jsonl": "51fb1dc879e9acc000f46e364218e43a93647bc9462bcda48232eeeb95b82776",
}
NON_MONOTONE_WARNING = "score increases down the ranking"


class Checker:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), "" if ok else detail[:500]))
        return ok

    def equal(self, name: str, got, want) -> bool:
        ok = got == want
        return self.expect(name, ok, "" if ok else f"got {got!r}, want {want!r}")

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _summary(proc) -> dict:
    return json.loads(proc.stdout.read_text(encoding="utf-8"))


def check_simulate(c: Checker, generated, out: Path, procs, seed: int) -> None:
    summary = _summary(procs[0])
    n_titles, n_queries = generated.props["n_titles"], generated.props["n_queries"]
    n_events = n_queries * generated.props["n_replays"]
    c.equal("simulate summary counts",
            (summary["titles"], summary["queries"], summary["events"]),
            (n_titles, n_queries, n_events))
    for name in ("basics.tsv", "ratings.tsv", "ranks.tsv"):
        c.equal(f"simulate {name} rows", len(_lines(out / name)), n_titles + 1)
    c.equal("simulate clicklog lines", len(_lines(out / "clicklog.jsonl")),
            n_events)
    c.equal("simulate truth_qrels lines",
            len(_lines(out / "truth_qrels.jsonl")), n_queries)
    run = [json.loads(line) for line in _lines(out / "run.jsonl")]
    c.equal("simulate run lines", len(run), n_queries)
    c.expect("simulate run: 10 results per list",
             all(len(r["results"]) == 10 for r in run))
    c.expect("simulate run: scores non-increasing", all(
        a["score"] >= b["score"]
        for r in run for a, b in zip(r["results"], r["results"][1:])))
    if seed == SIMULATE_SEED:
        for name, want in SIMULATE_DIGESTS.items():
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            c.equal(f"simulate {name} matches pinned digest", got, want)


def check_testset(c: Checker, generated, out: Path, procs, seed: int) -> None:
    want = generated.expected
    ingest, score, aggregate, build = (_summary(p) for p in procs)
    c.equal("ingest titles and rejects", (ingest["titles"], ingest["rejects"]),
            (want["titles"], want["basics_rejects"]))

    c.equal("score-importance scored, excluded",
            (score["scored"], score["excluded"]), (len(want["importance"]), 0))
    scored = [json.loads(line) for line in _lines(out / "scored.jsonl")]
    importance = want["importance"]
    c.equal("scored ids", sorted(r["entity_id"] for r in scored),
            sorted(importance))
    off = [r["entity_id"] for r in scored
           if abs(r["importance"] - importance.get(r["entity_id"], -9)) > 1e-12]
    c.expect("scored importance recomputed", not off, f"{len(off)} differ: {off[:3]}")

    c.equal("aggregate-ctr counts",
            tuple(aggregate[k] for k in ("events", "rejected_events", "pairs",
                                         "kept")),
            (want["events"], want["rejected"], want["pairs"], len(want["kept"])))
    ctr = [json.loads(line) for line in _lines(out / "ctr.jsonl")]
    got = {(r["query"], r["entity_id"]): (r["nimp"], r["nclick"]) for r in ctr}
    c.equal("ctr records: (nimp, nclick) per kept pair", got, want["kept"])
    c.expect("ctr records: sorted, ctr = nclick / nimp",
             [(r["query"], r["entity_id"]) for r in ctr] == sorted(got)
             and all(r["ctr"] == r["nclick"] / r["nimp"] for r in ctr))

    qrels = [json.loads(line) for line in _lines(out / "qrels.jsonl")]
    c.equal("qrels: kept pairs above min_importance",
            {r["query"]: r["relevant"] for r in qrels}, want["qrels"])
    c.expect("qrels sorted by query",
             [r["query"] for r in qrels] == sorted(want["qrels"]))
    n_pairs = sum(len(ids) for ids in want["qrels"].values())
    c.equal("provenance lines",
            len(_lines(out / "qrels.provenance.jsonl")), n_pairs)
    c.equal("build-relevance summary", (build["queries"], build["pairs"]),
            (len(want["qrels"]), n_pairs))


def check_evaluate(c: Checker, generated, out: Path, procs, seed: int) -> None:
    want = generated.expected
    k = gen.EVALUATE_K
    reports = {}
    for side, proc in zip(("baseline", "candidate"), procs[:2]):
        w = want[side]
        report_bytes = (out / f"{side}.report.json").read_bytes()
        c.expect(f"evaluate {side}: stdout is the saved report",
                 proc.stdout.read_bytes() == report_bytes)
        report = reports[side] = json.loads(report_bytes)
        counts = report["counts"]
        c.equal(f"evaluate {side}: counts",
                (counts["evaluated"], counts["skipped"],
                 counts["ignored_run_queries"]),
                (w["evaluated"], w["skipped"], w["ignored"]))
        agg = report["aggregates"]
        c.equal(f"evaluate {side}: micro recall@{k}@high",
                agg[f"recall@{k}@high"]["micro"], w["recall_high"])
        c.equal(f"evaluate {side}: micro recall@{k}",
                agg[f"recall@{k}"]["micro"], w["recall"])
        c.equal(f"evaluate {side}: micro precision@1@high",
                agg["precision@1@high"]["micro"], w["p1_high"])
        c.equal(f"evaluate {side}: non-monotone warnings",
                proc.stderr.read_text().count(NON_MONOTONE_WARNING),
                w["non_monotone"])

    diagnose, compare = procs[2], procs[3]
    w = want["candidate"]
    summary = _summary(diagnose)
    c.equal("diagnose: category counts", summary["counts"], w["categories"])
    c.expect("diagnose: consistent", summary["consistent"] is True)
    n_qrels = generated.props["qrels_queries"]
    c.equal("diagnose: total", summary["total"], n_qrels)
    c.equal("diagnose: lines written", len(_lines(out / "diagnoses.jsonl")),
            n_qrels)
    c.equal("diagnose: non-monotone warnings",
            diagnose.stderr.read_text().count(NON_MONOTONE_WARNING),
            w["non_monotone"])

    delta = json.loads((out / "delta.json").read_bytes())
    base = reports["baseline"]["aggregates"]
    cand = reports["candidate"]["aggregates"]
    c.equal("compare: one cell per metric and mode", len(delta["cells"]),
            2 * len(base))
    wrong = []
    for cell in delta["cells"]:
        b, a = base[cell["metric"]][cell["mode"]], cand[cell["metric"]][cell["mode"]]
        if (cell["baseline"], cell["candidate"]) != (b, a) or (
                cell["comparable"] and cell["absolute_pp"] != (a - b) * 100.0):
            wrong.append(cell["metric"] + "/" + cell["mode"])
    c.expect("compare: absolute_pp = (candidate - baseline) x 100", not wrong,
             f"wrong cells: {wrong}")
    c.expect("compare: stdout is the saved delta",
             compare.stdout.read_bytes() == (out / "delta.json").read_bytes())
