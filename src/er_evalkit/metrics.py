"""Bin-aware precision and recall for entity-resolution runs.

Beyond plain Precision@k and Recall@k, every metric also comes conditioned
on the confidence bin of the retrieved results: Precision@k@bin asks how
precise the bin's slice of the top k is, Recall@k@bin how much of the
relevant set that slice recovers. Undefined cases (0/0) are reported as
absent rather than 0, with one deliberate exception: a qrels query missing
from the run counts as recall 0, because the system failed to answer it.

Metrics are computed per query as exact (numerator, denominator) pairs so
micro aggregation (sum of numerators over sum of denominators) and macro
aggregation (mean of per-query values) both fall out of the same data.
"""

from __future__ import annotations

import enum
import functools
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import IngestError
from .jsonl import atomic_open, dumps, iter_records, require, write_jsonl

log = logging.getLogger(__name__)

DEFAULT_K = 5

MICRO = "micro"
MACRO = "macro"

Fraction = tuple[int, int]


@functools.total_ordering
class ConfidenceBin(enum.Enum):
    """Result confidence bucket; ordering is high > medium > low."""

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"

    @property
    def _level(self) -> int:
        return {"low": 0, "medium": 1, "high": 2}[self.value]

    def __lt__(self, other) -> bool:
        if not isinstance(other, ConfidenceBin):
            return NotImplemented
        return self._level < other._level


BINS = (ConfidenceBin.HIGH, ConfidenceBin.MEDIUM, ConfidenceBin.LOW)


@dataclass(frozen=True)
class RankedEntity:
    entity_id: str
    score: float
    bin: ConfidenceBin


@dataclass(frozen=True)
class RunResult:
    """One query's retrieved list, in the system's rank order.

    The order given is authoritative; scores are never re-sorted here, and a
    score that increases down the list only logs a warning.
    """

    query: str
    ranked: tuple[RankedEntity, ...]

    def __post_init__(self):
        seen = set()
        for item in self.ranked:
            if item.entity_id in seen:
                raise ValueError(
                    f"query {self.query!r}: duplicate entity_id "
                    f"{item.entity_id!r} in ranked list")
            seen.add(item.entity_id)
        for prev, cur in zip(self.ranked, self.ranked[1:]):
            if cur.score > prev.score:
                log.warning("query %r: score increases down the ranking "
                            "(%s < %s)", self.query, prev.score, cur.score)
                break


def _check_k(k: int):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


class QueryScan(NamedTuple):
    """What one walk over a ranked list finds for one qrels query.

    ``topk_hits`` and ``topk_counts`` count, per bin in BINS order, the
    relevant results and all results in the top k; ``best_rank`` and
    ``best_bin`` locate the first relevant result anywhere in the list.
    """

    n_relevant: int
    topk_hits: tuple[int, ...]
    topk_counts: tuple[int, ...]
    first_bin: ConfidenceBin | None
    best_rank: int | None
    best_bin: ConfidenceBin | None


def scan_query(relevant: set[str], ranked: tuple[RankedEntity, ...],
               k: int) -> QueryScan:
    """Walk one ranked list once against one relevant set.

    An unanswered query is scanned as an empty list. The walk stops below
    rank k as soon as the first relevant result is known.
    """
    _check_k(k)
    top_bins: list[ConfidenceBin] = []
    hit_bins: list[ConfidenceBin] = []
    best_rank = best_bin = None
    for rank, item in enumerate(ranked, start=1):
        if rank > k and best_rank is not None:
            break
        hit = item.entity_id in relevant
        if hit and best_rank is None:
            best_rank = rank
            best_bin = item.bin
        if rank <= k:
            top_bins.append(item.bin)
            if hit:
                hit_bins.append(item.bin)
    # list.count compares by identity; a dict keyed by the enum would hash
    # each bin in Python.
    return QueryScan(
        n_relevant=len(relevant),
        topk_hits=tuple(hit_bins.count(bin) for bin in BINS),
        topk_counts=tuple(top_bins.count(bin) for bin in BINS),
        first_bin=ranked[0].bin if ranked else None,
        best_rank=best_rank,
        best_bin=best_bin,
    )


def _fraction(num: int, den: int) -> Fraction | None:
    return (num, den) if den else None


def _fractions(scan: QueryScan, k: int) -> dict[str, Fraction | None]:
    """Every metric of one query as a (num, den) pair; None when 0/0.

    precision@1@high is defined only when the first result is high.
    """
    found = sum(scan.topk_hits)
    n_relevant = scan.n_relevant
    out = {f"precision@{k}": _fraction(found, sum(scan.topk_counts)),
           f"recall@{k}": _fraction(found, n_relevant)}
    for bin, hits, shown in zip(BINS, scan.topk_hits, scan.topk_counts):
        out[f"precision@{k}@{bin.value}"] = _fraction(hits, shown)
        out[f"recall@{k}@{bin.value}"] = _fraction(hits, n_relevant)
    out["precision@1@high"] = _fraction(
        int(scan.best_rank == 1), int(scan.first_bin is ConfidenceBin.HIGH))
    return out


def _value(fraction: Fraction | None) -> float | None:
    if fraction is None:
        return None
    num, den = fraction
    return num / den


def _metric(relevant, ranked, k: int, name: str) -> float | None:
    return _value(_fractions(scan_query(relevant, ranked, k), k)[name])


def recall_at_k(relevant: set[str], ranked: tuple[RankedEntity, ...],
                k: int) -> float | None:
    """|relevant ∩ top-k| / |relevant|; None when relevant is empty."""
    return _metric(relevant, ranked, k, f"recall@{k}")


def precision_at_k(relevant: set[str], ranked: tuple[RankedEntity, ...],
                   k: int) -> float | None:
    """|relevant ∩ top-k| / min(k, |ranked|); None when ranked is empty."""
    return _metric(relevant, ranked, k, f"precision@{k}")


def recall_at_k_bin(relevant: set[str], ranked: tuple[RankedEntity, ...],
                    k: int, bin: ConfidenceBin) -> float | None:
    return _metric(relevant, ranked, k, f"recall@{k}@{bin.value}")


def precision_at_k_bin(relevant: set[str], ranked: tuple[RankedEntity, ...],
                       k: int, bin: ConfidenceBin) -> float | None:
    """Precision over the top-k results carrying ``bin``; None when none do."""
    return _metric(relevant, ranked, k, f"precision@{k}@{bin.value}")


def aggregate(fractions: Iterable[Fraction | None], mode: str) -> float | None:
    """Fold per-query fractions into one number.

    macro averages the defined per-query values; micro divides summed
    numerators by summed denominators. Queries where the metric is
    undefined (None) contribute to neither. All undefined → None.
    """
    defined = [f for f in fractions if f is not None]
    if not defined:
        return None
    if mode == MACRO:
        return sum(num / den for num, den in defined) / len(defined)
    if mode == MICRO:
        return sum(num for num, _ in defined) / sum(den for _, den in defined)
    raise ValueError(f"unknown aggregation mode {mode!r}")


def metric_names(k: int) -> list[str]:
    """Canonical report column order; precision@1@high always present."""
    names = [f"precision@{k}", f"recall@{k}"]
    for bin in BINS:
        names.append(f"precision@{k}@{bin.value}")
        names.append(f"recall@{k}@{bin.value}")
    names.append("precision@1@high")
    return list(dict.fromkeys(names))


@dataclass
class MetricsReport:
    k: int
    bins: tuple[str, ...]
    counts: dict[str, int]
    aggregates: dict[str, dict[str, float | None]]
    per_query: dict[str, dict[str, float | None]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        names = metric_names(self.k)
        return {
            "k": self.k,
            "bins": list(self.bins),
            "counts": {key: self.counts[key] for key in sorted(self.counts)},
            "aggregates": {
                name: {MICRO: self.aggregates[name][MICRO],
                       MACRO: self.aggregates[name][MACRO]}
                for name in names
            },
            "per_query": {
                query: {name: self.per_query[query][name] for name in names}
                for query in sorted(self.per_query)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsReport":
        """Rebuild a report; only the metric columns of ``k`` are read.

        ``k`` must be an int >= 1 (never a bool), ``bins`` a list of
        strings, ``counts`` a dict of ints, and every metric value a finite
        number or null.
        """
        k = require(data, "k", int)
        _check_k(k)
        bins = require(data, "bins", list)
        if not all(type(name) is str for name in bins):
            raise TypeError(f"bins must be a list of strings, got {bins!r}")
        counts = require(data, "counts", dict)
        if not all(type(n) is int for n in counts.values()):
            raise TypeError(f"counts must be a dict of ints, got {counts!r}")
        names = metric_names(k)

        def values(row: dict, keys: Iterable[str]) -> dict:
            return {key: require(row, key, int, float, type(None))
                    for key in keys}

        return cls(
            k=k,
            bins=tuple(bins),
            counts=dict(counts),
            aggregates={name: values(data["aggregates"][name], (MICRO, MACRO))
                        for name in names},
            per_query={query: values(row, row)
                       for query, row in data["per_query"].items()},
        )

    def save(self, path: str | Path) -> None:
        with atomic_open(path) as fh:
            fh.write(dumps(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "MetricsReport":
        try:
            return cls.from_dict(
                json.loads(Path(path).read_text(encoding="utf-8")))
        except (OSError, ValueError) as exc:
            raise IngestError(f"cannot load report {path}: {exc}") from exc
        except (KeyError, TypeError, AttributeError) as exc:
            raise IngestError(f"{path}: not a metrics report: {exc!r}") from exc

    def render_table(self) -> str:
        """Aligned metric table, one row per metric, micro/macro columns."""
        names = metric_names(self.k)
        width = max(len(n) for n in names)

        def fmt(value: float | None) -> str:
            return "-" if value is None else f"{value:.4f}"

        lines = [f"{'metric':<{width}}  {'micro':>8}  {'macro':>8}"]
        for name in names:
            modes = self.aggregates[name]
            lines.append(f"{name:<{width}}  {fmt(modes[MICRO]):>8}  "
                         f"{fmt(modes[MACRO]):>8}")
        counts = ", ".join(f"{key}={self.counts[key]}"
                           for key in sorted(self.counts))
        lines.append(f"queries: {counts}")
        return "\n".join(lines)


def index_run(run: Iterable[RunResult]) -> dict[str, tuple[RankedEntity, ...]]:
    """Map each run query to its ranked list; a repeated query is an error."""
    by_query: dict[str, tuple[RankedEntity, ...]] = {}
    for result in run:
        if result.query in by_query:
            raise ValueError(f"duplicate query in run: {result.query!r}")
        by_query[result.query] = result.ranked
    return by_query


def evaluate_run(qrels, run: Iterable[RunResult], k: int = DEFAULT_K,
                 ) -> MetricsReport:
    """Score a run against qrels and report per-query plus aggregates.

    ``qrels`` is a RelevanceSet or a plain mapping query → set of ids. Run
    queries absent from qrels are ignored (tallied); qrels queries absent
    from the run are scanned as empty lists, so they contribute recall 0.
    A query appearing twice in the run is an error naming it.
    """
    _check_k(k)
    entries: Mapping[str, set[str]] = getattr(qrels, "entries", qrels)
    by_query = index_run(run)

    names = metric_names(k)
    fractions = {
        query: _fractions(
            scan_query(set(entries[query]), by_query.get(query, ()), k), k)
        for query in sorted(entries)
    }
    evaluated = sum(1 for query in entries if query in by_query)
    aggregates = {
        name: {
            MICRO: aggregate((fractions[q][name] for q in fractions), MICRO),
            MACRO: aggregate((fractions[q][name] for q in fractions), MACRO),
        }
        for name in names
    }
    per_query = {
        query: {name: _value(values[name]) for name in names}
        for query, values in fractions.items()
    }
    return MetricsReport(
        k=k,
        bins=tuple(bin.value for bin in BINS),
        counts={"evaluated": evaluated,
                "skipped": len(entries) - evaluated,
                "ignored_run_queries": len(by_query) - evaluated},
        aggregates=aggregates,
        per_query=per_query,
    )


_BIN_BY_VALUE = {bin.value: bin for bin in BINS}


def load_run(path: str | Path) -> list[RunResult]:
    """Load run JSONL: {"query", "results": [{entity_id, score, bin},…]}.

    Ids are strings and a score is a finite int or float; the file order of
    results is the rank order.
    """
    seen: set[str] = set()

    def parse(rec: dict) -> RunResult:
        query = require(rec, "query", str)
        if query in seen:
            raise ValueError(f"duplicate query {query!r}")
        seen.add(query)
        ranked = tuple(
            RankedEntity(entity_id=require(item, "entity_id", str),
                         score=float(require(item, "score", int, float)),
                         bin=_BIN_BY_VALUE[item["bin"]])
            for item in require(rec, "results", list))
        return RunResult(query=query, ranked=ranked)

    return list(iter_records(path, parse, "run record"))


def save_run(run: Iterable[RunResult], path: str | Path) -> int:
    def rows():
        for result in run:
            yield {
                "query": result.query,
                "results": [
                    {"entity_id": item.entity_id, "score": item.score,
                     "bin": item.bin.value}
                    for item in result.ranked
                ],
            }

    return write_jsonl(path, rows())
