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
import logging
import math
import operator
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import IngestError
from .jsonl import decode, iter_records, require, write_jsonl

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

    def __lt__(self, other) -> bool:
        if not isinstance(other, ConfidenceBin):
            return NotImplemented
        return _LEVEL[self] < _LEVEL[other]


BINS = (ConfidenceBin.HIGH, ConfidenceBin.MEDIUM, ConfidenceBin.LOW)
# A bin's level is its byte in RunResult.levels: 0 low, 1 medium, 2 high.
_BIN_AT_LEVEL = BINS[::-1]
_LEVEL = {bin: level for level, bin in enumerate(_BIN_AT_LEVEL)}
_BIN_LEVELS = bytes(map(_LEVEL.__getitem__, BINS))


@dataclass(frozen=True)
class RankedEntity:
    entity_id: str
    score: float
    bin: ConfidenceBin


@dataclass(frozen=True, init=False)
class RunResult:
    """One query's retrieved list as columns, in the system's rank order.

    ``RunResult(query, ranked)`` builds the columns from RankedEntity rows;
    ``columns=(ids, scores, levels)`` takes them as they are. Either way the
    columns are checked in passes that run in C: a repeated entity_id is an
    error, and a score that increases down the list only logs a warning,
    naming the first such pair. The order given is authoritative; scores
    are never re-sorted here.
    """

    query: str
    ids: tuple[str, ...]
    scores: tuple[float, ...]
    levels: bytes

    def __init__(self, query: str, ranked: Iterable[RankedEntity] = (), *,
                 columns: tuple[tuple, tuple, bytes] | None = None):
        if columns is None:
            ranked = tuple(ranked)
            columns = (tuple(item.entity_id for item in ranked),
                       tuple(item.score for item in ranked),
                       bytes(_LEVEL[item.bin] for item in ranked))
        ids, scores, _ = columns
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            repeated = next(i for i in ids if i in seen or seen.add(i))
            raise ValueError(f"query {query!r}: duplicate entity_id "
                             f"{repeated!r} in ranked list")
        if any(map(operator.lt, scores, scores[1:])):
            at = list(map(operator.lt, scores, scores[1:])).index(True)
            log.warning("query %r: score increases down the ranking "
                        "(%s < %s)", query, scores[at], scores[at + 1])
        for name, value in zip(("query", "ids", "scores", "levels"),
                               (query, *columns)):
            object.__setattr__(self, name, value)

    @property
    def ranked(self) -> tuple[RankedEntity, ...]:
        return tuple(map(RankedEntity, self.ids, self.scores,
                         map(_BIN_AT_LEVEL.__getitem__, self.levels)))


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


def scan_query(relevant: set[str], result: RunResult | None,
               k: int) -> QueryScan:
    """Scan one query's columns against one relevant set.

    An unanswered query (None) scans as an empty list. The relevant ids in
    the list are found by one set intersection and the top-k bins counted
    on a slice of the levels, so no Python loop runs per result.
    """
    _check_k(k)
    ids, levels = (result.ids, result.levels) if result else ((), b"")
    ranks = sorted(map(ids.index, relevant.intersection(ids)))
    hit_levels = bytes(levels[rank] for rank in ranks if rank < k)
    return QueryScan(
        n_relevant=len(relevant),
        topk_hits=tuple(map(hit_levels.count, _BIN_LEVELS)),
        topk_counts=tuple(map(levels[:k].count, _BIN_LEVELS)),
        first_bin=_BIN_AT_LEVEL[levels[0]] if levels else None,
        best_rank=ranks[0] + 1 if ranks else None,
        best_bin=_BIN_AT_LEVEL[levels[ranks[0]]] if ranks else None,
    )


def _fraction(num: int, den: int) -> Fraction | None:
    return (num, den) if den else None


def _fractions(scan: QueryScan,
               names: list[str]) -> dict[str, Fraction | None]:
    """Every metric of one query as a (num, den) pair; None when 0/0.

    ``names`` is ``metric_names(k)``. precision@1@high is defined only when
    the first result is high. At k=1 it is also the high bin's precision@k,
    the same fraction, so the names list it once and zip drops the repeat.
    """
    found = sum(scan.topk_hits)
    n_relevant = scan.n_relevant
    values = [_fraction(found, sum(scan.topk_counts)),
              _fraction(found, n_relevant)]
    for hits, shown in zip(scan.topk_hits, scan.topk_counts):
        values += _fraction(hits, shown), _fraction(hits, n_relevant)
    values.append(_fraction(int(scan.best_rank == 1),
                            int(scan.first_bin is ConfidenceBin.HIGH)))
    return dict(zip(names, values))


def _value(fraction: Fraction | None) -> float | None:
    return None if fraction is None else fraction[0] / fraction[1]


def _metric(relevant, ranked, k: int, name: str) -> float | None:
    scan = scan_query(relevant, RunResult("", ranked), k)
    return _value(_fractions(scan, metric_names(k))[name])


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
    return list(dict.fromkeys((
        f"precision@{k}", f"recall@{k}",
        *(f"{metric}@{k}@{bin.value}" for bin in BINS
          for metric in ("precision", "recall")), "precision@1@high")))


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
        write_jsonl(path, [self.to_dict()])

    @classmethod
    def load(cls, path: str | Path) -> "MetricsReport":
        try:
            return cls.from_dict(
                decode(Path(path).read_text(encoding="utf-8")))
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


def index_run(run: Iterable[RunResult]) -> dict[str, RunResult]:
    """Map each run query to its result; a repeated query is an error."""
    by_query: dict[str, RunResult] = {}
    for result in run:
        if result.query in by_query:
            raise ValueError(f"duplicate query in run: {result.query!r}")
        by_query[result.query] = result
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
        query: _fractions(scan_query(set(entries[query]), by_query.get(query),
                                     k), names)
        for query in sorted(entries)
    }
    columns = {name: [row[name] for row in fractions.values()]
               for name in names}
    evaluated = sum(1 for query in entries if query in by_query)
    return MetricsReport(
        k=k,
        bins=tuple(bin.value for bin in BINS),
        counts={"evaluated": evaluated,
                "skipped": len(entries) - evaluated,
                "ignored_run_queries": len(by_query) - evaluated},
        aggregates={name: {mode: aggregate(column, mode)
                           for mode in (MICRO, MACRO)}
                    for name, column in columns.items()},
        per_query={query: {name: _value(row[name]) for name in names}
                   for query, row in fractions.items()},
    )


_LEVEL_BY_VALUE = {bin.value: level for bin, level in _LEVEL.items()}
_FIELDS = operator.itemgetter("entity_id", "score", "bin")


def load_run(path: str | Path) -> list[RunResult]:
    """Load run JSONL: {"query", "results": [{entity_id, score, bin},…]}.

    Ids are strings and a score is a finite int or float; the file order of
    results is the rank order. Each list's types, scores and bins are
    checked a column at a time, and one that fails a check or overflows a
    float is walked again item by item to name its first bad item.
    RunResult checks for repeated ids and rising scores.
    """
    seen: set[str] = set()

    def parse(rec: dict) -> RunResult:
        query = require(rec, "query", str)
        if query in seen:
            raise ValueError(f"duplicate query {query!r}")
        seen.add(query)
        results = require(rec, "results", list)
        with suppress(KeyError, TypeError, OverflowError):
            ids, scores, bins = list(zip(*map(_FIELDS, results))) or [()] * 3
            levels = bytes(map(_LEVEL_BY_VALUE.__getitem__, bins))
            if (set(map(type, ids)) <= {str}
                    and set(map(type, scores)) <= {int, float}
                    and math.isfinite(sum(scores))):
                return RunResult(query, columns=(
                    ids, tuple(map(float, scores)), levels))
        return RunResult(query, (
            RankedEntity(entity_id=require(item, "entity_id", str),
                         score=float(require(item, "score", int, float)),
                         bin=_BIN_AT_LEVEL[_LEVEL_BY_VALUE[item["bin"]]])
            for item in results))

    return list(iter_records(path, parse, "run record"))


def save_run(run: Iterable[RunResult], path: str | Path) -> int:
    def rows():
        for result in run:
            yield {
                "query": result.query,
                "results": [
                    {"entity_id": entity_id, "score": score,
                     "bin": _BIN_AT_LEVEL[level].value}
                    for entity_id, score, level in zip(
                        result.ids, result.scores, result.levels)
                ],
            }

    return write_jsonl(path, rows())
