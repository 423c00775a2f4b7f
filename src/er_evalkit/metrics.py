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
from typing import Iterable, Mapping

from .errors import IngestError
from .jsonl import atomic_open, dumps, read_lines, write_jsonl

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


def _topk_ids(ranked: tuple[RankedEntity, ...], k: int) -> set[str]:
    return {item.entity_id for item in ranked[:k]}


def _topk_bin_ids(ranked: tuple[RankedEntity, ...], k: int,
                  bin: ConfidenceBin) -> set[str]:
    return {item.entity_id for item in ranked[:k] if item.bin is bin}


def recall_fraction(relevant: set[str], ranked: tuple[RankedEntity, ...],
                    k: int) -> Fraction | None:
    _check_k(k)
    if not relevant:
        return None
    return len(relevant & _topk_ids(ranked, k)), len(relevant)


def precision_fraction(relevant: set[str], ranked: tuple[RankedEntity, ...],
                       k: int) -> Fraction | None:
    _check_k(k)
    if not ranked:
        return None
    denom = min(k, len(ranked))
    return len(relevant & _topk_ids(ranked, k)), denom


def recall_bin_fraction(relevant: set[str], ranked: tuple[RankedEntity, ...],
                        k: int, bin: ConfidenceBin) -> Fraction | None:
    _check_k(k)
    if not relevant:
        return None
    return len(relevant & _topk_bin_ids(ranked, k, bin)), len(relevant)


def precision_bin_fraction(relevant: set[str],
                           ranked: tuple[RankedEntity, ...],
                           k: int, bin: ConfidenceBin) -> Fraction | None:
    _check_k(k)
    in_bin = _topk_bin_ids(ranked, k, bin)
    if not in_bin:
        return None
    return len(relevant & in_bin), len(in_bin)


def _value(fraction: Fraction | None) -> float | None:
    if fraction is None:
        return None
    num, den = fraction
    return num / den


def recall_at_k(relevant: set[str], ranked: tuple[RankedEntity, ...],
                k: int) -> float | None:
    """|relevant ∩ top-k| / |relevant|; None when relevant is empty."""
    return _value(recall_fraction(relevant, ranked, k))


def precision_at_k(relevant: set[str], ranked: tuple[RankedEntity, ...],
                   k: int) -> float | None:
    """|relevant ∩ top-k| / min(k, |ranked|); None when ranked is empty."""
    return _value(precision_fraction(relevant, ranked, k))


def recall_at_k_bin(relevant: set[str], ranked: tuple[RankedEntity, ...],
                    k: int, bin: ConfidenceBin) -> float | None:
    return _value(recall_bin_fraction(relevant, ranked, k, bin))


def precision_at_k_bin(relevant: set[str], ranked: tuple[RankedEntity, ...],
                       k: int, bin: ConfidenceBin) -> float | None:
    """Precision over the top-k results carrying ``bin``; None when none do."""
    return _value(precision_bin_fraction(relevant, ranked, k, bin))


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
        return cls(
            k=data["k"],
            bins=tuple(data["bins"]),
            counts=dict(data["counts"]),
            aggregates={name: dict(modes)
                        for name, modes in data["aggregates"].items()},
            per_query={query: dict(values)
                       for query, values in data["per_query"].items()},
        )

    def save(self, path: str | Path) -> None:
        with atomic_open(path) as fh:
            fh.write(dumps(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "MetricsReport":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise IngestError(f"cannot load report {path}: {exc}") from exc
        return cls.from_dict(data)

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


def _query_fractions(relevant: set[str], result: RunResult | None,
                     k: int) -> dict[str, Fraction | None]:
    """All metric fractions for one qrels query.

    ``result=None`` means the run never answered the query: every recall
    variant gets a zero numerator over the full relevant set, precision
    stays undefined.
    """
    out: dict[str, Fraction | None] = {}
    if result is None:
        zero = (0, len(relevant))
        out[f"precision@{k}"] = None
        out[f"recall@{k}"] = zero
        for bin in BINS:
            out[f"precision@{k}@{bin.value}"] = None
            out[f"recall@{k}@{bin.value}"] = zero
        out["precision@1@high"] = None
        return out
    ranked = result.ranked
    out[f"precision@{k}"] = precision_fraction(relevant, ranked, k)
    out[f"recall@{k}"] = recall_fraction(relevant, ranked, k)
    for bin in BINS:
        out[f"precision@{k}@{bin.value}"] = precision_bin_fraction(
            relevant, ranked, k, bin)
        out[f"recall@{k}@{bin.value}"] = recall_bin_fraction(
            relevant, ranked, k, bin)
    out["precision@1@high"] = precision_bin_fraction(
        relevant, ranked, 1, ConfidenceBin.HIGH)
    return out


def evaluate_run(qrels, run: Iterable[RunResult], k: int = DEFAULT_K,
                 ) -> MetricsReport:
    """Score a run against qrels and report per-query plus aggregates.

    ``qrels`` is a RelevanceSet or a plain mapping query → set of ids. Run
    queries absent from qrels are ignored (tallied); qrels queries absent
    from the run contribute recall 0. A query appearing twice in the run is
    an error naming it.
    """
    _check_k(k)
    entries: Mapping[str, set[str]] = getattr(qrels, "entries", qrels)
    by_query: dict[str, RunResult] = {}
    for result in run:
        if result.query in by_query:
            raise ValueError(f"duplicate query in run: {result.query!r}")
        by_query[result.query] = result

    names = metric_names(k)
    fractions: dict[str, dict[str, Fraction | None]] = {}
    evaluated = skipped = 0
    for query in sorted(entries):
        result = by_query.get(query)
        if result is None:
            skipped += 1
        else:
            evaluated += 1
        fractions[query] = _query_fractions(set(entries[query]), result, k)

    ignored = sum(1 for query in by_query if query not in entries)
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
        counts={"evaluated": evaluated, "skipped": skipped,
                "ignored_run_queries": ignored},
        aggregates=aggregates,
        per_query=per_query,
    )


def load_run(path: str | Path) -> list[RunResult]:
    """Load run JSONL: {"query", "results": [{entity_id, score, bin},…]}."""
    out = []
    seen: set[str] = set()
    for lineno, line in read_lines(path):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise IngestError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if (not isinstance(rec, dict) or not isinstance(rec.get("query"), str)
                or not isinstance(rec.get("results"), list)):
            raise IngestError(f"{path}:{lineno}: not a run record")
        query = rec["query"]
        if query in seen:
            raise IngestError(f"{path}:{lineno}: duplicate query {query!r}")
        seen.add(query)
        ranked = []
        for item in rec["results"]:
            try:
                ranked.append(RankedEntity(
                    entity_id=item["entity_id"],
                    score=float(item["score"]),
                    bin=ConfidenceBin(item["bin"]),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise IngestError(
                    f"{path}:{lineno}: bad result entry: {exc}") from exc
        try:
            out.append(RunResult(query=query, ranked=tuple(ranked)))
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
    return out


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
