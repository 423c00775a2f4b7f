"""Root-cause classification of failed queries and experiment comparison.

A query that misses its relevant entities can fail in three distinct
places: the entity was never retrieved (retrieval_miss), it was retrieved
but ranked below the top k (ranking_miss), or it made the top k with too
weak a confidence bin (binning_miss). Exactly one category applies per
query, which makes the counts a partition and lets the summary cross-check
itself against an independently computed hit rate.

compare_reports lines two metric reports up column by column and computes
both delta conventions, absolute percentage points and relative percent,
each rendered with an explicit sign marker.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .errors import ConfigError, IngestError
from .jsonl import atomic_open, dumps, read_lines, write_jsonl
from .metrics import (
    BINS,
    MACRO,
    MICRO,
    ConfidenceBin,
    MetricsReport,
    RunResult,
    metric_names,
)

DEFAULT_TARGET_BIN = ConfidenceBin.HIGH


class FailureCategory(enum.Enum):
    SUCCESS = "success"
    BINNING_MISS = "binning_miss"
    RANKING_MISS = "ranking_miss"
    RETRIEVAL_MISS = "retrieval_miss"


CATEGORIES = (FailureCategory.SUCCESS, FailureCategory.BINNING_MISS,
              FailureCategory.RANKING_MISS, FailureCategory.RETRIEVAL_MISS)


@dataclass(frozen=True)
class Diagnosis:
    """Category plus evidence: the best relevant hit's rank and bin."""

    query: str
    category: FailureCategory
    best_rank: int | None = None
    best_bin: ConfidenceBin | None = None


@dataclass
class DiagnosisSummary:
    total: int
    counts: dict[str, int]
    fractions: dict[str, float]
    success_fraction: float
    hit_rate: float
    consistent: bool
    topk_bin_histogram: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "counts": {c.value: self.counts[c.value] for c in CATEGORIES},
            "fractions": {c.value: self.fractions[c.value] for c in CATEGORIES},
            "success_fraction": self.success_fraction,
            "hit_rate": self.hit_rate,
            "consistent": self.consistent,
            "topk_bin_histogram": {
                bin.value: self.topk_bin_histogram[bin.value] for bin in BINS
            },
        }


def classify_query(relevant: set[str], result: RunResult, k: int = 5,
                   target_bin: ConfidenceBin = DEFAULT_TARGET_BIN) -> Diagnosis:
    """Assign exactly one failure category to one query.

    The decision reads top down: a relevant entity in the top k with bin ≥
    target_bin is a success; relevant in top k but never at the target bin
    is a binning_miss; relevant retrieved but only below rank k is a
    ranking_miss; relevant never retrieved is a retrieval_miss. Evidence is
    the lowest-rank relevant hit anywhere in the ranked list, whatever its
    bin.
    """
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    best_rank = None
    best_bin = None
    in_topk = False
    meets_target = False
    for rank, item in enumerate(result.ranked, start=1):
        if item.entity_id not in relevant:
            continue
        if best_rank is None:
            best_rank = rank
            best_bin = item.bin
        if rank <= k:
            in_topk = True
            if item.bin >= target_bin:
                meets_target = True
    if meets_target:
        category = FailureCategory.SUCCESS
    elif in_topk:
        category = FailureCategory.BINNING_MISS
    elif best_rank is not None:
        category = FailureCategory.RANKING_MISS
    else:
        category = FailureCategory.RETRIEVAL_MISS
    return Diagnosis(query=result.query, category=category,
                     best_rank=best_rank, best_bin=best_bin)


def diagnose_run(qrels, run: Iterable[RunResult], k: int = 5,
                 target_bin: ConfidenceBin = DEFAULT_TARGET_BIN,
                 ) -> tuple[list[Diagnosis], DiagnosisSummary]:
    """Classify every qrels query and summarize the category partition.

    Queries the run never answered classify as retrieval_miss. The summary
    recomputes the success rate as a plain hit rate over a second pass and
    flags whether the two agree.
    """
    entries: Mapping[str, set[str]] = getattr(qrels, "entries", qrels)
    by_query: dict[str, RunResult] = {}
    for result in run:
        if result.query in by_query:
            raise ValueError(f"duplicate query in run: {result.query!r}")
        by_query[result.query] = result

    diagnoses = []
    histogram = {bin.value: 0 for bin in BINS}
    for query in sorted(entries):
        relevant = set(entries[query])
        result = by_query.get(query)
        if result is None:
            diagnoses.append(Diagnosis(
                query=query, category=FailureCategory.RETRIEVAL_MISS))
            continue
        diagnoses.append(classify_query(relevant, result, k, target_bin))
        for item in result.ranked[:k]:
            if item.entity_id in relevant:
                histogram[item.bin.value] += 1

    counts = {c.value: 0 for c in CATEGORIES}
    for diagnosis in diagnoses:
        counts[diagnosis.category.value] += 1
    total = len(diagnoses)
    fractions = {name: (count / total if total else 0.0)
                 for name, count in counts.items()}

    # Independent cross-check: count hits directly, without the category
    # decision table.
    hits = 0
    for query in entries:
        result = by_query.get(query)
        if result is None:
            continue
        relevant = entries[query]
        if any(item.entity_id in relevant and item.bin >= target_bin
               for item in result.ranked[:k]):
            hits += 1
    hit_rate = hits / total if total else 0.0
    success_fraction = fractions[FailureCategory.SUCCESS.value]
    summary = DiagnosisSummary(
        total=total,
        counts=counts,
        fractions=fractions,
        success_fraction=success_fraction,
        hit_rate=hit_rate,
        consistent=(success_fraction == hit_rate),
        topk_bin_histogram=histogram,
    )
    return diagnoses, summary


def write_diagnoses(diagnoses: Iterable[Diagnosis], path: str | Path) -> int:
    def rows():
        for d in diagnoses:
            yield {
                "query": d.query,
                "category": d.category.value,
                "best_rank": d.best_rank,
                "best_bin": d.best_bin.value if d.best_bin else None,
            }

    return write_jsonl(path, rows())


def load_diagnoses(path: str | Path) -> list[Diagnosis]:
    out = []
    for lineno, line in read_lines(path):
        try:
            rec = json.loads(line)
            bin_value = rec.get("best_bin")
            out.append(Diagnosis(
                query=rec["query"],
                category=FailureCategory(rec["category"]),
                best_rank=rec.get("best_rank"),
                best_bin=ConfidenceBin(bin_value) if bin_value else None,
            ))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"{path}:{lineno}: bad diagnosis: {exc}") from exc
    return out


def format_signed(value: float, suffix: str) -> str:
    """Render a delta with an explicit sign, e.g. +5.00pp or -10.00%."""
    if value == 0:
        value = 0.0
    return f"{value:+.2f}{suffix}"


@dataclass(frozen=True)
class DeltaCell:
    metric: str
    mode: str
    baseline: float | None
    candidate: float | None
    absolute_pp: float | None
    relative_pct: float | None
    marker: str | None
    comparable: bool

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "mode": self.mode,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "absolute_pp": self.absolute_pp,
            "relative_pct": self.relative_pct,
            "absolute_label": (None if self.absolute_pp is None
                               else format_signed(self.absolute_pp, "pp")),
            "relative_label": (None if self.relative_pct is None
                               else format_signed(self.relative_pct, "%")),
            "marker": self.marker,
            "comparable": self.comparable,
        }


@dataclass
class DeltaReport:
    k: int
    bins: tuple[str, ...]
    cells: list[DeltaCell]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "bins": list(self.bins),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def save(self, path: str | Path) -> None:
        with atomic_open(path) as fh:
            fh.write(dumps(self.to_dict()) + "\n")

    def render_table(self) -> str:
        """Aligned comparison, one block per aggregation mode.

        Headline columns first, mirroring the usual reporting order:
        recall@k@high, precision@k@high, precision@1@high.
        """
        width = max(len(cell.metric) for cell in self.cells)

        def fmt(value: float | None) -> str:
            return "-" if value is None else f"{value:.4f}"

        lines = []
        for mode in (MICRO, MACRO):
            lines.append(f"[{mode}]")
            lines.append(f"{'metric':<{width}}  {'baseline':>9}  "
                         f"{'candidate':>9}  {'abs':>9}  {'rel':>9}")
            for cell in self.cells:
                if cell.mode != mode:
                    continue
                abs_label = ("-" if cell.absolute_pp is None
                             else format_signed(cell.absolute_pp, "pp"))
                rel_label = ("-" if cell.relative_pct is None
                             else format_signed(cell.relative_pct, "%"))
                lines.append(f"{cell.metric:<{width}}  {fmt(cell.baseline):>9}  "
                             f"{fmt(cell.candidate):>9}  {abs_label:>9}  "
                             f"{rel_label:>9}")
            lines.append("")
        return "\n".join(lines).rstrip("\n")


def headline_metrics(k: int) -> list[str]:
    return [f"recall@{k}@high", f"precision@{k}@high", "precision@1@high"]


def compare_reports(baseline: MetricsReport,
                    candidate: MetricsReport) -> DeltaReport:
    """Column-by-column deltas between two reports over the same k and bins.

    Absolute deltas are percentage points (value difference × 100), relative
    deltas are percent of the baseline. A metric undefined on either side
    is kept but marked incomparable; a defined baseline of exactly 0 leaves
    the relative delta undefined.
    """
    if baseline.k != candidate.k:
        raise ConfigError(
            f"reports disagree on k: {baseline.k} vs {candidate.k}")
    if tuple(baseline.bins) != tuple(candidate.bins):
        raise ConfigError(
            f"reports disagree on bins: {baseline.bins} vs {candidate.bins}")
    k = baseline.k
    ordered = list(dict.fromkeys(headline_metrics(k) + metric_names(k)))
    cells = []
    for metric in ordered:
        for mode in (MICRO, MACRO):
            base = baseline.aggregates[metric][mode]
            cand = candidate.aggregates[metric][mode]
            if base is None or cand is None:
                cells.append(DeltaCell(metric, mode, base, cand,
                                       absolute_pp=None, relative_pct=None,
                                       marker=None, comparable=False))
                continue
            delta = cand - base
            relative = (delta / base) * 100.0 if base != 0 else None
            cells.append(DeltaCell(
                metric, mode,
                baseline=base, candidate=cand,
                absolute_pp=delta * 100.0,
                relative_pct=relative,
                marker="+" if delta >= 0 else "-",
                comparable=True,
            ))
    return DeltaReport(k=k, bins=tuple(baseline.bins), cells=cells)
