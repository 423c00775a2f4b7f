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
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import ConfigError
from .jsonl import as_records, optional, require, write_jsonl
from .metrics import (
    BINS,
    DEFAULT_K,
    MACRO,
    MICRO,
    ConfidenceBin,
    MetricsReport,
    QueryScan,
    RunResult,
    format_value,
    metric_names,
    render_rows,
    scan_run,
)

DEFAULT_TARGET_BIN = ConfidenceBin.HIGH


class FailureCategory(enum.Enum):
    SUCCESS = "success"
    BINNING_MISS = "binning_miss"
    RANKING_MISS = "ranking_miss"
    RETRIEVAL_MISS = "retrieval_miss"


CATEGORIES = tuple(FailureCategory)


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
        # Declaration order, with the dicts built in CATEGORIES and BINS
        # order by diagnose_run, is the canonical key order.
        return asdict(self)

    def render_table(self) -> str:
        """Count and fraction per category, then the hit-rate check."""
        return "\n".join([*render_rows(
            ("category", "count", "fraction"), (7, 8),
            ((name, count, format_value(self.fractions[name]))
             for name, count in self.counts.items())),
            f"hit_rate {self.hit_rate:.4f} "
            f"consistent={str(self.consistent).lower()}"])


def _classify(query: str, scan: QueryScan,
              target_bin: ConfidenceBin) -> Diagnosis:
    """Assign exactly one failure category to one query's scan.

    The decision reads top down: a relevant entity in the top k with bin ≥
    target_bin is a success; relevant in top k but never at the target bin
    is a binning_miss; relevant retrieved but only below rank k is a
    ranking_miss; relevant never retrieved is a retrieval_miss. Evidence is
    the lowest-rank relevant hit anywhere in the ranked list, whatever its
    bin.
    """
    if not scan.n_relevant:
        raise ValueError("relevant set must be nonempty")
    if sum(scan.topk_hits[:BINS.index(target_bin) + 1]):
        category = FailureCategory.SUCCESS
    elif sum(scan.topk_hits):
        category = FailureCategory.BINNING_MISS
    elif scan.best_rank is not None:
        category = FailureCategory.RANKING_MISS
    else:
        category = FailureCategory.RETRIEVAL_MISS
    return Diagnosis(query=query, category=category,
                     best_rank=scan.best_rank, best_bin=scan.best_bin)


def diagnose_run(qrels, run: Iterable[RunResult] | str | os.PathLike,
                 k: int = DEFAULT_K,
                 target_bin: ConfidenceBin = DEFAULT_TARGET_BIN,
                 ) -> tuple[list[Diagnosis], DiagnosisSummary]:
    """Classify every qrels query and summarize the category partition.

    ``run`` is RunResults or a run file's path, read as
    :func:`metrics.scan_run` reads it. Queries the run never answered are
    scanned as empty lists, so they classify as retrieval_miss. The
    summary also counts hits at bins ≥ target_bin straight from each scan,
    without the category decision table, and flags whether that hit rate
    agrees with the success rate.
    """
    at_target = BINS.index(target_bin) + 1
    diagnoses = []
    histogram = [0] * len(BINS)
    hits = 0

    def visit(query: str, scan: QueryScan) -> None:
        nonlocal histogram, hits
        diagnoses.append(_classify(query, scan, target_bin))
        histogram = [a + b for a, b in zip(histogram, scan.topk_hits)]
        hits += any(scan.topk_hits[:at_target])

    scan_run(qrels, run, k, visit)
    diagnoses.sort(key=attrgetter("query"))
    counts = {c.value: sum(d.category is c for d in diagnoses)
              for c in CATEGORIES}
    total = len(diagnoses)
    fractions = {name: (count / total if total else 0.0)
                 for name, count in counts.items()}
    hit_rate = hits / total if total else 0.0
    success_fraction = fractions[FailureCategory.SUCCESS.value]
    return diagnoses, DiagnosisSummary(
        total=total,
        counts=counts,
        fractions=fractions,
        success_fraction=success_fraction,
        hit_rate=hit_rate,
        consistent=(success_fraction == hit_rate),
        topk_bin_histogram={bin.value: n for bin, n in zip(BINS, histogram)},
    )


DIAGNOSIS_FIELDS = (
    ("query", require, (str,)), ("category", require, (str,)),
    ("best_rank", optional, (int,)), ("best_bin", optional, (str,)))


def diagnosis_records(diagnoses: Iterable[Diagnosis]) -> Iterator[dict]:
    """Each diagnosis as its JSONL record, lazily."""
    return as_records(DIAGNOSIS_FIELDS, (
        (d.query, d.category.value, d.best_rank,
         d.best_bin.value if d.best_bin else None) for d in diagnoses))


def write_diagnoses(diagnoses: Iterable[Diagnosis], path: str | Path) -> int:
    return write_jsonl(path, diagnosis_records(diagnoses))


def format_signed(value: float | None, suffix: str) -> str | None:
    """A delta with its sign, e.g. +5.00pp or -10.00%; None stays None."""
    if value is None:
        return None
    if value == 0:
        value = 0.0
    return f"{value:+.2f}{suffix}"


@dataclass(frozen=True)
class DeltaCell:
    """One metric and mode of a comparison; the field order is the key
    order of its JSON object."""

    metric: str
    mode: str
    baseline: float | None
    candidate: float | None
    absolute_pp: float | None
    relative_pct: float | None
    absolute_label: str | None
    relative_label: str | None
    marker: str | None
    comparable: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DeltaReport:
    k: int
    bins: list[str]
    cells: list[DeltaCell]

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path: str | Path) -> None:
        write_jsonl(path, [self.to_dict()])

    def render_table(self) -> str:
        """One block per aggregation mode, rows in cell order: the headline
        columns first, recall@k@high, precision@k@high, precision@1@high."""
        lines = []
        for mode in (MICRO, MACRO):
            lines += [f"[{mode}]", *render_rows(
                ("metric", "baseline", "candidate", "abs", "rel"), (9,) * 4,
                ((cell.metric, format_value(cell.baseline),
                  format_value(cell.candidate), cell.absolute_label or "-",
                  cell.relative_label or "-")
                 for cell in self.cells if cell.mode == mode)), ""]
        return "\n".join(lines).rstrip("\n")


def headline_metrics(k: int) -> list[str]:
    return [f"recall@{k}@high", f"precision@{k}@high", "precision@1@high"]


def compare_reports(baseline: MetricsReport,
                    candidate: MetricsReport) -> DeltaReport:
    """Column-by-column deltas between two reports over the same k and bins.

    Absolute deltas are percentage points (value difference × 100), relative
    deltas are percent of the baseline. A metric undefined on either side
    is kept but marked incomparable; a relative delta that is not a finite
    number, as over a baseline of exactly 0, is left undefined.
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
            comparable = base is not None and cand is not None
            delta = cand - base if comparable else None
            absolute = delta * 100.0 if comparable else None
            ratio = delta / base * 100.0 if comparable and base else math.nan
            relative = ratio if math.isfinite(ratio) else None
            cells.append(DeltaCell(
                metric, mode, base, cand, absolute, relative,
                absolute_label=format_signed(absolute, "pp"),
                relative_label=format_signed(relative, "%"),
                marker=("+" if delta >= 0 else "-") if comparable else None,
                comparable=comparable))
    return DeltaReport(k=k, bins=list(baseline.bins), cells=cells)
