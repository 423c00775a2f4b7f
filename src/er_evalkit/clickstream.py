"""Click log parsing, CTR aggregation, and quality filtering.

Events arrive as JSONL: {"query", "impressions", "clicked", "ts"}. Queries
are normalized (lowercase, whitespace collapsed) before counting so that
trivially different spellings aggregate together. Per (query, entity) pair,
nimp counts the events whose impressions contain the entity and nclick the
events that clicked it; ctr is the exact quotient.

Aggregation is one streaming pass: each event is counted into a
(nimp, nclick) table as it is parsed, so memory is O(distinct pairs), not
O(events). The table is a monoid: sharding the event stream, counting shards
independently, and merging sums gives exactly the single-pass answer, which
is what makes a parallel split safe. Aggregation starts no workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConfigError, IngestError
from .jsonl import read_lines, write_jsonl

DEFAULT_MIN_IMPRESSIONS = 25
DEFAULT_MIN_CTR = 0.3


def normalize_query(query: str) -> str:
    """Lowercase and collapse runs of whitespace to single spaces."""
    return " ".join(query.split()).lower()


@dataclass(frozen=True)
class ClickEvent:
    """One search event: what was shown and what, if anything, was clicked."""

    query: str
    impressions: tuple[str, ...]
    clicked: str | None = None
    ts: int | None = None

    def __post_init__(self):
        if not self.impressions:
            raise ValueError("impressions must be nonempty")
        if self.clicked is not None and self.clicked not in self.impressions:
            raise ValueError(
                f"clicked {self.clicked!r} not among impressions")


@dataclass(frozen=True)
class CtrRecord:
    query: str
    entity_id: str
    nimp: int
    nclick: int
    ctr: float

    def __post_init__(self):
        if self.nimp < 1:
            raise ValueError(f"nimp must be >= 1, got {self.nimp}")
        if not 0 <= self.nclick <= self.nimp:
            raise ValueError(
                f"nclick {self.nclick} outside [0, nimp={self.nimp}]")
        if self.ctr != self.nclick / self.nimp:
            raise ValueError(
                f"ctr {self.ctr!r} != nclick/nimp = "
                f"{self.nclick}/{self.nimp}")


@dataclass(frozen=True)
class CtrFilter:
    min_impressions: int = DEFAULT_MIN_IMPRESSIONS
    min_ctr: float = DEFAULT_MIN_CTR

    def __post_init__(self):
        if self.min_impressions < 1:
            raise ConfigError(
                f"min_impressions must be >= 1, got {self.min_impressions}")
        if not 0.0 <= self.min_ctr <= 1.0:
            raise ConfigError(f"min_ctr {self.min_ctr} outside [0, 1]")

    def keeps(self, record: CtrRecord) -> bool:
        return self.admits(record.nimp, record.ctr)

    def admits(self, nimp: int, ctr: float) -> bool:
        return nimp >= self.min_impressions and ctr >= self.min_ctr


@dataclass
class ParseStats:
    lines: int = 0
    events: int = 0
    rejected: int = 0


@dataclass(frozen=True)
class FilterSummary:
    kept: int
    dropped: int


def parse_events(path: str | Path, *, strict: bool = False,
                 stats: ParseStats | None = None) -> Iterator[ClickEvent]:
    """Yield normalized events in file order.

    Malformed lines and events whose click is not among the impressions are
    skipped and tallied in ``stats``; under ``strict`` the first such line
    raises instead. Pass a ParseStats to read the tallies after the
    generator is exhausted.
    """
    if stats is None:
        stats = ParseStats()

    def reject(lineno: int, why: str):
        stats.rejected += 1
        if strict:
            raise IngestError(f"{path}:{lineno}: {why}")

    for lineno, line in read_lines(path):
        stats.lines += 1
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            reject(lineno, f"invalid JSON: {exc}")
            continue
        if not isinstance(raw, dict):
            reject(lineno, "event is not an object")
            continue
        query = raw.get("query")
        impressions = raw.get("impressions")
        clicked = raw.get("clicked")
        ts = raw.get("ts")
        if not isinstance(query, str) or not query.strip():
            reject(lineno, "missing or empty query")
            continue
        if (not isinstance(impressions, list) or not impressions
                or not all(isinstance(i, str) for i in impressions)):
            reject(lineno, "impressions must be a nonempty list of ids")
            continue
        if clicked is not None and not isinstance(clicked, str):
            reject(lineno, "clicked must be an id or null")
            continue
        if ts is not None and (not isinstance(ts, int)
                               or isinstance(ts, bool)):
            reject(lineno, "ts must be an integer or null")
            continue
        try:
            event = ClickEvent(query=normalize_query(query),
                               impressions=tuple(impressions),
                               clicked=clicked, ts=ts)
        except ValueError as exc:
            reject(lineno, str(exc))
            continue
        stats.events += 1
        yield event


def compute_ctr(nclick: int, nimp: int) -> float:
    if nimp < 1:
        raise ValueError(f"nimp must be >= 1, got {nimp}")
    if nclick < 0 or nclick > nimp:
        raise ValueError(f"nclick {nclick} outside [0, nimp={nimp}]")
    return nclick / nimp


_PairCounts = dict[tuple[str, str], list[int]]


def _tally(counts: _PairCounts, event: ClickEvent) -> None:
    # An entity impressed several times within one event still counts as
    # one impression: nimp is the number of events containing it.
    for entity_id in set(event.impressions):
        pair = counts.setdefault((event.query, entity_id), [0, 0])
        pair[0] += 1
        if event.clicked == entity_id:
            pair[1] += 1


def _count_pairs(events: Iterable[ClickEvent]) -> _PairCounts:
    """(nimp, nclick) per (query, entity) pair, in one pass over the stream.

    Events are consumed one at a time and never held, so a generator such as
    parse_events keeps memory at O(distinct pairs).
    """
    counts: _PairCounts = {}
    for event in events:
        _tally(counts, event)
    return counts


def _records(counts: _PairCounts,
             ctr_filter: CtrFilter | None = None) -> list[CtrRecord]:
    """Sorted records for the pairs ``ctr_filter`` keeps (all if None)."""
    kept = []
    for (q, e), (nimp, nclick) in counts.items():
        if ctr_filter is None or ctr_filter.admits(nimp, nclick / nimp):
            kept.append((q, e, nimp, nclick))
    kept.sort()
    return [CtrRecord(query=q, entity_id=e, nimp=nimp, nclick=nclick,
                      ctr=compute_ctr(nclick, nimp))
            for q, e, nimp, nclick in kept]


def aggregate_pairs(events: Iterable[ClickEvent]) -> list[CtrRecord]:
    """Count impressions and clicks per (query, entity) pair, sorted."""
    return _records(_count_pairs(events))


def aggregate_filtered(events: Iterable[ClickEvent], ctr_filter: CtrFilter
                       ) -> tuple[list[CtrRecord], FilterSummary]:
    """aggregate_pairs then filter_records, building only the kept records.

    Same records and summary as the two-step form; the pair count is
    ``kept + dropped``.
    """
    counts = _count_pairs(events)
    kept = _records(counts, ctr_filter)
    return kept, FilterSummary(kept=len(kept), dropped=len(counts) - len(kept))


def merge_records(shards: Iterable[Iterable[CtrRecord]]) -> list[CtrRecord]:
    """Sum (nimp, nclick) across shard outputs and recompute ctr."""
    counts: _PairCounts = {}
    for shard in shards:
        for rec in shard:
            pair = counts.setdefault((rec.query, rec.entity_id), [0, 0])
            pair[0] += rec.nimp
            pair[1] += rec.nclick
    return _records(counts)


def aggregate_in_shards(events: Iterable[ClickEvent], n_shards: int,
                        threads: int | None = None) -> list[CtrRecord]:
    """Round-robin the stream into per-shard counts, then merge the shards.

    Exactly equivalent to single-pass aggregate_pairs. Events are counted as
    they arrive, so memory is O(distinct pairs per shard). ``threads`` is
    accepted for compatibility and starts no workers.
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    shards: list[_PairCounts] = [{} for _ in range(n_shards)]
    for i, event in enumerate(events):
        _tally(shards[i % n_shards], event)
    return merge_records(_records(shard) for shard in shards)


def filter_records(records: Iterable[CtrRecord],
                   ctr_filter: CtrFilter) -> tuple[list[CtrRecord], FilterSummary]:
    """Keep records meeting both thresholds; order preserved."""
    kept = []
    dropped = 0
    for rec in records:
        if ctr_filter.keeps(rec):
            kept.append(rec)
        else:
            dropped += 1
    return kept, FilterSummary(kept=len(kept), dropped=dropped)


def write_events(events: Iterable[ClickEvent], path: str | Path) -> int:
    def records():
        for ev in events:
            yield {"query": ev.query, "impressions": list(ev.impressions),
                   "clicked": ev.clicked, "ts": ev.ts}

    return write_jsonl(path, records())


def write_ctr_records(records: Iterable[CtrRecord], path: str | Path) -> int:
    def rows():
        for rec in records:
            yield {"query": rec.query, "entity_id": rec.entity_id,
                   "nimp": rec.nimp, "nclick": rec.nclick, "ctr": rec.ctr}

    return write_jsonl(path, rows())


def load_ctr_records(path: str | Path) -> list[CtrRecord]:
    out = []
    for lineno, line in read_lines(path):
        try:
            rec = json.loads(line)
            out.append(CtrRecord(query=rec["query"], entity_id=rec["entity_id"],
                                 nimp=rec["nimp"], nclick=rec["nclick"],
                                 ctr=rec["ctr"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"{path}:{lineno}: bad CTR record: {exc}") from exc
    return out
