"""Click log parsing, CTR aggregation, and quality filtering.

Events arrive as JSONL: {"query", "impressions", "clicked", "ts"}. Queries
are normalized (lowercase, whitespace collapsed) before counting so that
trivially different spellings aggregate together. Per (query, entity) pair,
nimp counts the events whose impressions contain the entity and nclick the
events that clicked it; ctr is the exact quotient.

Aggregation is one streaming pass: each event is counted into two
``collections.Counter`` tables keyed by (query, entity_id), nimp and nclick,
as it is parsed, so memory is O(distinct pairs), not O(events). The tables
are a monoid: sharding the event stream, counting shards independently, and
summing the Counters gives exactly the single-pass answer
(:func:`aggregate_in_shards`). Aggregation runs in one thread.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConfigError, IngestError
from .jsonl import (decode, dumps, iter_records, read_lines, require,
                    write_jsonl, write_lines)

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


def _event(raw) -> ClickEvent:
    """The normalized event one decoded line holds, or ValueError(reason)."""
    if not isinstance(raw, dict):
        raise ValueError("event is not an object")
    query = raw.get("query")
    impressions = raw.get("impressions")
    clicked = raw.get("clicked")
    ts = raw.get("ts")
    if not isinstance(query, str) or not query.strip():
        raise ValueError("missing or empty query")
    if (not isinstance(impressions, list) or not impressions
            or not all(isinstance(i, str) for i in impressions)):
        raise ValueError("impressions must be a nonempty list of ids")
    if clicked is not None and not isinstance(clicked, str):
        raise ValueError("clicked must be an id or null")
    if ts is not None and (not isinstance(ts, int) or isinstance(ts, bool)):
        raise ValueError("ts must be an integer or null")
    return ClickEvent(query=normalize_query(query),
                      impressions=tuple(impressions), clicked=clicked, ts=ts)


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
    for lineno, line in read_lines(path):
        stats.lines += 1
        try:
            event = _event(decode(line))
        except ValueError as exc:
            stats.rejected += 1
            if strict:
                raise IngestError(f"{path}:{lineno}: {exc}") from exc
            continue
        stats.events += 1
        yield event


def compute_ctr(nclick: int, nimp: int) -> float:
    if nimp < 1:
        raise ValueError(f"nimp must be >= 1, got {nimp}")
    if nclick < 0 or nclick > nimp:
        raise ValueError(f"nclick {nclick} outside [0, nimp={nimp}]")
    return nclick / nimp


def _tally(events: Iterable[ClickEvent]) -> tuple[Counter, Counter]:
    """(nimp, nclick) Counters keyed by (query, entity_id), in one pass.

    Events are consumed one at a time and never held, so a generator such as
    parse_events keeps memory at O(distinct pairs).
    """
    nimp: Counter = Counter()
    nclick: Counter = Counter()
    for event in events:
        # An entity impressed several times within one event still counts
        # as one impression: nimp is the number of events containing it.
        nimp.update(zip(repeat(event.query), set(event.impressions)))
        if event.clicked is not None:
            nclick[event.query, event.clicked] += 1
    return nimp, nclick


def _records(nimp: Counter, nclick: Counter,
             ctr_filter: CtrFilter | None = None) -> list[CtrRecord]:
    """Sorted records for the pairs ``ctr_filter`` keeps (all if None)."""
    kept = sorted(pair for pair, n in nimp.items() if ctr_filter is None
                  or ctr_filter.admits(n, nclick[pair] / n))
    return [CtrRecord(query=q, entity_id=e, nimp=nimp[q, e],
                      nclick=nclick[q, e],
                      ctr=compute_ctr(nclick[q, e], nimp[q, e]))
            for q, e in kept]


def aggregate_pairs(events: Iterable[ClickEvent]) -> list[CtrRecord]:
    """Count impressions and clicks per (query, entity) pair, sorted."""
    return _records(*_tally(events))


def aggregate_filtered(events: Iterable[ClickEvent], ctr_filter: CtrFilter
                       ) -> tuple[list[CtrRecord], FilterSummary]:
    """aggregate_pairs then filter_records, building only the kept records.

    Same records and summary as the two-step form; the pair count is
    ``kept + dropped``.
    """
    nimp, nclick = _tally(events)
    kept = _records(nimp, nclick, ctr_filter)
    return kept, FilterSummary(kept=len(kept), dropped=len(nimp) - len(kept))


def aggregate_in_shards(events: Iterable[ClickEvent], n_shards: int,
                        threads: int | None = None) -> list[CtrRecord]:
    """Count round-robin shards of the stream apart, then sum the counts.

    Exactly equivalent to single-pass aggregate_pairs, because the count
    tables sum as Counters (``Counter.update``). The events are held in a
    list so each shard can be read from it. ``threads`` is ignored and
    starts no workers; it exists only because the benchmark's traced pass
    (``perfbench/traced.py``) passes ``threads=1``.
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    events = list(events)
    nimp: Counter = Counter()
    nclick: Counter = Counter()
    for shard in range(n_shards):
        shard_nimp, shard_nclick = _tally(islice(events, shard, None, n_shards))
        nimp.update(shard_nimp)
        nclick.update(shard_nclick)
    return _records(nimp, nclick)


def filter_records(records: Iterable[CtrRecord],
                   ctr_filter: CtrFilter) -> tuple[list[CtrRecord], FilterSummary]:
    """Keep records meeting both thresholds; order preserved."""
    kept = []
    dropped = 0
    for rec in records:
        if ctr_filter.admits(rec.nimp, rec.ctr):
            kept.append(rec)
        else:
            dropped += 1
    return kept, FilterSummary(kept=len(kept), dropped=dropped)


def write_events(events: Iterable[ClickEvent], path: str | Path) -> int:
    """Write events as JSONL; a run of equal events is serialized once."""
    def lines():
        last = line = None
        for ev in events:
            if ev is not last and ev != last:
                last = ev
                line = dumps({"query": ev.query,
                              "impressions": list(ev.impressions),
                              "clicked": ev.clicked, "ts": ev.ts})
            yield line

    return write_lines(path, lines())


def write_ctr_records(records: Iterable[CtrRecord], path: str | Path) -> int:
    def rows():
        for rec in records:
            yield {"query": rec.query, "entity_id": rec.entity_id,
                   "nimp": rec.nimp, "nclick": rec.nclick, "ctr": rec.ctr}

    return write_jsonl(path, rows())


def load_ctr_records(path: str | Path) -> list[CtrRecord]:
    """Load CTR JSONL; counts are ints (never bools) and ctr a number."""
    def parse(rec: dict) -> CtrRecord:
        return CtrRecord(query=require(rec, "query", str),
                         entity_id=require(rec, "entity_id", str),
                         nimp=require(rec, "nimp", int),
                         nclick=require(rec, "nclick", int),
                         ctr=require(rec, "ctr", int, float))

    return list(iter_records(path, parse, "CTR record"))
