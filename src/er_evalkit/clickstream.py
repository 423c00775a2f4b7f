"""Click log parsing, CTR aggregation, and quality filtering.

Events arrive as JSONL: {"query", "impressions", "clicked", "ts"}. Queries
are normalized (lowercase, whitespace collapsed) before counting so that
trivially different spellings aggregate together. Per (query, entity) pair,
nimp counts the events whose impressions contain the entity and nclick the
events that clicked it; ctr is the exact quotient.

Aggregation streams: the log has one reader (:func:`_events`), which
decodes and checks each line as it is read, and one counter
(:func:`_tally`), which counts the checked fields into two tables keyed by
query, nimp and nclick, each query's entry a ``collections.Counter`` of
entity ids, so memory is O(distinct pairs), not O(events). Each query and
id is counted under its interned string (``sys.intern``), so both tables
share one string object per distinct text and a pair costs a table slot,
not a copy of its id. The CLI counts each line's checked fields without
building a ClickEvent (:func:`aggregate_log`); :func:`parse_events` builds
ClickEvents over the same reader. The tables are a monoid query by query:
counting parts of the event stream apart and summing each query's counts
(:func:`_merge`) gives exactly the single-pass answer. So a lenient
aggregate-ctr counts its log through :func:`halves.parts`, the call
evaluate and diagnose also read their run file through: one process
counts the first half while a forked child counts the second, whose
tables are then merged in (:func:`_count_all`). Gate C8 checks the same
merge over shards (:func:`aggregate_in_shards`).
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConfigError, IngestError
from .halves import parts
from .jsonl import (as_records, decode, dumps, fields, iter_records,
                    middle_line, read_lines, require, write_jsonl, write_lines)

DEFAULT_MIN_IMPRESSIONS = 25
DEFAULT_MIN_CTR = 0.3


def normalize_query(query: str) -> str:
    """Lowercase and collapse runs of whitespace to single spaces."""
    return " ".join(query.split()).lower()


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CtrRecord:
    query: str
    entity_id: str
    nimp: int
    nclick: int
    ctr: float

    def __post_init__(self):
        if self.ctr != compute_ctr(self.nclick, self.nimp):
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


def _event_fields(raw) -> tuple[str, list, str | None, int | None]:
    """(normalized query, impressions, clicked, ts) of one decoded line, or
    ValueError(reason).

    The checks run in a fixed order and the first that fails names the
    reason; the last is ClickEvent's own, so a tuple returned here always
    makes a valid ClickEvent.
    """
    if not isinstance(raw, dict):
        raise ValueError("event is not an object")
    query = raw.get("query")
    impressions = raw.get("impressions")
    clicked = raw.get("clicked")
    ts = raw.get("ts")
    if not isinstance(query, str) or not query.strip():
        raise ValueError("missing or empty query")
    if (not isinstance(impressions, list) or not impressions
            or not all(isinstance(i, str) for i in impressions)
            or "" in impressions):
        raise ValueError("impressions must be a nonempty list of ids")
    if clicked is not None and (not isinstance(clicked, str) or not clicked):
        raise ValueError("clicked must be an id or null")
    if ts is not None and (not isinstance(ts, int) or isinstance(ts, bool)):
        raise ValueError("ts must be an integer or null")
    if clicked is not None and clicked not in impressions:
        raise ValueError(f"clicked {clicked!r} not among impressions")
    return normalize_query(query), impressions, clicked, ts


def _events(path: str | Path, start: int, end: int | None, strict: bool,
            stats: ParseStats) -> Iterator[tuple[str, list, str | None,
                                                 int | None]]:
    """:func:`_event_fields` of each good line in bytes ``start`` to ``end``
    of ``path`` (:func:`jsonl.read_lines`), in file order.

    A bad line is skipped and tallied; under ``strict`` it raises instead,
    naming the file, line and reason. The tallies reach ``stats`` however
    the reading ends: at the last line, at an error or when it is closed.
    """
    lines = events = 0
    try:
        for lineno, line in read_lines(path, start, end):
            lines += 1
            try:
                fields = _event_fields(decode(line))
            except ValueError as exc:
                if strict:
                    raise IngestError(f"{path}:{lineno}: {exc}") from exc
                continue
            events += 1
            yield fields
    finally:
        stats.lines += lines
        stats.events += events
        stats.rejected += lines - events


def parse_events(path: str | Path, *, strict: bool = False,
                 stats: ParseStats | None = None) -> Iterator[ClickEvent]:
    """Yield normalized events in file order.

    Malformed lines and events whose click is not among the impressions are
    skipped and tallied in ``stats``; under ``strict`` the first such line
    raises instead, naming the file, line and reason. Pass a ParseStats to
    read the tallies after the generator is exhausted.
    """
    return (ClickEvent(query, tuple(impressions), clicked, ts)
            for query, impressions, clicked, ts in _events(
                path, 0, None, strict,
                ParseStats() if stats is None else stats))


def compute_ctr(nclick: int, nimp: int) -> float:
    if nimp < 1:
        raise ValueError(f"nimp must be >= 1, got {nimp}")
    if nclick < 0 or nclick > nimp:
        raise ValueError(f"nclick {nclick} outside [0, nimp={nimp}]")
    return nclick / nimp


# Count tables: nimp[query][entity_id] and nclick[query][entity_id].
_Tables = tuple[dict[str, Counter], dict[str, Counter]]


def _tally(events: Iterable[tuple[str, Iterable[str], str | None, object]]
           ) -> _Tables:
    """(nimp, nclick) per query of (query, impressions, clicked, ts)
    events, counted as they arrive, so memory is O(distinct pairs), not
    O(events).

    Each query and id is counted under its interned string, so an id
    shown under many queries is held once, not once per query, and
    ``marshal``, which keeps a string interned, brings a forked child's
    ids back as the parent's own string objects.
    """
    nimp: defaultdict[str, Counter] = defaultdict(Counter)
    nclick: defaultdict[str, Counter] = defaultdict(Counter)
    intern = sys.intern
    for query, impressions, clicked, ts in events:
        query = intern(query)
        # An entity impressed several times within one event still counts
        # as one impression: nimp is the number of events containing it.
        nimp[query].update(map(intern, set(impressions)))
        if clicked is not None:
            nclick[query][intern(clicked)] += 1
    return nimp, nclick


def _merge(tables: _Tables,
           rows: Iterable[tuple[str, dict, dict | None]]) -> None:
    """Add each (query, nimp counts, nclick counts) row into ``tables``,
    query by query. Merging the rows of any split of an event stream's
    tables gives the tables of the whole stream: counts sum pair by
    pair."""
    nimp, nclick = tables
    for query, shown, hits in rows:
        nimp[query].update(shown)
        if hits:
            nclick[query].update(hits)


def _rows(tables: _Tables) -> Iterator[tuple[str, dict, dict | None]]:
    """The (query, nimp counts, nclick counts) rows of ``tables``."""
    nimp, nclick = tables
    return ((query, nimp[query], nclick.get(query)) for query in nimp)


def _count_all(path: str | Path, cut: int | None, strict: bool,
               stats: ParseStats) -> _Tables:
    """:func:`_tally` of :func:`_events` of all of ``path``, in parts at
    ``cut`` where it can (:func:`halves.parts`).

    The part from byte 0 is counted here into the tables returned. A later
    part, counted in a forked child, sends its ParseStats tallies, then its
    tables as (query, nimp counts, nclick counts) rows of plain dicts,
    which marshal takes, and they are merged into those tables. An error
    naming a line of either part names it in the whole file.
    """
    tables: _Tables

    def part(start: int, end: int | None) -> Iterator[tuple]:
        nonlocal tables
        if not start:
            tables = _tally(_events(path, 0, end, strict, stats))
            return
        tallies = ParseStats()
        counted = _tally(_events(path, start, end, strict, tallies))
        yield tallies.lines, tallies.events, tallies.rejected
        for query, shown, hits in _rows(counted):
            yield query, dict(shown), hits and dict(hits)

    with parts(part, path, cut) as messages:
        lines, events, rejected = next(messages, (0, 0, 0))
        stats.lines += lines
        stats.events += events
        stats.rejected += rejected
        _merge(tables, messages)
    return tables


def _records(nimp: dict[str, Counter], nclick: dict[str, Counter],
             ctr_filter: CtrFilter | None = None) -> list[CtrRecord]:
    """Records for the pairs ``ctr_filter`` keeps (all if None), sorted by
    query, then entity id."""
    records = []
    no_clicks: Counter = Counter()
    for query in sorted(nimp):
        shown = nimp[query]
        hits = nclick.get(query, no_clicks)
        for entity_id in sorted(shown):
            n = shown[entity_id]
            clicks = hits.get(entity_id, 0)
            if ctr_filter is None or ctr_filter.admits(n, clicks / n):
                records.append(CtrRecord(query=query, entity_id=entity_id,
                                         nimp=n, nclick=clicks,
                                         ctr=clicks / n))
    return records


def aggregate_log(path: str | Path, ctr_filter: CtrFilter, *,
                  strict: bool = False, stats: ParseStats | None = None
                  ) -> tuple[list[CtrRecord], FilterSummary]:
    """``filter_records(aggregate_in_shards(parse_events(path, ...), 1),
    ctr_filter)``, counting each line's checked fields without building a
    ClickEvent, and building only the kept records.

    The same lines are rejected for the same reasons, so the records,
    summary and ``stats`` tallies are those of the three-step form. A
    regular file is cut at its middle line and its two parts counted at
    once where it can (:func:`_count_all`); under ``strict`` the first
    part's error is raised before the second part's is read, so the error
    names the first bad line in file order either way.
    """
    if stats is None:
        stats = ParseStats()
    nimp, nclick = _count_all(path, middle_line(path), strict, stats)
    kept = _records(nimp, nclick, ctr_filter)
    pairs = sum(map(len, nimp.values()))
    return kept, FilterSummary(kept=len(kept), dropped=pairs - len(kept))


def aggregate_in_shards(events: Iterable[ClickEvent], n_shards: int,
                        threads: int | None = None) -> list[CtrRecord]:
    """Count round-robin shards of the stream apart, then sum the counts.

    Every ``n_shards`` gives the records of one shard, a single pass,
    because :func:`_merge`, which also joins :func:`aggregate_log`'s two
    halves, sums the count tables query by query. The events are held in a
    list so each shard can be read from it. ``threads`` is ignored and
    starts no workers; it exists only because the benchmark's traced pass
    (``perfbench/traced.py``) passes ``threads=1``.
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    events = list(events)
    totals = (defaultdict(Counter), defaultdict(Counter))  # nimp, nclick
    fields = attrgetter("query", "impressions", "clicked", "ts")
    for shard in range(n_shards):
        _merge(totals, _rows(_tally(map(fields, islice(
            events, shard, None, n_shards)))))
    return _records(*totals)


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


# In CtrRecord's field order; see jsonl.fields.
CTR_FIELDS = (
    ("query", require, (str,)), ("entity_id", require, (str,)),
    ("nimp", require, (int,)), ("nclick", require, (int,)),
    ("ctr", require, (int, float)))


def write_ctr_records(records: Iterable[CtrRecord], path: str | Path) -> int:
    return write_jsonl(path, as_records(CTR_FIELDS, map(attrgetter(
        "query", "entity_id", "nimp", "nclick", "ctr"), records)))


def load_ctr_records(path: str | Path) -> list[CtrRecord]:
    """Load CTR JSONL; counts are ints (never bools) and ctr a number.

    Each (query, entity_id) pair appears once: a repeated pair is an error.
    """
    seen: set[tuple[str, str]] = set()

    def parse(rec: dict) -> CtrRecord:
        record = CtrRecord(*fields(rec, CTR_FIELDS))
        pair = (record.query, record.entity_id)
        if pair in seen:
            raise ValueError(f"duplicate pair {pair!r}")
        seen.add(pair)
        return record

    return list(iter_records(path, parse, "CTR record"))
