"""Relevance test-set construction.

Joins filtered CTR pairs with importance-scored titles: a (query, entity)
pair becomes a relevance judgment when the entity is scored and its
importance clears the threshold. Each judgment carries provenance (ctr,
nimp, importance) so the thresholds it passed stay auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .clickstream import CtrRecord
from .errors import ConfigError
from .importance import ScoredTitle
from .jsonl import (as_records, fields, iter_records, landing, require,
                    write_jsonl)

DEFAULT_MIN_IMPORTANCE = 0.3


@dataclass(frozen=True, slots=True)
class ProvenanceRecord:
    ctr: float
    nimp: int
    importance: float


@dataclass
class RelevanceSet:
    """Query → relevant entity ids, with per-pair provenance on the side."""

    entries: dict[str, set[str]] = field(default_factory=dict)
    provenance: dict[tuple[str, str], ProvenanceRecord] = field(default_factory=dict)


@dataclass(frozen=True)
class MergeSummary:
    included: int
    dropped_unscored: int
    dropped_low_importance: int


def merge_relevance(ctr_records: Iterable[CtrRecord],
                    scored: Iterable[ScoredTitle],
                    min_importance: float = DEFAULT_MIN_IMPORTANCE,
                    ) -> tuple[RelevanceSet, MergeSummary]:
    """Join CTR pairs with scored titles into a RelevanceSet.

    ``scored`` is read once, keeping the importances of the titles the CTR
    records name; a named title scored twice is a ValueError. Unscored
    pairs are dropped (unjoinable), as are pairs below ``min_importance``,
    which is checked after the stream; both are tallied, never raised.
    Output is independent of input order.
    """
    ctr_records = list(ctr_records)
    importance_by_id = dict.fromkeys(rec.entity_id for rec in ctr_records)
    for title in scored:
        entity_id = title.entity_id
        if entity_id in importance_by_id:
            if importance_by_id[entity_id] is not None:
                raise ValueError(f"duplicate scored entity_id {entity_id!r}")
            importance_by_id[entity_id] = title.importance
    if not 0.0 <= min_importance <= 1.0:
        raise ConfigError(f"min_importance {min_importance} outside [0, 1]")
    relset = RelevanceSet()
    included = dropped_unscored = dropped_low = 0
    for rec in ctr_records:
        importance = importance_by_id[rec.entity_id]
        if importance is None:
            dropped_unscored += 1
            continue
        if importance < min_importance:
            dropped_low += 1
            continue
        relset.entries.setdefault(rec.query, set()).add(rec.entity_id)
        relset.provenance[(rec.query, rec.entity_id)] = ProvenanceRecord(
            ctr=rec.ctr, nimp=rec.nimp, importance=importance)
        included += 1
    return relset, MergeSummary(included=included,
                                dropped_unscored=dropped_unscored,
                                dropped_low_importance=dropped_low)


def default_provenance_path(path: str | Path) -> Path:
    path = Path(path)
    return path.parent / (path.stem + ".provenance.jsonl")


QRELS_FIELDS = (("query", require, (str,)), ("relevant", require, (list,)))
PROVENANCE_FIELDS = (
    ("query", require, (str,)), ("entity_id", require, (str,)),
    ("ctr", require, (int, float)), ("nimp", require, (int,)),
    ("importance", require, (int, float)))


def write_qrels(entries: Mapping[str, Iterable[str]], path: str | Path) -> int:
    """Write {"query", "relevant": [ids, sorted]} lines in query order."""
    return write_jsonl(path, as_records(QRELS_FIELDS, (
        (query, sorted(entries[query])) for query in sorted(entries))))


def emit_qrels(relset: RelevanceSet, path: str | Path,
               provenance_path: str | Path | None = None) -> Path:
    """Write qrels JSONL plus the provenance sidecar; returns the sidecar path.

    The qrels file is :func:`write_qrels` of the entries. The sidecar holds
    one line per (query, entity) with the justifying ctr, nimp and
    importance. A sidecar path that resolves to the qrels path is a
    ConfigError, raised before either file is written. The two land
    together, in one :func:`jsonl.landing`, or neither does."""
    if provenance_path is None:
        provenance_path = default_provenance_path(path)
    sidecar = Path(provenance_path)
    if sidecar.resolve() == Path(path).resolve():
        raise ConfigError(f"provenance path {sidecar} is the qrels "
                          f"output {path}")
    with landing():
        write_jsonl(provenance_path, as_records(PROVENANCE_FIELDS, (
            (*pair, prov.ctr, prov.nimp, prov.importance)
            for pair, prov in sorted(relset.provenance.items()))))
        write_qrels(relset.entries, path)
    return sidecar


def load_qrels(path: str | Path) -> RelevanceSet:
    """Load qrels written by :func:`write_qrels` (provenance not restored)."""
    relset = RelevanceSet()

    def parse(rec: dict) -> tuple[str, set[str]]:
        query, relevant = fields(rec, QRELS_FIELDS)
        if query in relset.entries:
            raise ValueError(f"duplicate query {query!r}")
        if not relevant:
            raise ValueError("empty relevant set")
        if not all(type(entity_id) is str for entity_id in relevant):
            raise TypeError("relevant ids must be strings")
        ids = set(relevant)
        if len(ids) != len(relevant):
            raise ValueError("duplicate entity in relevant set")
        return query, ids

    for query, ids in iter_records(path, parse, "qrels record"):
        relset.entries[query] = ids
    return relset
