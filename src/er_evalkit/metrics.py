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
import os
from contextlib import closing, suppress
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import IngestError
from .halves import parts
from .jsonl import (as_records, checked, decode, dumps, fields, middle_line,
                    read_lines, require, write_jsonl, write_lines)

log = logging.getLogger(__name__)
# The warning about a ranked list's first rising pair (:func:`_rising`).
RISING = "query %r: score increases down the ranking (%s < %s)"

DEFAULT_K = 5

MICRO = "micro"
MACRO = "macro"

Fraction = tuple[int, int]

# Rows per json_pieces piece (each dumps call sets up a C encoder).
ROWS_PER_PIECE = 512


class ConfidenceBin(enum.Enum):
    """Result confidence bucket: high, medium or low."""

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


BINS = tuple(ConfidenceBin)
# A bin value's level, its byte in RunResult.levels, is its index in BINS.
_LEVEL = {bin.value: level for level, bin in enumerate(BINS)}
_HIGH = _LEVEL[ConfidenceBin.HIGH.value]


@dataclass(frozen=True, slots=True)
class RankedEntity:
    entity_id: str
    score: float
    bin: ConfidenceBin


@dataclass(frozen=True, init=False)
class RunResult:
    """One query's retrieved list as columns, in the system's rank order.

    ``RunResult(query, ranked)`` builds the columns from RankedEntity rows
    and logs a warning naming the first pair of scores that rises down the
    list (:func:`_rising`); ``columns=(ids, scores, levels)``, the raw
    constructor the run reader and simulate use, takes them as they are.
    Either way a repeated entity_id is an error, found by a pass that runs
    in C. The order given is authoritative; scores are never re-sorted.
    """

    query: str
    ids: tuple[str, ...]
    scores: tuple[float, ...]
    levels: bytes

    def __init__(self, query: str, ranked: Iterable[RankedEntity] = (), *,
                 columns: tuple[tuple, tuple, bytes] | None = None):
        rising = None
        if columns is None:
            ranked = tuple(ranked)
            columns = (tuple(item.entity_id for item in ranked),
                       tuple(item.score for item in ranked),
                       bytes(_LEVEL[item.bin.value] for item in ranked))
            rising = _rising(columns[1])
        ids = columns[0]
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            repeated = next(i for i in ids if i in seen or seen.add(i))
            raise ValueError(f"query {query!r}: duplicate entity_id "
                             f"{repeated!r} in ranked list")
        if rising:
            log.warning(RISING, query, *rising)
        for name, value in zip(("query", "ids", "scores", "levels"),
                               (query, *columns)):
            object.__setattr__(self, name, value)

    @property
    def ranked(self) -> tuple[RankedEntity, ...]:
        return tuple(map(RankedEntity, self.ids, self.scores,
                         map(BINS.__getitem__, self.levels)))


def _rising(scores: tuple[float, ...]) -> tuple[float, float] | None:
    """The first pair of ``scores`` that increases down the list, found by
    passes that run in C, or None."""
    if any(map(operator.lt, scores, scores[1:])):
        at = list(map(operator.lt, scores, scores[1:])).index(True)
        return scores[at], scores[at + 1]
    return None


def _check_k(k: int):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


class QueryScan(NamedTuple):
    """What one walk over a ranked list finds for one qrels query.

    ``topk_hits`` and ``topk_counts`` count, per bin in BINS order, the
    relevant results and all results in the top k; ``best_rank`` and
    ``best_level`` locate the first relevant result anywhere in the list.
    A level is its bin's index in BINS; ``first_level`` is the first
    result's.
    """

    n_relevant: int
    topk_hits: tuple[int, ...]
    topk_counts: tuple[int, ...]
    first_level: int | None
    best_rank: int | None
    best_level: int | None


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
        topk_hits=tuple(map(hit_levels.count, range(len(BINS)))),
        topk_counts=tuple(map(levels[:k].count, range(len(BINS)))),
        first_level=levels[0] if levels else None,
        best_rank=ranks[0] + 1 if ranks else None,
        best_level=levels[ranks[0]] if ranks else None,
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
                            int(scan.first_level == _HIGH)))
    return dict(zip(names, values))


def _value(fraction: Fraction | None) -> float | None:
    return None if fraction is None else fraction[0] / fraction[1]


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
        # Left to right: since 3.12, sum() compensates, moving digits.
        values = (num / den for num, den in defined)
        return functools.reduce(operator.add, values, 0) / len(defined)
    if mode == MICRO:
        return sum(num for num, _ in defined) / sum(den for _, den in defined)
    raise ValueError(f"unknown aggregation mode {mode!r}")


def metric_names(k: int) -> list[str]:
    """Canonical report column order; precision@1@high always present."""
    return list(dict.fromkeys((
        f"precision@{k}", f"recall@{k}",
        *(f"{metric}@{k}@{bin.value}" for bin in BINS
          for metric in ("precision", "recall")), "precision@1@high")))


REPORT_FIELDS = (
    ("k", require, (int,)), ("bins", require, (list,)),
    ("counts", require, (dict,)), ("aggregates", require, (dict,)),
    ("per_query", require, (dict,)))


@dataclass
class MetricsReport:
    """One evaluation. Every aggregate and every per-query row is keyed by
    ``metric_names(k)``, in that order, and each aggregate by micro then
    macro, so :meth:`to_dict` passes them through and only sorts the rows."""

    k: int
    bins: tuple[str, ...]
    counts: dict[str, int]
    aggregates: dict[str, dict[str, float | None]]
    per_query: dict[str, dict[str, float | None]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(zip([key for key, _, _ in REPORT_FIELDS], (
            self.k, list(self.bins),
            {key: self.counts[key] for key in sorted(self.counts)},
            self.aggregates,
            {query: self.per_query[query] for query in sorted(self.per_query)},
        )))

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsReport":
        """Rebuild a report from exactly the metric columns of ``k``, which
        every aggregate and per-query row must hold; other keys are dropped.

        ``k`` must be an int >= 1 (never a bool), ``bins`` a list of
        strings, ``counts`` a dict of ints, and every metric value a number
        in [0, 1] or null.
        """
        k, bins, counts, aggregates, per_query = fields(data, REPORT_FIELDS)
        _check_k(k)
        if not all(type(name) is str for name in bins):
            raise TypeError(f"bins must be a list of strings, got {bins!r}")
        if not all(type(n) is int for n in counts.values()):
            raise TypeError(f"counts must be a dict of ints, got {counts!r}")
        names = metric_names(k)

        def value(row: dict, key: str, owner: str) -> float | None:
            number = require(row, key, (int, float, type(None)))
            if number is not None and not 0 <= number <= 1:
                raise ValueError(f"{key} of {owner!r} must be in [0, 1], "
                                 f"got {number!r}")
            return number

        return cls(
            k=k,
            bins=tuple(bins),
            counts=dict(counts),
            aggregates={name: {mode: value(aggregates[name], mode, name)
                               for mode in (MICRO, MACRO)} for name in names},
            per_query={query: {name: value(row, name, query) for name in names}
                       for query, row in per_query.items()},
        )

    def json_pieces(self) -> Iterator[str]:
        """``dumps(self.to_dict())`` in pieces: the head, then the sorted
        rows ``ROWS_PER_PIECE`` at a time, then the closing braces."""
        yield dumps(replace(self, per_query={}).to_dict())[:-2]  # no "}}"
        queries = sorted(self.per_query)
        for start in range(0, len(queries), ROWS_PER_PIECE):
            rows = dumps({query: self.per_query[query] for query
                          in queries[start:start + ROWS_PER_PIECE]})
            yield f",{rows[1:-1]}" if start else rows[1:-1]
        yield "}}"

    def save(self, path: str | Path) -> None:
        write_lines(path, ["".join(self.json_pieces())])

    @classmethod
    def load(cls, path: str | Path) -> "MetricsReport":
        try:
            # No name holds the text, so it is freed before from_dict runs.
            return cls.from_dict(decode(checked(Path(path).read_text(
                encoding="utf-8", errors="surrogateescape"), bom=True)))
        except (OSError, ValueError) as exc:
            raise IngestError(f"cannot load report {path}: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise IngestError(f"{path}: not a metrics report: {exc!r}") from exc

    def render_table(self) -> str:
        """One row per metric, micro/macro columns, then the query counts."""
        counts = ", ".join(f"{key}={self.counts[key]}"
                           for key in sorted(self.counts))
        modes = (MICRO, MACRO)
        return "\n".join([*render_rows(("metric", *modes), (8, 8), (
            (name, *(format_value(self.aggregates[name][mode])
                     for mode in modes)) for name in metric_names(self.k))),
            f"queries: {counts}"])


def format_value(value: float | None) -> str:
    """A table cell: four decimals, or ``-`` for an undefined value."""
    return "-" if value is None else f"{value:.4f}"


def render_rows(header: tuple[str, ...], widths: tuple[int, ...],
                rows: Iterable[tuple]) -> list[str]:
    """The lines of an aligned table, header first. The first column is
    left-aligned to its widest data row, each other column right-aligned to
    its width in ``widths``, and two spaces separate columns."""
    rows = list(rows)
    width = max(len(row[0]) for row in rows)
    return ["  ".join([f"{row[0]:<{width}}",
                       *map("{:>{}}".format, row[1:], widths)])
            for row in [header, *rows]]


def _run_lines(path: str | Path, start: int = 0, end: int | None = None,
               then: Callable[[RunResult], object] = lambda result: result
               ) -> Iterator[tuple]:
    """The run records of bytes ``start`` to ``end`` of ``path``, read and
    checked, each as two messages: (line, query) once its query is read,
    then (its list's rising pair (:func:`_rising`) or None, ``then`` of its
    RunResult). Lines count from 1 at ``start``. The caller checks each
    query against those before it and logs the warning (:func:`_unique`),
    so a repeat is named before anything else wrong with its line."""
    for lineno, line in read_lines(path, start, end):
        try:
            rec = decode(line)
            try:
                query, results = fields(rec, RUN_FIELDS)
                yield lineno, query
                result = _run_result(query, results)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad run record: {exc}") from exc
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: {exc}") from exc
        yield _rising(result.scores), then(result)


def _listed(run: Iterable[RunResult],
            then: Callable[[RunResult], object]) -> Iterator[tuple]:
    """:func:`_run_lines`' messages for RunResults, each line and rising
    pair None: a RunResult built from rows warned when it was built."""
    for result in run:
        yield None, result.query
        yield None, then(result)


def _unique(run: object, messages: Iterator[tuple], seen: set[str]
            ) -> Iterator[tuple]:
    """(query, its value) for each pair of :func:`_run_lines` messages of
    ``run``; a query in ``seen`` is an error naming it, and its line in
    ``run`` unless that is None. Each query is added to ``seen``, and a
    rising pair is logged as a warning just before its query is yielded,
    so warnings come in file order from either half of a run file."""
    for line, query in messages:
        if query in seen:
            raise (ValueError(f"duplicate query in run: {query!r}")
                   if line is None else IngestError(
                       f"{run}:{line}: bad run record: duplicate query "
                       f"{query!r}"))
        seen.add(query)
        rising, value = next(messages)
        if rising:
            log.warning(RISING, query, *rising)
        yield query, value


def scan_run(qrels, run: Iterable[RunResult] | str | os.PathLike, k: int,
             visit: Callable[[str, QueryScan], None]) -> tuple[int, int]:
    """Call ``visit(query, scan)`` once per qrels query, reading ``run`` once.

    ``run`` is RunResults, or the path of a run file, read as
    :func:`iter_run` reads it, with the same warnings and errors, in two
    parts at once where it can (:func:`_run_lines` through
    :func:`halves.parts`). An answered query is scanned as its list
    arrives, and no list is kept; the unanswered ones are scanned last, as
    empty lists. A query appearing twice in the run is an error naming it.
    Returns (evaluated, ignored): the qrels queries answered, and the run
    queries absent from qrels.
    """
    _check_k(k)
    entries: Mapping[str, Iterable[str]] = getattr(qrels, "entries", qrels)

    def scan(result: RunResult) -> tuple | None:
        return (tuple(scan_query(set(entries[result.query]), result, k))
                if result.query in entries else None)

    seen: set[str] = set()
    evaluated = 0
    with (parts(functools.partial(_run_lines, run, then=scan), run,
                middle_line(run)) if isinstance(run, (str, os.PathLike))
          else closing(_listed(run, scan))) as messages:
        for query, scanned in _unique(run, messages, seen):
            if scanned is not None:
                evaluated += 1
                visit(query, QueryScan(*scanned))
    for query in entries:
        if query not in seen:
            visit(query, scan_query(set(entries[query]), None, k))
    return evaluated, len(seen) - evaluated


def evaluate_run(qrels, run: Iterable[RunResult] | str | os.PathLike,
                 k: int = DEFAULT_K) -> MetricsReport:
    """Score a run against qrels and report per-query plus aggregates.

    ``qrels`` is a RelevanceSet or a plain mapping query → set of ids;
    ``run`` is RunResults or a run file's path (:func:`scan_run`). Run
    queries absent from qrels are ignored (tallied); qrels queries absent
    from the run are scanned as empty lists, so they contribute recall 0.
    A query appearing twice in the run is an error naming it. Each
    aggregate is :func:`aggregate` over the per-query fractions in sorted
    query order; only then do the rows' fractions become floats.
    """
    names = metric_names(k)
    per_query: dict[str, dict] = {}
    # One object per distinct fraction, then per distinct float, each put in
    # the row in place: the rows repeat a few values.
    fraction, value = functools.cache(lambda f: f), functools.cache(_value)

    def visit(query: str, scan: QueryScan) -> None:
        row = per_query[query] = _fractions(scan, names)
        row.update(zip(row, map(fraction, row.values())))

    evaluated, ignored = scan_run(qrels, run, k, visit)
    rows = [per_query[query] for query in sorted(per_query)]
    aggregates = {name: {mode: aggregate([row[name] for row in rows], mode)
                         for mode in (MICRO, MACRO)} for name in names}
    for row in rows:
        row.update(zip(row, map(value, row.values())))
    return MetricsReport(
        k=k,
        bins=tuple(bin.value for bin in BINS),
        counts={"evaluated": evaluated,
                "skipped": len(per_query) - evaluated,
                "ignored_run_queries": ignored},
        aggregates=aggregates,
        per_query=per_query,
    )


RUN_FIELDS = (("query", require, (str,)), ("results", require, (list,)))
# A bin is checked by looking up its level, which names a bad one.
RUN_ITEM_FIELDS = (
    ("entity_id", require, (str,)), ("score", require, (int, float)),
    ("bin", lambda item, key, _: _LEVEL[item[key]], ()))
_FIELDS = operator.itemgetter(*(key for key, _, _ in RUN_ITEM_FIELDS))


def _run_result(query: str, results: list) -> RunResult:
    """The RunResult of a run record's checked query and results list."""
    with suppress(KeyError, TypeError, OverflowError):
        ids, scores, bins = list(zip(*map(_FIELDS, results))) or [()] * 3
        levels = bytes(map(_LEVEL.__getitem__, bins))
        if (set(map(type, ids)) <= {str}
                and set(map(type, scores)) <= {int, float}
                and math.isfinite(sum(scores))):
            return RunResult(query, columns=(
                ids, tuple(map(float, scores)), levels))
    ids, scores, levels = zip(*(fields(item, RUN_ITEM_FIELDS)
                                for item in results))
    return RunResult(query, columns=(
        ids, tuple(map(float, scores)), bytes(levels)))


def iter_run(path: str | Path) -> Iterator[RunResult]:
    """Read run JSONL: {"query", "results": [{entity_id, score, bin},…]}.

    Ids are strings and a score is a finite int or float; the file order of
    results is the rank order. Each list's types, scores and bins are
    checked a column at a time, and one that fails a check or overflows a
    float is walked again item by item to name its first bad item.
    RunResult checks for repeated ids, and a list whose scores rise logs a
    warning just before it is yielded. Each RunResult is yielded as its
    line is read, so a caller that drops it holds one list
    at a time.
    """
    return (result for _, result in _unique(path, _run_lines(path), set()))


def load_run(path: str | Path) -> list[RunResult]:
    """Every RunResult of a run file, as :func:`iter_run` reads them."""
    return list(iter_run(path))


def save_run(run: Iterable[RunResult], path: str | Path) -> int:
    bin_values = [bin.value for bin in BINS]
    return write_jsonl(path, as_records(RUN_FIELDS, ((result.query, [
        *as_records(RUN_ITEM_FIELDS, zip(result.ids, result.scores, map(
            bin_values.__getitem__, result.levels)))]) for result in run)))
