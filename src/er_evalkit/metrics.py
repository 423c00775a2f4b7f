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
from contextlib import closing, nullcontext, suppress
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import IngestError
from .halves import batches, forked, two_cpus
from .jsonl import (INPUT_ENCODING, as_records, count_lines, decode, dumps,
                    fields, iter_records, middle_line, parse_record,
                    read_failure, read_lines, require, write_jsonl,
                    write_lines)

log = logging.getLogger(__name__)

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


@dataclass(frozen=True, slots=True)
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
                       bytes(_LEVEL[item.bin.value] for item in ranked))
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
                         map(BINS.__getitem__, self.levels)))


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
        topk_hits=tuple(map(hit_levels.count, range(len(BINS)))),
        topk_counts=tuple(map(levels[:k].count, range(len(BINS)))),
        first_bin=BINS[levels[0]] if levels else None,
        best_rank=ranks[0] + 1 if ranks else None,
        best_bin=BINS[levels[ranks[0]]] if ranks else None,
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
            return cls.from_dict(
                decode(Path(path).read_text(encoding=INPUT_ENCODING)))
        except (OSError, ValueError) as exc:
            raise IngestError(f"cannot load report {path}: "
                              f"{read_failure(path, exc)}") from exc
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


def _row(result: RunResult, entries: Mapping[str, Iterable[str]],
         k: int) -> tuple[str, QueryScan | None]:
    """(query, scan) of one result; the scan is None for a query
    ``entries`` lacks."""
    query = result.query
    return query, (scan_query(set(entries[query]), result, k)
                   if query in entries else None)


def _rows(run: Iterable[RunResult], entries: Mapping[str, Iterable[str]],
          k: int) -> Iterator[tuple[str, QueryScan | None]]:
    """:func:`_row` of each result of ``run``, as it arrives."""
    return (_row(result, entries, k) for result in run)


def _sent(scan: QueryScan) -> tuple:
    """``scan`` as marshal takes it, which is no enum: each bin by its
    level."""
    return tuple(BINS.index(field) if isinstance(field, ConfidenceBin)
                 else field for field in scan)


def _received(n_relevant: int, topk_hits: tuple[int, ...],
              topk_counts: tuple[int, ...], first_level: int | None,
              best_rank: int | None, best_level: int | None) -> QueryScan:
    """The QueryScan :func:`_sent` made these fields from."""
    return QueryScan(n_relevant, topk_hits, topk_counts,
                     None if first_level is None else BINS[first_level],
                     best_rank,
                     None if best_level is None else BINS[best_level])


def _second_half(path: str | Path, split: int,
                 entries: Mapping[str, Iterable[str]],
                 k: int) -> Iterator[object]:
    """In a forked child: the messages of the run lines from byte ``split``
    on of ``path``, checked as :func:`iter_run` checks them.

    They are batches of (line, query, scan, warnings) rows, then None or
    the error that stopped the read: (line, reason, query), where query is
    the bad line's if it has one (a repeat of a first-half query is named
    before anything else wrong with its line), or (None, text, None) for
    an error with no line. Lines count from 1 at ``split``; a scan is in
    :func:`_sent`'s form, or None for a query ``entries`` lacks; warnings
    are the (msg, args) of what RunResult logged for that line, held back
    here.
    """
    held: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = held.append
    log.handlers, log.propagate = [handler], False
    parse = _run_parser()
    rows, error = [], None
    try:
        for lineno, line in read_lines(path, split):
            try:
                result = parse_record(line, parse, "run record")
            except ValueError as exc:
                query = None
                with suppress(KeyError, TypeError, ValueError):
                    query = fields(decode(line), RUN_FIELDS)[0]
                error = lineno, str(exc), query
                break
            query, scan = _row(result, entries, k)
            rows.append((lineno, query, scan and _sent(scan),
                         [(record.msg, record.args) for record in held]))
            held.clear()
    except IngestError as exc:
        error = None, str(exc), None
    yield from batches(rows)
    yield error


def _file_rows(path: str | Path, entries: Mapping[str, Iterable[str]],
               k: int, seen: set[str]
               ) -> Iterator[tuple[str, QueryScan | None]]:
    """:func:`_rows` of ``iter_run(path)``, reading the file's two halves
    at once where it can.

    Given two CPUs and a regular file with a line start in its second
    half (:func:`jsonl.middle_line`), a forked child reads and scans the
    second half (:func:`_second_half`) while this process does the first.
    The child's rows follow, each checked against ``seen``, the queries
    of the rows taken so far: a repeat is the error iter_run raises at its
    line. Each row's warnings are logged here as it is yielded, and the
    child's error, if any, is raised after its rows, so the warnings and
    the error come in file order. Otherwise the file is read in one pass.
    """
    split = middle_line(path) if two_cpus() else None

    def where(line: int) -> str:
        """``PATH:LINE`` of a second-half line; the first half's lines are
        counted only for such an error."""
        return f"{path}:{count_lines(path, split) + line}"

    with nullcontext() if split is None else forked(
            functools.partial(_second_half, path, split, entries, k),
            f"the process scanning the second half of {path} ended without "
            "its scans") as messages:
        if messages is None:
            yield from _rows(iter_run(path), entries, k)
            return
        yield from _rows(iter_run(path, 0, split), entries, k)
        for message in messages:
            if isinstance(message, list):
                for line, query, scan, warnings in message:
                    if query in seen:
                        raise IngestError(f"{where(line)}: bad run record: "
                                          f"duplicate query {query!r}")
                    for msg, args in warnings:
                        log.warning(msg, *args)
                    yield query, scan and _received(*scan)
            elif message:
                line, reason, query = message
                if query in seen:
                    reason = f"bad run record: duplicate query {query!r}"
                raise IngestError(reason if line is None
                                  else f"{where(line)}: {reason}")


def scan_run(qrels, run: Iterable[RunResult] | str | os.PathLike, k: int,
             visit: Callable[[str, QueryScan], None]) -> tuple[int, int]:
    """Call ``visit(query, scan)`` once per qrels query, reading ``run`` once.

    ``run`` is RunResults, or the path of a run file, read as
    :func:`iter_run` reads it, perhaps in two halves at once
    (:func:`_file_rows`), with the same warnings, errors and visits. An
    answered query is scanned as its list arrives, and no list is kept;
    the unanswered ones are scanned last, as empty lists. A query
    appearing twice in the run is an error naming it. Returns (evaluated,
    ignored): the qrels queries answered, and the run queries absent from
    qrels.
    """
    _check_k(k)
    entries: Mapping[str, Iterable[str]] = getattr(qrels, "entries", qrels)
    seen: set[str] = set()
    evaluated = 0
    with closing(_file_rows(run, entries, k, seen)
                 if isinstance(run, (str, os.PathLike))
                 else _rows(run, entries, k)) as rows:
        for query, scan in rows:
            if query in seen:
                raise ValueError(f"duplicate query in run: {query!r}")
            seen.add(query)
            if scan is not None:
                evaluated += 1
                visit(query, scan)
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


def _run_parser() -> Callable[[dict], RunResult]:
    """:func:`iter_run`'s parse of one run record into a RunResult; a
    query the parse has seen before is an error."""
    seen: set[str] = set()

    def parse(rec: dict) -> RunResult:
        query, results = fields(rec, RUN_FIELDS)
        if query in seen:
            raise ValueError(f"duplicate query {query!r}")
        seen.add(query)
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

    return parse


def iter_run(path: str | Path, start: int = 0,
             end: int | None = None) -> Iterator[RunResult]:
    """Read run JSONL: {"query", "results": [{entity_id, score, bin},…]},
    in bytes ``start`` to ``end`` of ``path``.

    Ids are strings and a score is a finite int or float; the file order of
    results is the rank order. Each list's types, scores and bins are
    checked a column at a time, and one that fails a check or overflows a
    float is walked again item by item to name its first bad item.
    RunResult checks for repeated ids and rising scores. Each RunResult is
    yielded as its line is read, so a caller that drops it holds one list
    at a time.
    """
    return iter_records(path, _run_parser(), "run record", start, end)


def load_run(path: str | Path) -> list[RunResult]:
    """Every RunResult of a run file, as :func:`iter_run` reads them."""
    return list(iter_run(path))


def save_run(run: Iterable[RunResult], path: str | Path) -> int:
    bin_values = [bin.value for bin in BINS]
    return write_jsonl(path, as_records(RUN_FIELDS, ((result.query, [
        *as_records(RUN_ITEM_FIELDS, zip(result.ids, result.scores, map(
            bin_values.__getitem__, result.levels)))]) for result in run)))
