"""IMDb-style catalog ingestion.

Reads tab-separated dumps with a header row (basics plus ratings, optionally
a ranks file), joins them by entity id, and materializes an immutable,
id-indexed catalog. The placeholder token ``\\N`` in any cell parses as
absent, matching the public dump convention. When no ranks file is given, a
pseudo-rank is derived by ordering titles by rating count descending (ties
broken by entity id ascending), preserving the lower-rank-is-more-popular
semantics.
"""

from __future__ import annotations

import csv
from contextlib import closing
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterator

from .errors import ConfigError, IngestError
from .jsonl import (fields, iter_records, open_text, optional, require,
                    write_jsonl)

MISSING_TOKEN = "\\N"
DEFAULT_YEAR_WINDOW = (1870, 2100)

BASICS_COLUMNS = ("tconst", "primaryTitle", "startYear")
RATINGS_COLUMNS = ("tconst", "averageRating", "numVotes")
RANKS_COLUMNS = ("tconst", "rank")

# Positions of fields in a row, which holds Title's fields in order.
_YEAR, _RANK, _RATING_COUNT = 2, 3, 4
_RANK_SLICE = slice(_RANK, _RANK + 1)
_RATINGS_SLICE = slice(_RATING_COUNT, _RATING_COUNT + 2)


@dataclass(frozen=True, slots=True)
class Title:
    """One catalog entity with its popularity signals."""

    entity_id: str
    name: str
    release_year: int | None = None
    rank: int | None = None
    rating_count: int | None = None
    rating: float | None = None


@dataclass
class IngestStats:
    """Row-level bookkeeping for one parse run.

    Basics rows are either materialized as titles or rejected, so
    ``len(catalog) + basics_rejected`` always equals the number of data rows
    read from the basics file. Ratings/ranks rows referencing ids absent
    from basics are orphans, not rejects.
    """

    basics_rows: int = 0
    basics_rejected: int = 0
    ratings_rows: int = 0
    ratings_rejected: int = 0
    ratings_orphaned: int = 0
    ranks_rows: int = 0
    ranks_rejected: int = 0
    ranks_orphaned: int = 0

    @property
    def rejects(self) -> int:
        return self.basics_rejected + self.ratings_rejected + self.ranks_rejected

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Catalog:
    """All titles in ingest order."""

    titles: list[Title]
    stats: IngestStats = field(default_factory=IngestStats)

    def __len__(self) -> int:
        return len(self.titles)


def _cell(row: list[str], idx: int) -> str | None:
    value = row[idx].strip()
    if not value or value == MISSING_TOKEN:
        return None
    return value


def _parse_int(value: str, reason: str) -> int:
    # ASCII digit runs only: no sign, point or exponent, and no other
    # script's digits, which int() would also read. A zero-padded run such
    # as "0123" parses (as 123).
    if not (value.isascii() and value.isdigit()):
        raise ValueError(reason)
    return int(value)


def _parse_rating(value: str, reason: str) -> float:
    # An ASCII digit run, optionally a point and a second run: no sign,
    # exponent, underscore, nan or inf, and no other script's digits, all
    # of which float() would also read.
    whole, point, fraction = value.partition(".")
    if not (value.isascii() and whole.isdigit()
            and (fraction.isdigit() or not point)):
        raise ValueError(reason)
    return float(value)


# The year and rating caches map a cell text that parsed to its value, so
# equal cells share one object. They are keyed by text, not value, so "9"
# and "9.0" never share one; the range checks still run on every row.
def _basics_row(cells: list, years: dict[str, int], min_year: int,
                max_year: int) -> tuple[str, list]:
    entity_id, name, year = cells
    if entity_id is None or name is None:
        raise ValueError("missing id or title")
    if year is not None:
        text, year = year, years.get(year)
        if year is None:
            year = years[text] = _parse_int(text, f"unparseable year {text!r}")
        if not min_year <= year <= max_year:
            raise ValueError(f"implausible year {year}")
    return entity_id, [entity_id, name, year, None, None, None]


def _ratings_row(cells: list, ratings: dict[str, float]) -> tuple[str, tuple]:
    entity_id, rating, votes = cells
    if entity_id is None:
        raise ValueError("missing id")
    reason = "unparseable rating or vote count"
    if rating is not None:
        text, rating = rating, ratings.get(rating)
        if rating is None:
            rating = ratings[text] = _parse_rating(text, reason)
    votes = None if votes is None else _parse_int(votes, reason)
    if rating is not None and not 0.0 <= rating <= 10.0:
        raise ValueError(f"rating {rating} outside [0, 10]")
    return entity_id, (votes, rating)


def _ranks_row(cells: list) -> tuple[str, tuple]:
    entity_id, rank = cells
    if entity_id is None or rank is None:
        raise ValueError("missing id or rank")
    rank = _parse_int(rank, f"unparseable rank {rank!r}")
    if rank < 1:
        raise ValueError(f"rank {rank} < 1")
    return entity_id, (rank,)


def _filled(values) -> bool:
    return values.count(None) < len(values)


def _read_dump(path: str | Path, kind: str, required: tuple[str, ...], check,
               stats: IngestStats, strict: bool
               ) -> Iterator[tuple[int, str, object]]:
    """Yield ``(lineno, entity_id, values)`` for each row of one dump
    ``check`` takes, in file order.

    ``check`` maps a row's required cells to ``(entity_id, values)`` or
    raises ValueError naming the reason; a row too short to hold them is
    rejected first. A rejected row is counted, or under ``strict`` raises an
    IngestError naming the file and line. A row the csv module cannot read
    (a cell over its field size limit) or a file that is not UTF-8 is an
    error in either mode. The caller rejects a repeated id among the rows
    yielded, so a rejected row before it keeps its precedence. Once the
    dump is read, ``stats`` holds its ``<kind>_rows`` and
    ``<kind>_rejected`` counts.
    """
    rows = rejected = 0
    with closing(open_text(path)) as lines:
        reader = csv.reader(lines, delimiter="\t", quoting=csv.QUOTE_NONE)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: missing header row")
            for name in required:
                if name not in header:
                    raise IngestError(
                        f"{path}: missing required column {name!r}")
            columns = [header.index(name) for name in required]
            last = max(columns)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                rows += 1
                try:
                    if len(row) <= last:
                        raise ValueError("too few columns")
                    entity_id, values = check([_cell(row, i) for i in columns])
                except ValueError as exc:
                    rejected += 1
                    if strict:
                        raise IngestError(f"{path}:{lineno}: {exc}") from exc
                    continue
                yield lineno, entity_id, values
        except csv.Error as exc:
            raise IngestError(f"{path}:{reader.line_num}: {exc}") from exc
    setattr(stats, f"{kind}_rows", rows)
    setattr(stats, f"{kind}_rejected", rejected)


def parse_catalog(
    basics_path: str | Path,
    ratings_path: str | Path,
    ranks_path: str | Path | None = None,
    *,
    strict: bool = False,
    year_window: tuple[int, int] = DEFAULT_YEAR_WINDOW,
) -> Catalog:
    """Join basics, ratings and optional ranks dumps into a Catalog.

    Basics is the entity universe: every valid basics row becomes a title,
    and ratings/ranks rows for unknown ids are ignored and tallied. A
    malformed row is skipped and counted unless ``strict`` is set, in which
    case it raises :class:`IngestError` naming the file and line. A
    duplicated entity id is always an error. A reversed ``year_window`` is
    a ConfigError, raised before any file is read.

    The join holds one compact row per basics title: a list of
    :class:`Title`'s fields in order, which the ratings and ranks rows fill
    in place. Each row becomes its Title as it is released, so the rows and
    the titles never both hold the whole catalog. Titles keep basics file
    order. No second table of every id is kept for the duplicate check:
    basics checks an id against the rows, and a join finds a repeated id in
    the row it already filled. Equal year and rating cells share one value
    object, parsed once per call.
    """
    min_year, max_year = year_window
    if min_year > max_year:
        raise ConfigError(f"year_window {min_year},{max_year} is reversed: "
                          f"{min_year} > {max_year}")
    stats = IngestStats()
    years: dict[str, int] = {}
    ratings: dict[str, float] = {}
    rows: dict[str, list] = {}
    for lineno, entity_id, row in _read_dump(
            basics_path, "basics", BASICS_COLUMNS,
            lambda cells: _basics_row(cells, years, min_year, max_year),
            stats, strict):
        if rows.setdefault(entity_id, row) is not row:
            raise IngestError(f"{basics_path}:{lineno}: "
                              f"duplicate entity_id {entity_id!r}")

    # ratings, then ranks: left joins on entity id, each filling its slice
    # of the basics row in place
    joins = [("ratings", ratings_path, RATINGS_COLUMNS,
              lambda cells: _ratings_row(cells, ratings), _RATINGS_SLICE),
             ("ranks", ranks_path, RANKS_COLUMNS, _ranks_row, _RANK_SLICE)]
    for kind, path, required, check, where in joins:
        if path is None:
            continue
        # A filled slice marks its row as joined. The ids no row can mark
        # are kept here: orphans, and rows whose values are all absent.
        unmarked: set[str] = set()
        orphaned = 0
        for lineno, entity_id, values in _read_dump(path, kind, required,
                                                    check, stats, strict):
            row = rows.get(entity_id)
            if entity_id in unmarked or (row is not None
                                         and _filled(row[where])):
                raise IngestError(f"{path}:{lineno}: "
                                  f"duplicate entity_id {entity_id!r}")
            if row is not None and _filled(values):
                row[where] = values
            else:
                unmarked.add(entity_id)
                orphaned += row is None
        setattr(stats, f"{kind}_orphaned", orphaned)
    if ranks_path is None:
        # derive a pseudo-rank from rating counts
        assign_pseudo_ranks(rows)
    # Popping the last row first releases each row as its Title is made.
    titles = [Title(*rows.popitem()[1]) for _ in range(len(rows))]
    titles.reverse()
    return Catalog(titles=titles, stats=stats)


def assign_pseudo_ranks(rows: dict[str, list]) -> None:
    """Set rank to the ordinal under rating-count-descending order.

    Each row holds :class:`Title`'s fields in order. Absent rating counts
    sort as zero; ties break by entity id ascending so the assignment is a
    total order and the resulting ranks are a bijection onto 1..N.
    """
    ordering = sorted(rows, key=lambda eid: (-(rows[eid][_RATING_COUNT] or 0),
                                             eid))
    for ordinal, entity_id in enumerate(ordering, start=1):
        rows[entity_id][_RANK] = ordinal


# In Title's field order; see jsonl.fields.
CATALOG_FIELDS = (
    ("entity_id", require, (str,)), ("name", require, (str,)),
    ("release_year", optional, (int,)), ("rank", optional, (int,)),
    ("rating_count", optional, (int,)), ("rating", optional, (int, float)))


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write the canonical catalog JSONL (absent fields omitted)."""
    keys = [key for key, _, _ in CATALOG_FIELDS]
    values = attrgetter(*keys)
    write_jsonl(path, ({key: value for key, value in zip(keys, values(title))
                        if value is not None} for title in catalog.titles))


def load_catalog(path: str | Path) -> Catalog:
    """Load a catalog previously written by :func:`write_catalog`.

    The optional fields are null or absent, or else typed: year, rank and
    rating count are ints (never bools), rating a finite number. The ranges
    :func:`parse_catalog` enforces hold too: rank >= 1, rating count >= 0
    and rating in [0, 10]. A repeated entity id is an error. Equal years
    share one int object (the type check keeps bools out).
    """
    seen: set[str] = set()
    years: dict[int | None, int | None] = {}

    def parse(rec: dict) -> Title:
        values = fields(rec, CATALOG_FIELDS)
        year = values[_YEAR]
        values[_YEAR] = years.setdefault(year, year)
        title = Title(*values)
        if title.entity_id in seen:
            raise ValueError(f"duplicate entity_id {title.entity_id!r}")
        seen.add(title.entity_id)
        if title.rank is not None and title.rank < 1:
            raise ValueError(f"rank {title.rank} < 1")
        if title.rating_count is not None and title.rating_count < 0:
            raise ValueError(f"rating_count {title.rating_count} < 0")
        if title.rating is not None and not 0.0 <= title.rating <= 10.0:
            raise ValueError(f"rating {title.rating} outside [0, 10]")
        return title

    return Catalog(titles=list(iter_records(path, parse, "catalog record")))
