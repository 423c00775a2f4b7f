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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import ConfigError, IngestError
from .jsonl import iter_records, optional, require, write_jsonl

MISSING_TOKEN = "\\N"
DEFAULT_YEAR_WINDOW = (1870, 2100)

BASICS_COLUMNS = ("tconst", "primaryTitle", "startYear")
RATINGS_COLUMNS = ("tconst", "averageRating", "numVotes")
RANKS_COLUMNS = ("tconst", "rank")


@dataclass(frozen=True)
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
    """All titles in ingest order plus an entity-id index over them."""

    titles: list[Title]
    index: dict[str, Title] = field(default_factory=dict)
    stats: IngestStats = field(default_factory=IngestStats)

    def __post_init__(self):
        if not self.index:
            self.index = {t.entity_id: t for t in self.titles}
        if len(self.index) != len(self.titles):
            raise IngestError("catalog contains duplicate entity ids")

    def __len__(self) -> int:
        return len(self.titles)

    def lookup(self, entity_id: str) -> Title | None:
        """Return the title for ``entity_id``; absence is a normal outcome."""
        return self.index.get(entity_id)


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


def _basics_row(cells: list, min_year: int, max_year: int) -> tuple[str, dict]:
    entity_id, name, year = cells
    if entity_id is None or name is None:
        raise ValueError("missing id or title")
    if year is not None:
        year = _parse_int(year, f"unparseable year {year!r}")
        if not min_year <= year <= max_year:
            raise ValueError(f"implausible year {year}")
    return entity_id, {"entity_id": entity_id, "name": name,
                       "release_year": year, "rank": None,
                       "rating_count": None, "rating": None}


def _ratings_row(cells: list) -> tuple[str, dict]:
    entity_id, rating, votes = cells
    if entity_id is None:
        raise ValueError("missing id")
    reason = "unparseable rating or vote count"
    try:
        rating = None if rating is None else float(rating)
    except ValueError:
        raise ValueError(reason) from None
    votes = None if votes is None else _parse_int(votes, reason)
    if rating is not None and not 0.0 <= rating <= 10.0:
        raise ValueError(f"rating {rating} outside [0, 10]")
    return entity_id, {"rating": rating, "rating_count": votes}


def _ranks_row(cells: list) -> tuple[str, dict]:
    entity_id, rank = cells
    if entity_id is None or rank is None:
        raise ValueError("missing id or rank")
    rank = _parse_int(rank, f"unparseable rank {rank!r}")
    if rank < 1:
        raise ValueError(f"rank {rank} < 1")
    return entity_id, {"rank": rank}


def _read_dump(path: str | Path, kind: str, required: tuple[str, ...], check,
               stats: IngestStats, strict: bool) -> Iterator[tuple[str, dict]]:
    """Yield ``(entity_id, fields)`` for each row of one dump ``check`` takes.

    ``check`` maps a row's required cells to ``(entity_id, fields)`` or
    raises ValueError naming the reason; a row too short to hold them is
    rejected first. A rejected row is counted, or under ``strict`` raises an
    IngestError naming the file and line. A repeated id among the accepted
    rows is an error in either mode, and so is a row the csv module cannot
    read (a cell over its field size limit) or a file that is not UTF-8.
    Once the dump is read, ``stats`` holds its ``<kind>_rows`` and
    ``<kind>_rejected`` counts.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    accepted: set[str] = set()
    rows = rejected = 0
    with fh:
        reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
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
                    entity_id, fields = check([_cell(row, i) for i in columns])
                except ValueError as exc:
                    rejected += 1
                    if strict:
                        raise IngestError(f"{path}:{lineno}: {exc}") from exc
                    continue
                if entity_id in accepted:
                    raise IngestError(
                        f"{path}:{lineno}: duplicate entity_id {entity_id!r}")
                accepted.add(entity_id)
                yield entity_id, fields
        except csv.Error as exc:
            raise IngestError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise IngestError(f"cannot read {path}: {exc}") from exc
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
    """
    min_year, max_year = year_window
    if min_year > max_year:
        raise ConfigError(f"year_window {min_year},{max_year} is reversed: "
                          f"{min_year} > {max_year}")
    stats = IngestStats()
    rows = dict(_read_dump(
        basics_path, "basics", BASICS_COLUMNS,
        lambda cells: _basics_row(cells, min_year, max_year), stats, strict))
    # ratings, then ranks: left joins on entity id
    joins = [("ratings", ratings_path, RATINGS_COLUMNS, _ratings_row),
             ("ranks", ranks_path, RANKS_COLUMNS, _ranks_row)]
    for kind, path, required, check in joins:
        if path is None:
            continue
        orphaned = 0
        for entity_id, fields in _read_dump(path, kind, required, check,
                                            stats, strict):
            if entity_id in rows:
                rows[entity_id].update(fields)
            else:
                orphaned += 1
        setattr(stats, f"{kind}_orphaned", orphaned)
    if ranks_path is None:
        # derive a pseudo-rank from rating counts
        assign_pseudo_ranks(rows)

    titles = [Title(**fields) for fields in rows.values()]
    return Catalog(titles=titles, stats=stats)


def assign_pseudo_ranks(rows: dict[str, dict]) -> None:
    """Set rank to the ordinal under rating-count-descending order.

    Absent rating counts sort as zero; ties break by entity id ascending so
    the assignment is a total order and the resulting ranks are a bijection
    onto 1..N.
    """
    ordering = sorted(rows, key=lambda eid: (-(rows[eid]["rating_count"] or 0), eid))
    for ordinal, entity_id in enumerate(ordering, start=1):
        rows[entity_id]["rank"] = ordinal


_JSONL_FIELDS = ("entity_id", "name", "release_year", "rank", "rating_count", "rating")


def write_catalog(catalog: Catalog, path: str | Path) -> None:
    """Write the canonical catalog JSONL (absent fields omitted)."""
    def records():
        for title in catalog.titles:
            rec = {}
            for name in _JSONL_FIELDS:
                value = getattr(title, name)
                if value is not None:
                    rec[name] = value
            yield rec

    write_jsonl(path, records())


def load_catalog(path: str | Path) -> Catalog:
    """Load a catalog previously written by :func:`write_catalog`.

    The optional fields are null or absent, or else typed: year, rank and
    rating count are ints (never bools), rating a finite number. The ranges
    :func:`parse_catalog` enforces hold too: rank >= 1, rating count >= 0
    and rating in [0, 10].
    """
    seen: set[str] = set()

    def parse(rec: dict) -> Title:
        entity_id = require(rec, "entity_id", str)
        if entity_id in seen:
            raise ValueError(f"duplicate entity_id {entity_id!r}")
        seen.add(entity_id)
        title = Title(
            entity_id=entity_id,
            name=require(rec, "name", str),
            release_year=optional(rec, "release_year", int),
            rank=optional(rec, "rank", int),
            rating_count=optional(rec, "rating_count", int),
            rating=optional(rec, "rating", int, float),
        )
        if title.rank is not None and title.rank < 1:
            raise ValueError(f"rank {title.rank} < 1")
        if title.rating_count is not None and title.rating_count < 0:
            raise ValueError(f"rating_count {title.rating_count} < 0")
        if title.rating is not None and not 0.0 <= title.rating <= 10.0:
            raise ValueError(f"rating {title.rating} outside [0, 10]")
        return title

    return Catalog(titles=list(iter_records(path, parse, "catalog record")))
