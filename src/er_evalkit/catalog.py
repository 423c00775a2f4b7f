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


def _open_tsv(path: str | Path, required: tuple[str, ...]):
    """Open a TSV and map required column names to indexes from the header."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    reader = csv.reader(fh, delimiter="\t", quoting=csv.QUOTE_NONE)
    try:
        header = next(reader)
    except StopIteration:
        fh.close()
        raise IngestError(f"{path}: missing header row")
    except csv.Error as exc:
        fh.close()
        raise IngestError(f"{path}:1: {exc}") from exc
    positions = {}
    for name in required:
        if name not in header:
            fh.close()
            raise IngestError(f"{path}: missing required column {name!r}")
        positions[name] = header.index(name)
    return fh, reader, positions


def _cell(row: list[str], idx: int) -> str | None:
    value = row[idx].strip()
    if not value or value == MISSING_TOKEN:
        return None
    return value


def _parse_int(value: str) -> int:
    # Reject floats and signs that int() would also reject anyway, but keep
    # plain digit runs like "0123" out too: dump rows never zero-pad counts.
    if not value.isdigit():
        raise ValueError(value)
    return int(value)


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
    stats = IngestStats()
    min_year, max_year = year_window
    if min_year > max_year:
        raise ConfigError(f"year_window {min_year},{max_year} is reversed: "
                          f"{min_year} > {max_year}")

    def bad_row(counter: str, path, lineno: int, why: str):
        setattr(stats, counter, getattr(stats, counter) + 1)
        if strict:
            raise IngestError(f"{path}:{lineno}: {why}")

    def data_rows(path, required: tuple[str, ...], kind: str):
        """(lineno, required cells) per nonblank row; short rows rejected.

        A row the csv module cannot read (a cell over its field size
        limit) is fatal in either mode.
        """
        fh, reader, pos = _open_tsv(path, required)
        columns = [pos[name] for name in required]
        last = max(columns)
        counter = f"{kind}_rows"
        with fh:
            try:
                for lineno, row in enumerate(reader, start=2):
                    if not row:
                        continue
                    setattr(stats, counter, getattr(stats, counter) + 1)
                    if len(row) <= last:
                        bad_row(f"{kind}_rejected", path, lineno,
                                "too few columns")
                        continue
                    yield lineno, [_cell(row, i) for i in columns]
            except csv.Error as exc:
                raise IngestError(f"{path}:{reader.line_num}: {exc}") from exc

    # basics: entity universe, file order preserved
    rows: dict[str, dict] = {}
    for lineno, (entity_id, name, year_raw) in data_rows(
            basics_path, BASICS_COLUMNS, "basics"):
        if entity_id is None or name is None:
            bad_row("basics_rejected", basics_path, lineno, "missing id or title")
            continue
        year = None
        if year_raw is not None:
            try:
                year = _parse_int(year_raw)
            except ValueError:
                bad_row("basics_rejected", basics_path, lineno,
                        f"unparseable year {year_raw!r}")
                continue
            if not (min_year <= year <= max_year):
                bad_row("basics_rejected", basics_path, lineno,
                        f"implausible year {year}")
                continue
        if entity_id in rows:
            raise IngestError(
                f"{basics_path}:{lineno}: duplicate entity_id {entity_id!r}")
        rows[entity_id] = {"entity_id": entity_id, "name": name,
                           "release_year": year, "rank": None,
                           "rating_count": None, "rating": None}

    # ratings: left join on entity id
    seen_rating_ids: set[str] = set()
    for lineno, (entity_id, rating_raw, votes_raw) in data_rows(
            ratings_path, RATINGS_COLUMNS, "ratings"):
        if entity_id is None:
            bad_row("ratings_rejected", ratings_path, lineno, "missing id")
            continue
        try:
            rating = None if rating_raw is None else float(rating_raw)
            votes = None if votes_raw is None else _parse_int(votes_raw)
        except ValueError:
            bad_row("ratings_rejected", ratings_path, lineno,
                    "unparseable rating or vote count")
            continue
        if rating is not None and not (0.0 <= rating <= 10.0):
            bad_row("ratings_rejected", ratings_path, lineno,
                    f"rating {rating} outside [0, 10]")
            continue
        if entity_id in seen_rating_ids:
            raise IngestError(
                f"{ratings_path}:{lineno}: duplicate entity_id {entity_id!r}")
        seen_rating_ids.add(entity_id)
        target = rows.get(entity_id)
        if target is None:
            stats.ratings_orphaned += 1
            continue
        target["rating"] = rating
        target["rating_count"] = votes

    # ranks: optional left join; else derive pseudo-rank from rating counts
    if ranks_path is not None:
        seen_rank_ids: set[str] = set()
        for lineno, (entity_id, rank_raw) in data_rows(
                ranks_path, RANKS_COLUMNS, "ranks"):
            if entity_id is None or rank_raw is None:
                bad_row("ranks_rejected", ranks_path, lineno,
                        "missing id or rank")
                continue
            try:
                rank = _parse_int(rank_raw)
            except ValueError:
                bad_row("ranks_rejected", ranks_path, lineno,
                        f"unparseable rank {rank_raw!r}")
                continue
            if rank < 1:
                bad_row("ranks_rejected", ranks_path, lineno, f"rank {rank} < 1")
                continue
            if entity_id in seen_rank_ids:
                raise IngestError(
                    f"{ranks_path}:{lineno}: duplicate entity_id {entity_id!r}")
            seen_rank_ids.add(entity_id)
            target = rows.get(entity_id)
            if target is None:
                stats.ranks_orphaned += 1
                continue
            target["rank"] = rank
    else:
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
