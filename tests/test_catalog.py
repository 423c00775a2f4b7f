"""Tests for TSV catalog ingestion and the canonical JSONL format."""

import pytest

from er_evalkit.catalog import (
    Catalog,
    Title,
    load_catalog,
    parse_catalog,
    write_catalog,
)
from er_evalkit.errors import IngestError


def write_tsv(path, header, rows):
    lines = ["\t".join(header)]
    lines += ["\t".join(str(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def dumps(tmp_path):
    """Write basics/ratings(/ranks) TSVs and return their paths."""
    def make(basics_rows, ratings_rows, ranks_rows=None):
        basics = tmp_path / "basics.tsv"
        ratings = tmp_path / "ratings.tsv"
        write_tsv(basics, ("tconst", "primaryTitle", "startYear"), basics_rows)
        write_tsv(ratings, ("tconst", "averageRating", "numVotes"), ratings_rows)
        if ranks_rows is None:
            return basics, ratings, None
        ranks = tmp_path / "ranks.tsv"
        write_tsv(ranks, ("tconst", "rank"), ranks_rows)
        return basics, ratings, ranks
    return make


class TestParseCatalog:
    def test_single_title_with_pseudo_rank(self, dumps):
        """A lone title joined with its rating gets pseudo-rank 1."""
        basics, ratings, _ = dumps(
            [("tt1", "Bridgerton", 2020)],
            [("tt1", 8.3, 200000)],
        )
        catalog = parse_catalog(basics, ratings)
        assert len(catalog) == 1
        title = catalog.lookup("tt1")
        assert title == Title(entity_id="tt1", name="Bridgerton",
                              release_year=2020, rank=1,
                              rating_count=200000, rating=8.3)

    def test_header_only_files(self, dumps):
        basics, ratings, _ = dumps([], [])
        catalog = parse_catalog(basics, ratings)
        assert len(catalog) == 0
        assert catalog.stats.rejects == 0

    def test_duplicate_entity_id_is_an_error(self, dumps):
        basics, ratings, _ = dumps(
            [("tt1", "First", 2000), ("tt1", "Second", 2001)],
            [],
        )
        with pytest.raises(IngestError, match="tt1"):
            parse_catalog(basics, ratings)

    def test_missing_token_means_absent(self, dumps):
        basics, ratings, _ = dumps(
            [("tt1", "No Year", "\\N")],
            [("tt1", "\\N", 10)],
        )
        title = parse_catalog(basics, ratings).lookup("tt1")
        assert title.release_year is None
        assert title.rating is None
        assert title.rating_count == 10

    def test_ranks_file_joined_by_id(self, dumps):
        basics, ratings, ranks = dumps(
            [("tt1", "A", 2000), ("tt2", "B", 2001)],
            [("tt1", 5.0, 10), ("tt2", 6.0, 20)],
            [("tt2", 1), ("tt1", 2)],
        )
        catalog = parse_catalog(basics, ratings, ranks)
        assert catalog.lookup("tt1").rank == 2
        assert catalog.lookup("tt2").rank == 1

    def test_pseudo_rank_orders_by_count_then_id(self, dumps):
        basics, ratings, _ = dumps(
            [("tt1", "A", 2000), ("tt2", "B", 2000), ("tt3", "C", 2000)],
            [("tt1", 5.0, 10), ("tt2", 6.0, 99), ("tt3", 6.5, 10)],
        )
        catalog = parse_catalog(basics, ratings)
        assert catalog.lookup("tt2").rank == 1
        # tie on count 10 breaks by entity_id ascending
        assert catalog.lookup("tt1").rank == 2
        assert catalog.lookup("tt3").rank == 3

    def test_pseudo_rank_is_a_permutation(self, dumps):
        rows = [(f"tt{i}", f"T{i}", 2000) for i in range(1, 21)]
        counts = [(f"tt{i}", 5.0, (i * 37) % 11) for i in range(1, 21)]
        basics, ratings, _ = dumps(rows, counts)
        catalog = parse_catalog(basics, ratings)
        ranks = sorted(t.rank for t in catalog.titles)
        assert ranks == list(range(1, 21))

    def test_malformed_rows_tallied_not_fatal(self, dumps):
        basics, ratings, _ = dumps(
            [("tt1", "Good", 2000), ("tt2", "Bad Year", "abc"),
             ("\\N", "No Id", 2000)],
            [("tt1", "not-a-number", 10)],
        )
        catalog = parse_catalog(basics, ratings)
        assert len(catalog) == 1
        assert catalog.stats.basics_rejected == 2
        assert catalog.stats.ratings_rejected == 1
        # row accounting: titles + rejects == data rows read
        assert len(catalog) + catalog.stats.basics_rejected == \
            catalog.stats.basics_rows

    def test_strict_mode_raises_on_first_bad_row(self, dumps):
        basics, ratings, _ = dumps(
            [("tt1", "Bad Year", "abc")],
            [],
        )
        with pytest.raises(IngestError, match="basics.tsv:2"):
            parse_catalog(basics, ratings, strict=True)

    def test_year_window_rejects_outliers(self, dumps):
        basics, ratings, _ = dumps(
            [("tt1", "Ancient", 1200), ("tt2", "Future", 3000),
             ("tt3", "Fine", 1999)],
            [],
        )
        catalog = parse_catalog(basics, ratings)
        assert [t.entity_id for t in catalog.titles] == ["tt3"]
        assert catalog.stats.basics_rejected == 2

    def test_custom_year_window(self, dumps):
        basics, ratings, _ = dumps([("tt1", "Old", 1900)], [])
        catalog = parse_catalog(basics, ratings, year_window=(1950, 2000))
        assert len(catalog) == 0
        assert catalog.stats.basics_rejected == 1

    def test_orphan_ratings_and_ranks_tallied(self, dumps):
        basics, ratings, ranks = dumps(
            [("tt1", "A", 2000)],
            [("tt1", 5.0, 10), ("tt9", 6.0, 20)],
            [("tt8", 3)],
        )
        catalog = parse_catalog(basics, ratings, ranks)
        assert catalog.stats.ratings_orphaned == 1
        assert catalog.stats.ranks_orphaned == 1
        assert catalog.stats.rejects == 0

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(IngestError, match="missing.tsv"):
            parse_catalog(tmp_path / "missing.tsv", tmp_path / "also.tsv")

    def test_missing_column_is_an_error(self, tmp_path, dumps):
        basics = tmp_path / "b.tsv"
        write_tsv(basics, ("tconst", "primaryTitle"), [("tt1", "A")])
        _, ratings, _ = dumps([], [])
        with pytest.raises(IngestError, match="startYear"):
            parse_catalog(basics, ratings)

    @pytest.mark.parametrize("strict", [False, True])
    def test_header_cell_over_field_limit(self, tmp_path, dumps, strict):
        _, ratings, ranks = dumps([("tt1", "A", 2000)], [], [])
        write_tsv(ranks, ("tconst", "rank", "x" * 200_000), [])
        with pytest.raises(IngestError,
                           match="ranks.tsv:1: field larger than field limit"):
            parse_catalog(tmp_path / "basics.tsv", ratings, ranks,
                          strict=strict)

    def test_deterministic(self, dumps):
        basics, ratings, _ = dumps(
            [("tt1", "A", 2000), ("tt2", "B", 2001)],
            [("tt1", 5.0, 10)],
        )
        first = parse_catalog(basics, ratings)
        second = parse_catalog(basics, ratings)
        assert first.titles == second.titles


class TestLookup:
    def test_present_key(self):
        catalog = Catalog(titles=[Title("tt1", "A")])
        assert catalog.lookup("tt1").name == "A"

    def test_missing_key(self):
        catalog = Catalog(titles=[Title("tt1", "A")])
        assert catalog.lookup("tt9") is None

    def test_empty_catalog(self):
        assert Catalog(titles=[]).lookup("tt1") is None


class TestCatalogJsonl:
    def test_round_trip(self, tmp_path):
        titles = [
            Title("tt1", "Full", release_year=1999, rank=2,
                  rating_count=10, rating=7.5),
            Title("tt2", "Sparse"),
        ]
        path = tmp_path / "catalog.jsonl"
        write_catalog(Catalog(titles=titles), path)
        loaded = load_catalog(path)
        assert loaded.titles == titles

    def test_absent_fields_omitted(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        write_catalog(Catalog(titles=[Title("tt1", "Sparse")]), path)
        line = path.read_text(encoding="utf-8").strip()
        assert line == '{"entity_id":"tt1","name":"Sparse"}'

    def test_duplicate_id_rejected_on_load(self, tmp_path):
        path = tmp_path / "catalog.jsonl"
        path.write_text('{"entity_id":"tt1","name":"A"}\n'
                        '{"entity_id":"tt1","name":"B"}\n', encoding="utf-8")
        with pytest.raises(IngestError, match="tt1"):
            load_catalog(path)


class TestDigitRuns:
    """Year, vote count and rank cells parse as ASCII digit runs only."""

    @pytest.mark.parametrize("year", ["١٩٩٩", "１９９９", "²", "+1999", "1999.0"])
    def test_other_digits_are_an_unparseable_year(self, dumps, year):
        basics, ratings, _ = dumps([("tt1", "A", year)], [])
        assert parse_catalog(basics, ratings).stats.basics_rejected == 1
        with pytest.raises(IngestError) as excinfo:
            parse_catalog(basics, ratings, strict=True)
        assert str(excinfo.value) == f"{basics}:2: unparseable year {year!r}"

    def test_other_digits_in_votes_and_ranks_rejected(self, dumps):
        basics, ratings, ranks = dumps([("tt1", "A", 2000)],
                                       [("tt1", 5.0, "١٠")], [("tt1", "٣")])
        stats = parse_catalog(basics, ratings, ranks).stats
        assert (stats.ratings_rejected, stats.ranks_rejected) == (1, 1)

    def test_zero_padded_runs_parse(self, dumps):
        basics, ratings, ranks = dumps([("tt1", "A", "01999")],
                                       [("tt1", 5.0, "0010")], [("tt1", "0123")])
        title = parse_catalog(basics, ratings, ranks, strict=True).lookup("tt1")
        assert (title.release_year, title.rating_count, title.rank) == \
            (1999, 10, 123)
