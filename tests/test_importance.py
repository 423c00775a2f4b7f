"""Tests for component normalization and the combined importance score."""

import json

import pytest
from hypothesis import given, strategies as st

from er_evalkit.catalog import Catalog, Title
from er_evalkit.cli import dispatch
from er_evalkit.errors import ConfigError
from er_evalkit.importance import (
    ComponentScores,
    ImportanceConfig,
    ScoreBounds,
    fit_bounds,
    importance_score,
    linear_score,
    load_scored,
    log_scale_score,
    score_catalog,
    write_scored,
)


class TestLinearScore:
    def test_lower_endpoint(self):
        assert linear_score(1990, 1990, 2020) == 0.0

    def test_upper_endpoint(self):
        assert linear_score(2020, 1990, 2020) == 1.0

    def test_midpoint(self):
        assert linear_score(2005, 1990, 2020) == 0.5

    def test_clamps_outside_values(self):
        assert linear_score(1980, 1990, 2020) == 0.0
        assert linear_score(2030, 1990, 2020) == 1.0

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ConfigError):
            linear_score(5, 10, 10)
        with pytest.raises(ConfigError):
            linear_score(5, 20, 10)


class TestLogScaleScore:
    def test_inverted_geometric_midpoint_is_exact(self):
        """Rank 10 between 1 and 100 sits exactly halfway on the log scale."""
        assert log_scale_score(10, 1, 100, invert=True) == 0.5

    def test_best_rank_maps_to_max(self):
        assert log_scale_score(1, 1, 100, invert=True) == 1.0

    def test_count_upper_endpoint(self):
        assert log_scale_score(100, 1, 100) == 1.0

    def test_count_lower_endpoint(self):
        assert log_scale_score(1, 1, 100) == 0.0

    def test_clamps_outside_values(self):
        assert log_scale_score(1000, 1, 100) == 1.0
        assert log_scale_score(0.5, 1, 100) == 0.0

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            log_scale_score(0, 1, 100)
        with pytest.raises(ValueError):
            log_scale_score(-3, 1, 100)
        with pytest.raises(ValueError):
            log_scale_score(5, 0, 100)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            log_scale_score(5, 100, 100)

    def test_zero_upper_bound_is_not_positive(self):
        """hi = 0 fails the positivity check, before the lo < hi one."""
        with pytest.raises(ValueError) as caught:
            log_scale_score(5, 1, 0)
        assert str(caught.value) == \
            "log scale needs positive bounds, got lo=1 hi=0"


# 1 then 400 zeros: its log rounds to the same float as BIG + 1's, and
# neither it nor a difference with it converts to a float.
BIG = 10 ** 400


class TestUnrepresentableValues:
    """Values and bounds a float cannot hold or tell apart score on the
    clamped scale: at or below lo is 0, at or above hi is 1."""

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_in_range_scores_unchanged(self, x, lo, hi):
        if lo < hi:
            assert linear_score(x, lo, hi) == \
                min(1.0, max(0.0, (x - lo) / (hi - lo)))

    def test_rank_bounds_with_one_log(self):
        assert log_scale_score(5, BIG, BIG + 1, invert=True) == 1.0
        assert log_scale_score(BIG + 1, BIG, BIG + 1, invert=True) == 1.0
        bounds = ScoreBounds(1950, 2020, BIG, BIG + 1, 1000)
        catalog = Catalog(titles=[Title("tt1", "A", 2000, 5, 10)])
        scored, _ = score_catalog(catalog, ImportanceConfig(bounds=bounds))
        assert scored[0].components.rank_score == 1.0

    def test_year_past_float_range(self):
        assert linear_score(BIG, 1900, 2000) == 1.0
        assert linear_score(-BIG, 1900, 2000) == 0.0
        bounds = ScoreBounds(1900, 2000, 1, 10, 100)
        catalog = Catalog(titles=[Title("tt1", "A", BIG, 5, 10)])
        scored, _ = score_catalog(catalog, ImportanceConfig(bounds=bounds))
        assert scored[0].components.release_year_score == 1.0

    def test_fitted_ranks_with_one_log(self):
        catalog = Catalog(titles=[Title("tt1", "A", 2000, BIG, 10),
                                  Title("tt2", "B", 2001, BIG + 1, 10)])
        scored, _ = score_catalog(catalog, ImportanceConfig())
        assert [s.components.rank_score for s in scored] == [1.0, 1.0]

    @pytest.mark.parametrize("titles,bounds", [
        ([(2000, 5)], f"1950,2020,{BIG},{BIG + 1},1000"),
        ([(BIG, 5)], "1900,2000,1,10,100"),
        ([(2000, BIG), (2001, BIG + 1)], None),
    ], ids=["rank-bounds", "year", "fitted-ranks"])
    def test_cli_scores_them(self, tmp_path, capsys, titles, bounds):
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text("".join(
            json.dumps({"entity_id": f"tt{i}", "name": "A",
                        "release_year": year, "rank": rank,
                        "rating_count": 10}) + "\n"
            for i, (year, rank) in enumerate(titles)), encoding="utf-8")
        argv = ["score-importance", "--catalog", str(catalog),
                "--out", str(tmp_path / "scored.jsonl")]
        assert dispatch(argv + (["--bounds", bounds] if bounds else [])) == 0
        assert json.loads(capsys.readouterr().out)["scored"] == len(titles)
        assert len(load_scored(tmp_path / "scored.jsonl")) == len(titles)


class TestImportanceScore:
    def test_all_ones(self):
        components = ComponentScores(1.0, 1.0, 1.0)
        assert importance_score(components, ImportanceConfig()) == 1.0

    def test_all_zeros(self):
        components = ComponentScores(0.0, 0.0, 0.0)
        assert importance_score(components, ImportanceConfig()) == 0.0

    def test_uniform_weights_worked_example(self):
        components = ComponentScores(0.6, 0.9, 0.0)
        value = importance_score(components, ImportanceConfig())
        assert abs(value - 0.5) <= 1e-12

    def test_weight_degeneracy_selects_one_component(self):
        """Weights (1,0,0) must reproduce the year score exactly."""
        config = ImportanceConfig(weights=(1.0, 0.0, 0.0))
        components = ComponentScores(0.37, 0.9, 0.1)
        assert importance_score(components, config) == 0.37


class TestImportanceConfig:
    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            ImportanceConfig(weights=(-0.1, 0.6, 0.5))

    def test_weights_must_be_a_triple(self):
        with pytest.raises(ConfigError) as raised:
            ImportanceConfig(weights=(0.5, 0.5))
        assert str(raised.value) == \
            "weights must be a (year, rank, count) triple"

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            ImportanceConfig(weights=(0.5, 0.5, 0.5))

    def test_sum_tolerance_accepts_thirds(self):
        ImportanceConfig(weights=(1 / 3, 1 / 3, 1 / 3))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ImportanceConfig(missing_feature_policy="panic")

    def test_default_component_score_range(self):
        with pytest.raises(ConfigError):
            ImportanceConfig(default_component_score=1.5)

    def test_zero_default_component_score_through_the_cli(self, tmp_path,
                                                          capsys):
        """0 is the closed lower end of [0, 1]: a missing rank scores 0."""
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text(
            '{"entity_id":"tt1","name":"A","release_year":2000,'
            '"rating_count":10}\n', encoding="utf-8")
        out = tmp_path / "scored.jsonl"
        assert dispatch(["score-importance", "--catalog", str(catalog),
                         "--out", str(out), "--bounds", "1950,2020,1,10,100",
                         "--default-component-score", "0"]) == 0
        assert capsys.readouterr().err == ""
        assert load_scored(out)[0].components.rank_score == 0.0


class TestScoreBounds:
    """Bounds are checked when they are built, by the scales that score
    them, the year pair first."""

    @pytest.mark.parametrize("bounds,error,message", [
        ((2020, 1950, 1, 100, 1000), ConfigError,
         "linear bounds need lo < hi, got lo=2020 hi=1950"),
        ((1950, 2020, 100, 1, 1000), ConfigError,
         "log bounds need lo < hi, got lo=100 hi=1"),
        ((1950, 2020, 0, 100, 1000), ValueError,
         "log scale needs positive bounds, got lo=0 hi=100"),
        ((2020, 1950, 100, 1, 1000), ConfigError,
         "linear bounds need lo < hi, got lo=2020 hi=1950"),
    ], ids=["reversed-years", "reversed-ranks", "zero-rank", "both-reversed"])
    def test_bad_bounds_rejected(self, bounds, error, message):
        with pytest.raises(error) as raised:
            ScoreBounds(*bounds)
        assert str(raised.value) == message

    def test_equal_bounds_score_every_present_value_one(self):
        bounds = ScoreBounds(2000, 2000, 5, 5, 0)
        catalog = Catalog(titles=[Title("tt1", "A", 1990, 9, 0),
                                  Title("tt2", "B", 2010, 1, 7)])
        scored, _ = score_catalog(catalog, ImportanceConfig(bounds=bounds))
        assert [s.components for s in scored] == \
            [ComponentScores(1.0, 1.0, 1.0)] * 2

    def test_any_rating_count_bound_is_valid(self):
        for max_rating_count in (-5, 0, 1, 10 ** 400):
            ScoreBounds(1950, 2020, 1, 100, max_rating_count)


def make_catalog():
    return Catalog(titles=[
        Title("tt1", "Oldest", release_year=1990, rank=1, rating_count=1),
        Title("tt2", "Middle", release_year=2005, rank=10, rating_count=10),
        Title("tt3", "Newest", release_year=2020, rank=100, rating_count=100),
    ])


class TestFitBounds:
    def test_min_max_of_present_values(self):
        bounds = fit_bounds(make_catalog())
        assert bounds == ScoreBounds(min_year=1990, max_year=2020,
                                     min_rank=1, max_rank=100,
                                     max_rating_count=100)

    def test_all_absent_feature_named_in_error(self):
        catalog = Catalog(titles=[Title("tt1", "A", release_year=2000,
                                        rating_count=5)])
        with pytest.raises(ConfigError, match="rank"):
            fit_bounds(catalog)

    def test_no_rating_count_through_the_cli(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_text(
            '{"entity_id":"tt1","name":"A","release_year":2000,"rank":3}\n',
            encoding="utf-8")
        code = dispatch(["score-importance", "--catalog", str(catalog),
                         "--out", str(tmp_path / "scored.jsonl")])
        assert (code, capsys.readouterr().err) == (
            1, "error: cannot fit bounds: no title has rating_count\n")


class TestScoreCatalog:
    def test_three_title_worked_example(self):
        """Middle title scores 0.5 on every component under fit bounds."""
        scored, excluded = score_catalog(make_catalog(), ImportanceConfig())
        assert excluded == 0
        by_id = {s.entity_id: s for s in scored}
        middle = by_id["tt2"]
        assert middle.components.release_year_score == 0.5
        assert middle.components.rank_score == 0.5
        assert middle.components.rating_count_score == 0.5
        assert abs(middle.importance - 0.5) <= 1e-12

    def test_single_title_degenerate_fit(self):
        """lo == hi carries no information, so every component is 1.0."""
        catalog = Catalog(titles=[Title("tt1", "Only", release_year=2000,
                                        rank=1, rating_count=50)])
        scored, _ = score_catalog(catalog, ImportanceConfig())
        assert scored[0].components == ComponentScores(1.0, 1.0, 1.0)
        assert scored[0].importance == pytest.approx(1.0, abs=1e-12)

    def test_exclude_policy_drops_and_tallies(self):
        catalog = Catalog(titles=[
            Title("tt1", "Complete", release_year=2000, rank=1, rating_count=5),
            Title("tt2", "NoCount", release_year=2010, rank=2),
        ])
        config = ImportanceConfig(missing_feature_policy="exclude_title")
        scored, excluded = score_catalog(catalog, config)
        assert [s.entity_id for s in scored] == ["tt1"]
        assert excluded == 1

    def test_default_policy_fills_missing_component(self):
        catalog = Catalog(titles=[
            Title("tt1", "A", release_year=2000, rank=1, rating_count=5),
            Title("tt2", "B", release_year=2010, rank=2, rating_count=50),
            Title("tt3", "NoYear", rank=3, rating_count=20),
        ])
        scored, excluded = score_catalog(catalog, ImportanceConfig())
        assert excluded == 0
        by_id = {s.entity_id: s for s in scored}
        assert by_id["tt3"].components.release_year_score == 0.5

    def test_output_sorted_by_entity_id(self):
        scored, _ = score_catalog(make_catalog(), ImportanceConfig())
        ids = [s.entity_id for s in scored]
        assert ids == sorted(ids)

    def test_empty_catalog_with_fit_bounds_rejected(self):
        with pytest.raises(ConfigError):
            score_catalog(Catalog(titles=[]), ImportanceConfig())

    def test_fixed_bounds_skip_fitting(self):
        bounds = ScoreBounds(min_year=1990, max_year=2020, min_rank=1,
                             max_rank=100, max_rating_count=100)
        catalog = Catalog(titles=[Title("tt1", "A", release_year=2005,
                                        rank=10, rating_count=10)])
        scored, _ = score_catalog(catalog, ImportanceConfig(bounds=bounds))
        assert abs(scored[0].importance - 0.5) <= 1e-12

    def test_zero_rating_count_scores_zero(self):
        """Counts of 0 floor to 1, the bottom of the log scale."""
        catalog = Catalog(titles=[
            Title("tt1", "None", release_year=2000, rank=1, rating_count=0),
            Title("tt2", "Many", release_year=2000, rank=2, rating_count=1000),
        ])
        scored, _ = score_catalog(catalog, ImportanceConfig())
        by_id = {s.entity_id: s for s in scored}
        assert by_id["tt1"].components.rating_count_score == 0.0
        assert by_id["tt2"].components.rating_count_score == 1.0


class TestMonotonicity:
    @given(st.integers(min_value=1950, max_value=2020),
           st.integers(min_value=1950, max_value=2020))
    def test_importance_nondecreasing_in_year(self, y1, y2):
        bounds = ScoreBounds(1950, 2020, 1, 100, 1000)
        config = ImportanceConfig(bounds=bounds)
        lo_year, hi_year = min(y1, y2), max(y1, y2)

        def importance_at(year):
            catalog = Catalog(titles=[Title("tt1", "A", release_year=year,
                                            rank=10, rating_count=10)])
            scored, _ = score_catalog(catalog, config)
            return scored[0].importance

        assert importance_at(lo_year) <= importance_at(hi_year)

    @given(st.integers(min_value=1, max_value=100),
           st.integers(min_value=1, max_value=100))
    def test_importance_nonincreasing_in_rank(self, r1, r2):
        bounds = ScoreBounds(1950, 2020, 1, 100, 1000)
        config = ImportanceConfig(bounds=bounds)
        lo_rank, hi_rank = min(r1, r2), max(r1, r2)

        def importance_at(rank):
            catalog = Catalog(titles=[Title("tt1", "A", release_year=2000,
                                            rank=rank, rating_count=10)])
            scored, _ = score_catalog(catalog, config)
            return scored[0].importance

        assert importance_at(lo_rank) >= importance_at(hi_rank)

    @given(st.integers(min_value=1, max_value=1000),
           st.integers(min_value=1, max_value=1000))
    def test_importance_nondecreasing_in_count(self, c1, c2):
        bounds = ScoreBounds(1950, 2020, 1, 100, 1000)
        config = ImportanceConfig(bounds=bounds)
        lo_count, hi_count = min(c1, c2), max(c1, c2)

        def importance_at(count):
            catalog = Catalog(titles=[Title("tt1", "A", release_year=2000,
                                            rank=10, rating_count=count)])
            scored, _ = score_catalog(catalog, config)
            return scored[0].importance

        assert importance_at(lo_count) <= importance_at(hi_count)


class TestScoredJsonl:
    def test_round_trip(self, tmp_path):
        scored, _ = score_catalog(make_catalog(), ImportanceConfig())
        path = tmp_path / "scored.jsonl"
        write_scored(scored, path)
        assert load_scored(path) == scored

    def test_byte_identical_across_runs(self, tmp_path):
        """Same catalog and config must serialize to the same bytes."""
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_scored(score_catalog(make_catalog(), ImportanceConfig())[0], first)
        write_scored(score_catalog(make_catalog(), ImportanceConfig())[0], second)
        assert first.read_bytes() == second.read_bytes()

    def test_every_emitted_importance_in_range(self):
        scored, _ = score_catalog(make_catalog(), ImportanceConfig())
        for item in scored:
            assert 0.0 <= item.importance <= 1.0
