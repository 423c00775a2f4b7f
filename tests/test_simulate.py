"""Tests for the seeded simulator and its edit-distance matcher."""

import heapq
import math
import random
import sys
from dataclasses import replace
from string import ascii_lowercase

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import binomial_bounds, dp_levenshtein, similarity

from er_evalkit.catalog import Catalog, Title, parse_catalog
from er_evalkit.clickstream import normalize_query
from er_evalkit.errors import ConfigError
from er_evalkit.errors import IngestError
from er_evalkit.metrics import ConfidenceBin, RankedEntity, RunResult, evaluate_run
from er_evalkit.rng import MAX_RADIUS, Polar, SplitMix64, derive_seed
from er_evalkit import simulate
from er_evalkit.simulate import (
    PackedMyers,
    SimConfig,
    gen_catalog,
    gen_clicklog,
    gen_queries,
    levenshtein,
    run_mock_er,
    write_catalog_tsv,
    write_truth_qrels,
)


class TestSimConfig:
    def test_defaults_accepted(self):
        config = SimConfig(seed=42)
        assert config.n_titles == 1000
        assert config.n_queries == 500
        assert config.bin_thresholds == (0.8, 0.5)

    @pytest.mark.parametrize("kwargs", [
        {"n_titles": 0},
        {"n_queries": 0},
        {"n_titles": 5, "n_queries": 6},
        {"typo_rate": -0.1},
        {"typo_rate": 1.5},
        {"score_noise_sigma": -1.0},
        {"bin_thresholds": (0.5, 0.8)},
        {"bin_thresholds": (0.5, 0.5)},
        {"bin_thresholds": (0.0, 0.0)},
        {"bin_thresholds": (1.1, 0.5)},
        {"bin_thresholds": (0.8, -0.1)},
        {"retrieve_m": 0},
        {"click_position_decay": 0.0},
        {"click_position_decay": 1.0001},
        {"n_replays": 0},
        {"score_noise_sigma": float("nan")},
        {"score_noise_sigma": float("inf")},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(seed=1, **kwargs)

    def test_an_empty_catalog_is_named_before_the_query_count(self):
        with pytest.raises(ConfigError) as raised:
            SimConfig(seed=1, n_titles=0)
        assert str(raised.value) == "n_titles must be >= 1, got 0"

    def test_boundary_decay_one_accepted(self):
        assert SimConfig(seed=1, click_position_decay=1.0)

    def test_largest_noise_sigma_keeps_every_score_finite(self):
        """The largest sigma accepted scores finitely, even a draw at the
        top radius; the next float up could overflow one and is refused."""
        sigma = sys.float_info.max / MAX_RADIUS
        assert math.isfinite(sigma * MAX_RADIUS)
        config = SimConfig(seed=1, n_titles=50, n_queries=5,
                           score_noise_sigma=sigma)
        catalog = gen_catalog(config)
        run = run_mock_er(catalog, gen_queries(catalog, config), config)
        assert all(map(math.isfinite, (s for r in run for s in r.scores)))
        top = Polar(0, (2**53 - 1,), sigma)
        assert top.radii([0]) == [sigma * MAX_RADIUS]
        assert math.isfinite(top.draws([0])[0])
        with pytest.raises(ConfigError) as raised:
            SimConfig(seed=1,
                      score_noise_sigma=math.nextafter(sigma, math.inf))
        assert str(raised.value).startswith(
            "score_noise_sigma must keep scores finite")


class TestLevenshtein:
    def test_known_distances(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3
        assert levenshtein("", "") == 0

    def test_matches_dp_oracle_on_random_strings(self):
        rng = random.Random(99)
        alphabet = "abcd"
        for _ in range(300):
            a = "".join(rng.choice(alphabet)
                        for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice(alphabet)
                        for _ in range(rng.randint(0, 12)))
            assert levenshtein(a, b) == dp_levenshtein(a, b)

    def test_long_pattern_exceeding_word_size(self):
        a = "x" * 100
        b = "x" * 90 + "y" * 10
        assert levenshtein(a, b) == dp_levenshtein(a, b) == 10

    def test_similarity_examples(self):
        assert similarity("bridgerton", "bridgetown") == 0.8
        assert similarity("same", "same") == 1.0
        assert similarity("", "") == 1.0
        assert similarity("ab", "") == 0.0

    def test_similarity_bounds(self):
        rng = random.Random(5)
        for _ in range(100):
            a = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
            assert 0.0 <= similarity(a, b) <= 1.0


# Short strings over a small alphabet, with a non-ASCII letter, make equal
# characters (and so every branch of the recurrence) common.
_TEXT = st.text(alphabet="abcé ", max_size=12)


class TestPackedMyers:
    @settings(max_examples=300, deadline=None)
    @given(names=st.lists(st.one_of(_TEXT, st.text(max_size=80)),
                          min_size=1, max_size=40),
           text=_TEXT)
    @example(names=[""], text="")
    @example(names=["", "a", ""], text="")
    @example(names=["abc", ""], text="abc")
    @example(names=["x" * 70 + "y", "x", "y", "x" * 64], text="x" * 65 + "y")
    @example(names=["日本語", "naïve", "ü"], text="naïve")
    @example(names=["only"], text="one")
    def test_every_lane_matches_dp_oracle(self, names, text):
        got = PackedMyers(names).distances(text)
        assert got == [dp_levenshtein(name, text) for name in names]


class TestGenCatalog:
    def test_deterministic(self):
        config = SimConfig(seed=7, n_titles=50, n_queries=10)
        assert gen_catalog(config).titles == gen_catalog(config).titles

    def test_different_seeds_differ(self):
        a = gen_catalog(SimConfig(seed=1, n_titles=20, n_queries=5))
        b = gen_catalog(SimConfig(seed=2, n_titles=20, n_queries=5))
        assert a.titles != b.titles

    def test_ids_and_names_unique(self):
        catalog = gen_catalog(SimConfig(seed=3, n_titles=200, n_queries=10))
        ids = [t.entity_id for t in catalog.titles]
        names = [normalize_query(t.name) for t in catalog.titles]
        assert len(set(ids)) == len(ids) == 200
        assert len(set(names)) == len(names)

    def test_field_ranges(self):
        catalog = gen_catalog(SimConfig(seed=4, n_titles=100, n_queries=10))
        for title in catalog.titles:
            assert 1950 <= title.release_year <= 2024
            assert title.rating_count >= 1
            assert 1.0 <= title.rating <= 10.0

    def test_ranks_are_a_permutation_ordered_by_popularity(self):
        catalog = gen_catalog(SimConfig(seed=5, n_titles=100, n_queries=10))
        assert sorted(t.rank for t in catalog.titles) == list(range(1, 101))
        by_rank = sorted(catalog.titles, key=lambda t: t.rank)
        keys = [(-t.rating_count, t.entity_id) for t in by_rank]
        assert keys == sorted(keys)

    def test_single_title_gets_rank_one(self):
        catalog = gen_catalog(SimConfig(seed=6, n_titles=1, n_queries=1))
        assert catalog.titles[0].rank == 1


class TestGenQueries:
    def test_zero_typo_rate_yields_exact_normalized_names(self):
        config = SimConfig(seed=8, n_titles=60, n_queries=25, typo_rate=0.0)
        catalog = gen_catalog(config)
        names = {title.entity_id: title.name for title in catalog.titles}
        for query, truth_id in gen_queries(catalog, config):
            assert query == normalize_query(names[truth_id])

    def test_truth_ids_distinct(self):
        config = SimConfig(seed=8, n_titles=60, n_queries=25)
        queries = gen_queries(gen_catalog(config), config)
        truths = [truth for _, truth in queries]
        assert len(set(truths)) == len(truths) == 25

    def test_queries_distinct_and_nonempty_even_at_full_typo_rate(self):
        config = SimConfig(seed=9, n_titles=40, n_queries=40, typo_rate=1.0)
        queries = gen_queries(gen_catalog(config), config)
        texts = [q for q, _ in queries]
        assert all(texts)
        assert len(set(texts)) == len(texts) == 40

    def test_the_name_itself_is_the_last_resort(self):
        """Edits of the name "1" spell only "", "11" and the 26 letters, so
        28 such titles take those 27 queries and the name itself, which a
        title gets once 100 edits fail, and a 29th has none left."""
        titles = [Title(f"tt{i}", "1", None, None, None, None)
                  for i in range(1, 30)]
        config = SimConfig(seed=1, n_titles=28, n_queries=28, typo_rate=1.0)
        queries = gen_queries(Catalog(titles[:28]), config)
        assert sorted(query for query, _ in queries) == \
            sorted(["1", "11", *ascii_lowercase])
        with pytest.raises(ConfigError) as raised:
            gen_queries(Catalog(titles),
                        replace(config, n_titles=29, n_queries=29))
        assert str(raised.value) == \
            "cannot produce a distinct query for tt18"

    @pytest.mark.parametrize("typo_rate", [0.0, 0.5, 1.0])
    def test_a_blank_name_is_refused_not_emitted_as_an_empty_query(
            self, typo_rate):
        """A name that normalizes to "" has no edit but "", so the last
        resort is reached, and "" is no query: the title is named."""
        catalog = Catalog([Title("tt1", "   ", None, None, None, None)])
        config = SimConfig(seed=1, n_titles=1, n_queries=1,
                           typo_rate=typo_rate)
        with pytest.raises(ConfigError) as raised:
            gen_queries(catalog, config)
        assert str(raised.value) == "title tt1 has a blank name"

    def test_deterministic(self):
        config = SimConfig(seed=10, n_titles=30, n_queries=15)
        catalog = gen_catalog(config)
        assert gen_queries(catalog, config) == gen_queries(catalog, config)

    def test_typos_change_some_queries(self):
        config = SimConfig(seed=11, n_titles=80, n_queries=40, typo_rate=0.2)
        catalog = gen_catalog(config)
        names = {normalize_query(t.name) for t in catalog.titles}
        queries = gen_queries(catalog, config)
        assert any(q not in names for q, _ in queries)


def exhaustive_columns(catalog, queries, config):
    """The matcher's reference form: every title's full noise draw and
    score, then the retrieve_m smallest (-score, entity_id) pairs."""
    rng = SplitMix64(derive_seed(config.seed, "matcher"))
    sigma, titles = config.score_noise_sigma, catalog.titles
    out = []
    for query, _ in queries:
        noise = (rng.normals(len(titles), 0.0, sigma) if sigma > 0.0
                 else [0.0] * len(titles))
        top = heapq.nsmallest(config.retrieve_m, (
            (-(similarity(query, normalize_query(title.name)) + e),
             title.entity_id) for title, e in zip(titles, noise)))
        out.append(([entity_id for _, entity_id in top],
                    [(-key).hex() for key, _ in top]))
    return out


@st.composite
def matcher_cases(draw):
    """Small configs over the noise scales and list lengths the matcher
    prunes differently. Half use a catalog of equal-length names over two
    letters, with ids out of title order, so scores tie often."""
    n_titles = draw(st.integers(1, 40))
    config = SimConfig(
        seed=draw(st.integers(0, 2**64 - 1)), n_titles=n_titles,
        n_queries=draw(st.integers(1, min(n_titles, 6))),
        typo_rate=draw(st.sampled_from([0.0, 0.02, 0.5])),
        score_noise_sigma=draw(st.sampled_from([0.0, 1e-300, 1e-12, 0.05,
                                                3.0])),
        retrieve_m=draw(st.integers(1, n_titles + 3)))
    if draw(st.booleans()):
        catalog = gen_catalog(config)
        return catalog, gen_queries(catalog, config), config
    names = draw(st.lists(st.text("ab", min_size=3, max_size=3),
                          min_size=n_titles, max_size=n_titles))
    ids = draw(st.permutations([f"tt{i:07d}" for i in range(n_titles)]))
    texts = draw(st.lists(st.text("ab", max_size=4),
                          min_size=config.n_queries,
                          max_size=config.n_queries))
    catalog = Catalog(titles=[Title(entity_id=entity_id, name=name)
                              for entity_id, name in zip(ids, names)])
    return catalog, [(text, ids[0]) for text in texts], config


class TestRunMockEr:
    def test_zero_noise_puts_truth_first_in_high_bin(self):
        config = SimConfig(seed=12, n_titles=50, n_queries=20,
                           typo_rate=0.0, score_noise_sigma=0.0)
        catalog = gen_catalog(config)
        queries = gen_queries(catalog, config)
        for (query, truth_id), result in zip(queries,
                                             run_mock_er(catalog, queries,
                                                         config)):
            assert result.query == query
            top = result.ranked[0]
            assert top.entity_id == truth_id
            assert top.score == 1.0
            assert top.bin is ConfidenceBin.HIGH

    def test_result_length_capped_at_retrieve_m(self):
        config = SimConfig(seed=13, n_titles=50, n_queries=5, retrieve_m=7)
        catalog = gen_catalog(config)
        queries = gen_queries(catalog, config)
        for result in run_mock_er(catalog, queries, config):
            assert len(result.ranked) == 7

    def test_small_catalog_returns_everything(self):
        config = SimConfig(seed=13, n_titles=3, n_queries=2, retrieve_m=10)
        catalog = gen_catalog(config)
        queries = gen_queries(catalog, config)
        for result in run_mock_er(catalog, queries, config):
            assert len(result.ranked) == 3

    def test_score_ties_break_by_entity_id(self):
        catalog = Catalog(titles=[Title(entity_id="tt2", name="Same Words"),
                                  Title(entity_id="tt1", name="Same Words")])
        config = SimConfig(seed=14, n_titles=2, n_queries=1,
                           typo_rate=0.0, score_noise_sigma=0.0)
        results = run_mock_er(catalog, [("same words", "tt1")], config)
        assert [r.entity_id for r in results[0].ranked] == ["tt1", "tt2"]

    def test_empty_catalog_gives_empty_lists(self):
        config = SimConfig(seed=14, n_titles=1, n_queries=1)
        results = run_mock_er(Catalog(titles=[]), [("abc", "tt1"), ("d", "tt2")],
                              config)
        assert results == [RunResult(query="abc", ranked=()),
                           RunResult(query="d", ranked=())]

    def test_empty_query_and_empty_name_score_one(self):
        catalog = Catalog(titles=[Title(entity_id="tt1", name=""),
                                  Title(entity_id="tt2", name="ab")])
        config = SimConfig(seed=14, n_titles=2, n_queries=1,
                           score_noise_sigma=0.0)
        ranked = run_mock_er(catalog, [("", "tt1")], config)[0].ranked
        assert [(r.entity_id, r.score) for r in ranked] == \
            [("tt1", 1.0), ("tt2", 0.0)]

    def test_scores_are_similarity_plus_noise_in_title_order(self):
        """Each title's score is its similarity plus the matcher stream's
        next normal draw, drawn in catalog order."""
        config = SimConfig(seed=17, n_titles=30, n_queries=4,
                           retrieve_m=30, score_noise_sigma=0.2)
        catalog = gen_catalog(config)
        queries = gen_queries(catalog, config)
        rng = SplitMix64(derive_seed(config.seed, "matcher"))
        for (query, _), result in zip(queries,
                                      run_mock_er(catalog, queries, config)):
            want = {t.entity_id: similarity(query, normalize_query(t.name))
                    + rng.gauss(0.0, config.score_noise_sigma)
                    for t in catalog.titles}
            assert {r.entity_id: r.score for r in result.ranked} == want

    def test_degenerate_thresholds_make_bins_vacuous_for_recall(self):
        """With t_high near zero every retrieved entity bins high, so
        high-conditioned recall collapses to plain recall."""
        config = SimConfig(seed=15, n_titles=60, n_queries=30,
                           typo_rate=0.1, score_noise_sigma=0.0,
                           bin_thresholds=(1e-9, 0.0))
        catalog = gen_catalog(config)
        queries = gen_queries(catalog, config)
        run = run_mock_er(catalog, queries, config)
        qrels = {query: {truth} for query, truth in queries}
        report = evaluate_run(qrels, run, k=5)
        assert (report.aggregates["recall@5@high"]
                == report.aggregates["recall@5"])

    @settings(max_examples=200, deadline=None)
    @given(case=matcher_cases())
    def test_equals_the_exhaustive_matcher(self, case):
        """The same ids and score bits as scoring every title, and the
        matcher stream moved past 2·n_titles uniforms per noisy query."""
        catalog, queries, config = case
        streams = []

        class Recording(SplitMix64):
            def __init__(self, seed):
                super().__init__(seed)
                streams.append(self)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "SplitMix64", Recording)
            run = run_mock_er(catalog, queries, config)
        assert [(list(result.ids), [score.hex() for score in result.scores])
                for result in run] == exhaustive_columns(catalog, queries,
                                                         config)
        advanced = SplitMix64(derive_seed(config.seed, "matcher"))
        if config.score_noise_sigma > 0.0:
            advanced.uniforms(2 * len(catalog.titles) * len(queries))
        (stream,) = streams
        assert stream.next_u64() == advanced.next_u64()

    def test_noise_draws_do_not_perturb_other_streams(self):
        base = dict(seed=16, n_titles=30, n_queries=10, typo_rate=0.0)
        noisy = SimConfig(score_noise_sigma=0.3, **base)
        clean = SimConfig(score_noise_sigma=0.0, **base)
        assert gen_catalog(noisy).titles == gen_catalog(clean).titles
        catalog = gen_catalog(clean)
        assert gen_queries(catalog, noisy) == gen_queries(catalog, clean)


def one_query_run(truth_position, list_len=5):
    """A single RunResult with the truth at a given 1-based position."""
    specs = [(f"x{i}", 0.9 - 0.1 * i) for i in range(list_len)]
    if truth_position is not None:
        specs[truth_position - 1] = ("T", 0.9 - 0.1 * (truth_position - 1))
    ranked = tuple(RankedEntity(entity_id=eid, score=score,
                                bin=ConfidenceBin.HIGH)
                   for eid, score in specs)
    return [RunResult(query="q", ranked=ranked)]


class TestGenClicklog:
    def test_replay_count(self):
        config = SimConfig(seed=20, n_titles=10, n_queries=1, n_replays=50)
        events = list(gen_clicklog(one_query_run(1), {"q": "T"}, config))
        assert len(events) == 50

    def test_decay_one_always_clicks_truth(self):
        config = SimConfig(seed=21, n_titles=10, n_queries=1,
                           click_position_decay=1.0, n_replays=100)
        events = list(gen_clicklog(one_query_run(4), {"q": "T"}, config))
        assert all(e.clicked == "T" for e in events)

    def test_truth_absent_never_clicks(self):
        config = SimConfig(seed=22, n_titles=10, n_queries=1, n_replays=100)
        events = list(gen_clicklog(one_query_run(None), {"q": "T"}, config))
        assert all(e.clicked is None for e in events)

    def test_unknown_query_never_clicks(self):
        config = SimConfig(seed=23, n_titles=10, n_queries=1, n_replays=100)
        events = list(gen_clicklog(one_query_run(1), {}, config))
        assert all(e.clicked is None for e in events)

    def test_position_two_click_rate_matches_decay(self):
        """At decay 0.5 and position 2 the click probability is 0.5; the
        empirical rate over 1000 replays must sit inside a 99% binomial
        interval."""
        config = SimConfig(seed=24, n_titles=10, n_queries=1,
                           click_position_decay=0.5, n_replays=1000)
        events = list(gen_clicklog(one_query_run(2), {"q": "T"}, config))
        rate = sum(e.clicked == "T" for e in events) / len(events)
        lo, hi = binomial_bounds(0.5, 1000)
        assert lo <= rate <= hi

    def test_impressions_mirror_the_ranking(self):
        config = SimConfig(seed=25, n_titles=10, n_queries=1, n_replays=3)
        run = one_query_run(1)
        expected = tuple(item.entity_id for item in run[0].ranked)
        for event in gen_clicklog(run, {"q": "T"}, config):
            assert event.impressions == expected

    def test_deterministic(self):
        config = SimConfig(seed=26, n_titles=10, n_queries=1, n_replays=200)
        first = list(gen_clicklog(one_query_run(3), {"q": "T"}, config))
        second = list(gen_clicklog(one_query_run(3), {"q": "T"}, config))
        assert first == second


class TestFixtureFiles:
    def test_tsv_round_trip_through_parser(self, tmp_path):
        config = SimConfig(seed=30, n_titles=40, n_queries=10)
        catalog = gen_catalog(config)
        basics, ratings, ranks = write_catalog_tsv(catalog, tmp_path)
        parsed = parse_catalog(basics, ratings, ranks, strict=True)
        assert len(parsed) == 40
        titles = {title.entity_id: title for title in parsed.titles}
        for title in catalog.titles:
            assert titles[title.entity_id] == title

    def test_tsv_bytes_deterministic(self, tmp_path):
        config = SimConfig(seed=31, n_titles=25, n_queries=5)
        first = write_catalog_tsv(gen_catalog(config), tmp_path / "a")
        second = write_catalog_tsv(gen_catalog(config), tmp_path / "b")
        for path_a, path_b in zip(first, second):
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_error_partway_leaves_old_tsv_intact(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("boom")

        config = SimConfig(seed=33, n_titles=10, n_queries=2)
        catalog = gen_catalog(config)
        paths = write_catalog_tsv(catalog, tmp_path)
        before = [path.read_bytes() for path in paths]
        titles = list(catalog.titles)
        titles[5] = replace(titles[5], rating=Unprintable())
        with pytest.raises(RuntimeError, match="boom"):
            write_catalog_tsv(Catalog(titles=titles), tmp_path)
        # basics.tsv was rewritten whole (same bytes); ratings.tsv failed
        # partway and still holds the old file; ranks.tsv was not reached.
        assert [path.read_bytes() for path in paths] == before
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["basics.tsv", "ranks.tsv", "ratings.tsv"]

    def test_unwritable_tsv_is_an_ingest_error(self, tmp_path):
        config = SimConfig(seed=33, n_titles=3, n_queries=1)
        (tmp_path / "ratings.tsv").mkdir()
        with pytest.raises(IngestError, match="ratings.tsv"):
            write_catalog_tsv(gen_catalog(config), tmp_path)

    def test_truth_qrels_sorted_and_loadable(self, tmp_path):
        config = SimConfig(seed=32, n_titles=30, n_queries=12, typo_rate=0.1)
        catalog = gen_catalog(config)
        queries = gen_queries(catalog, config)
        path = tmp_path / "truth_qrels.jsonl"
        assert write_truth_qrels(queries, path) == 12
        from er_evalkit.relevance import load_qrels
        relset = load_qrels(path)
        assert relset.entries == {q: {t} for q, t in queries}
        assert list(relset.entries) == sorted(relset.entries)
