"""Tests for plain and bin-conditioned precision/recall."""

import itertools
import json
import logging
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from er_evalkit import metrics
from er_evalkit.errors import IngestError
from er_evalkit.jsonl import dumps
from er_evalkit.metrics import (
    BINS,
    ROWS_PER_PIECE,
    RUN_FIELDS,
    RUN_ITEM_FIELDS,
    ConfidenceBin,
    MetricsReport,
    RankedEntity,
    RunResult,
    aggregate,
    evaluate_run,
    load_run,
    metric_names,
    save_run,
    scan_query,
)

from oracle import (
    OracleItem,
    brute_classify,
    brute_precision_at_k,
    brute_precision_at_k_bin,
    brute_recall_at_k,
    brute_recall_at_k_bin,
    random_instance,
)

HIGH = ConfidenceBin.HIGH
MEDIUM = ConfidenceBin.MEDIUM
LOW = ConfidenceBin.LOW


def ranked_list(*specs):
    """Build a ranked tuple from (entity_id, bin) pairs, scores descending."""
    return tuple(
        RankedEntity(entity_id=eid, score=1.0 - i * 0.1, bin=bin)
        for i, (eid, bin) in enumerate(specs)
    )


# the five-result fixture used throughout: relevant {A, B}
FIXTURE = ranked_list(("A", HIGH), ("C", HIGH), ("D", MEDIUM),
                      ("E", MEDIUM), ("F", LOW))
RELEVANT = {"A", "B"}


def row(relevant, ranked, k):
    """evaluate_run's per-query row for one query answered by ``ranked``."""
    run = [RunResult("q", ranked)]
    return evaluate_run({"q": relevant}, run, k=k).per_query["q"]


class TestConfidenceBin:
    def test_exactly_three_values(self):
        assert len(ConfidenceBin) == 3
        assert [b.value for b in BINS] == ["high", "medium", "low"]

    def test_parse_from_string(self):
        assert ConfidenceBin("medium") is MEDIUM


class TestRecallAtK:
    def test_worked_example(self):
        assert row(RELEVANT, FIXTURE, 5)["recall@5"] == 0.5

    def test_full_coverage(self):
        assert row({"A"}, FIXTURE, 5)["recall@5"] == 1.0

    def test_empty_relevant_undefined(self):
        assert row(set(), FIXTURE, 5)["recall@5"] is None

    def test_nondecreasing_in_k(self):
        values = [row(RELEVANT, FIXTURE, k)[f"recall@{k}"]
                  for k in range(1, 8)]
        assert values == sorted(values)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            row(RELEVANT, FIXTURE, 0)


class TestPrecisionAtK:
    def test_worked_example(self):
        assert row(RELEVANT, FIXTURE, 5)["precision@5"] == 0.2

    def test_empty_ranked_undefined(self):
        assert row(RELEVANT, (), 5)["precision@5"] is None

    def test_denominator_is_min_of_k_and_length(self):
        short = ranked_list(("A", HIGH))
        assert row({"A"}, short, 5)["precision@5"] == 1.0


class TestBinConditionedMetrics:
    def test_recall_high_bin(self):
        assert row(RELEVANT, FIXTURE, 5)["recall@5@high"] == 0.5

    def test_recall_medium_bin_empty_intersection(self):
        assert row(RELEVANT, FIXTURE, 5)["recall@5@medium"] == 0.0

    def test_sole_relevant_in_low_bin(self):
        ranked = ranked_list(("A", LOW))
        assert row({"A"}, ranked, 5)["recall@5@low"] == 1.0

    def test_precision_high_bin(self):
        assert row(RELEVANT, FIXTURE, 5)["precision@5@high"] == 0.5

    def test_precision_low_bin(self):
        assert row(RELEVANT, FIXTURE, 5)["precision@5@low"] == 0.0

    def test_precision_undefined_when_bin_absent_from_topk(self):
        ranked = ranked_list(("A", HIGH), ("B", LOW))
        assert row(RELEVANT, ranked, 5)["precision@5@medium"] is None

    def test_bin_beyond_k_does_not_count(self):
        ranked = ranked_list(("C", HIGH), ("D", HIGH), ("A", HIGH))
        assert row({"A"}, ranked, 2)["recall@2@high"] == 0.0


class TestBinPartitionIdentities:
    def test_recall_sums_to_unconditioned(self):
        values = row(RELEVANT, FIXTURE, 5)
        total = sum(values[f"recall@5@{bin.value}"] for bin in BINS)
        assert abs(total - values["recall@5"]) <= 1e-12

    def test_precision_weighted_by_bin_size(self):
        values = row(RELEVANT, FIXTURE, 5)
        lhs = 0.0
        for bin in BINS:
            in_bin = [i for i in FIXTURE[:5] if i.bin is bin]
            value = values[f"precision@5@{bin.value}"]
            if value is not None:
                lhs += value * len(in_bin)
        rhs = values["precision@5"] * len(FIXTURE[:5])
        assert abs(lhs - rhs) <= 1e-12


class TestOracleSpotCheck:
    def test_thousand_random_instances_match_brute_force(self):
        """Library metrics must agree exactly with loop-based enumeration."""
        rng = random.Random(20240817)
        for _ in range(1000):
            inst = random_instance(rng)
            k = inst.k
            ranked = tuple(RankedEntity(entity_id=i.entity_id, score=0.0,
                                        bin=ConfidenceBin(i.bin))
                           for i in inst.ranked)
            values = row(set(inst.relevant), ranked, k)
            pairs = [
                (values[f"recall@{k}"],
                 brute_recall_at_k(inst.relevant, inst.ranked, k)),
                (values[f"precision@{k}"],
                 brute_precision_at_k(inst.relevant, inst.ranked, k)),
            ]
            for bin in BINS:
                pairs.append((
                    values[f"recall@{k}@{bin.value}"],
                    brute_recall_at_k_bin(inst.relevant, inst.ranked,
                                          k, bin.value)))
                pairs.append((
                    values[f"precision@{k}@{bin.value}"],
                    brute_precision_at_k_bin(inst.relevant, inst.ranked,
                                             k, bin.value)))
            for got, expected in pairs:
                if expected is None:
                    assert got is None
                else:
                    assert got == expected.numerator / expected.denominator


class TestAggregate:
    def test_micro_macro_worked_example(self):
        fractions = [(1, 1), (0, 3)]
        assert aggregate(fractions, "macro") == 0.5
        assert aggregate(fractions, "micro") == 0.25

    def test_single_query_micro_equals_macro(self):
        fractions = [(2, 5)]
        assert aggregate(fractions, "micro") == aggregate(fractions, "macro")

    def test_all_undefined(self):
        assert aggregate([None, None], "micro") is None
        assert aggregate([], "macro") is None

    def test_undefined_entries_excluded(self):
        fractions = [(1, 2), None]
        assert aggregate(fractions, "macro") == 0.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            aggregate([(1, 2)], "median")


class TestRunResult:
    def test_duplicate_entity_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RunResult(query="q", ranked=ranked_list(("A", HIGH), ("A", LOW)))

    def test_nonmonotone_scores_warn_not_error(self, caplog):
        ranked = (RankedEntity("A", 0.5, HIGH), RankedEntity("B", 0.9, LOW))
        with caplog.at_level(logging.WARNING):
            RunResult(query="q", ranked=ranked)
        assert any("score increases" in r.message for r in caplog.records)


class TestEvaluateRun:
    def qrels(self):
        return {"q1": {"A", "B"}, "q2": {"X"}}

    def test_perfect_single_query(self):
        run = [RunResult(query="q", ranked=ranked_list(("A", HIGH)))]
        report = evaluate_run({"q": {"A"}}, run, k=5)
        for name in ("precision@5", "recall@5", "precision@5@high",
                     "recall@5@high", "precision@1@high"):
            assert report.aggregates[name]["micro"] == 1.0
            assert report.aggregates[name]["macro"] == 1.0

    def test_worked_example_report(self):
        run = [RunResult(query="q1", ranked=FIXTURE)]
        report = evaluate_run({"q1": RELEVANT}, run, k=5)
        per = report.per_query["q1"]
        assert per["recall@5"] == 0.5
        assert per["precision@5"] == 0.2
        assert per["recall@5@high"] == 0.5
        assert per["precision@5@high"] == 0.5

    def test_missing_query_contributes_zero_recall(self):
        run = [RunResult(query="q1", ranked=ranked_list(("A", HIGH)))]
        report = evaluate_run(self.qrels(), run, k=5)
        assert report.counts["evaluated"] == 1
        assert report.counts["skipped"] == 1
        assert report.per_query["q2"]["recall@5"] == 0.0
        assert report.per_query["q2"]["precision@5"] is None
        # q1 recall 0.5 over 2 relevant, q2 recall 0 over 1 relevant
        assert report.aggregates["recall@5"]["macro"] == 0.25
        assert report.aggregates["recall@5"]["micro"] == pytest.approx(1 / 3)

    def test_run_only_queries_ignored_and_counted(self):
        run = [
            RunResult(query="q1", ranked=ranked_list(("A", HIGH))),
            RunResult(query="q2", ranked=ranked_list(("X", HIGH))),
            RunResult(query="stray", ranked=ranked_list(("Z", LOW))),
        ]
        report = evaluate_run(self.qrels(), run, k=5)
        assert report.counts["ignored_run_queries"] == 1
        assert "stray" not in report.per_query

    def test_duplicate_run_query_named_in_error(self):
        run = [
            RunResult(query="q1", ranked=ranked_list(("A", HIGH))),
            RunResult(query="q1", ranked=ranked_list(("B", HIGH))),
        ]
        with pytest.raises(ValueError, match="q1"):
            evaluate_run(self.qrels(), run, k=5)

    def test_report_covers_all_metric_columns(self):
        run = [RunResult(query="q1", ranked=FIXTURE)]
        report = evaluate_run({"q1": RELEVANT}, run, k=5)
        expected = {
            "precision@5", "recall@5",
            "precision@5@high", "recall@5@high",
            "precision@5@medium", "recall@5@medium",
            "precision@5@low", "recall@5@low",
            "precision@1@high",
        }
        assert set(report.aggregates) == expected

    def test_k_equal_one_deduplicates_columns(self):
        assert metric_names(1).count("precision@1@high") == 1

    def test_defined_values_in_unit_interval(self):
        run = [RunResult(query="q1", ranked=FIXTURE)]
        report = evaluate_run({"q1": RELEVANT}, run, k=3)
        for modes in report.aggregates.values():
            for value in modes.values():
                if value is not None:
                    assert 0.0 <= value <= 1.0


class TestReportSerialization:
    def make_report(self):
        run = [RunResult(query="q1", ranked=FIXTURE)]
        return evaluate_run({"q1": RELEVANT}, run, k=5)

    def test_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        report.save(path)
        loaded = MetricsReport.load(path)
        assert loaded.to_dict() == report.to_dict()

    def test_to_dict_passes_rows_through(self):
        report = evaluate_run({"q1": RELEVANT, "q0": {"Z"}},
                              [RunResult(query="q1", ranked=FIXTURE)], k=5)
        data = report.to_dict()
        assert list(data["per_query"]) == ["q0", "q1"]
        for query, row in data["per_query"].items():
            assert row is report.per_query[query]
        assert data["aggregates"] is report.aggregates

    def test_extra_row_key_saves_canonical_bytes(self, tmp_path):
        report = self.make_report()
        canonical = tmp_path / "canonical.json"
        report.save(canonical)
        data = json.loads(canonical.read_text(encoding="utf-8"))
        data["per_query"]["q1"] = {"extra": 1.0, **data["per_query"]["q1"]}
        data["aggregates"]["recall@5"]["extra"] = 0.5
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps(data), encoding="utf-8")
        resaved = tmp_path / "resaved.json"
        MetricsReport.load(extra).save(resaved)
        assert resaved.read_bytes() == canonical.read_bytes()

    def test_canonical_key_order(self, tmp_path):
        """Two saves of the same evaluation must be byte-identical."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.make_report().save(a)
        self.make_report().save(b)
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text(encoding="utf-8"))
        assert list(data) == ["k", "bins", "counts", "aggregates", "per_query"]

    @pytest.mark.parametrize("n", sorted({
        0, 1, ROWS_PER_PIECE - 1, ROWS_PER_PIECE, ROWS_PER_PIECE + 1,
        2 * ROWS_PER_PIECE + 1}))
    def test_json_pieces_join_to_dumps(self, tmp_path, n):
        """The pieces join to ``dumps(to_dict())`` at every slice boundary,
        for queries that JSON escapes or leaves as non-ASCII text."""
        rng = random.Random(n)
        names = metric_names(5)
        spellings = ['say "hi"', "back\\slash", "naïve café", "東京",
                     "tab\there", "emoji 🎬", "plain"]
        per_query = {}
        for i in rng.sample(range(n), n):
            per_query[f"{spellings[i % len(spellings)]} {i}"] = {
                name: rng.choice([None, 0.0, 1.0, 1 / 3, rng.random()])
                for name in names}
        report = replace(self.make_report(), per_query=per_query)
        pieces = list(report.json_pieces())
        assert "".join(pieces) == dumps(report.to_dict())
        assert len(pieces) == 2 + -(-n // ROWS_PER_PIECE)
        path = tmp_path / "report.json"
        report.save(path)
        assert path.read_text(encoding="utf-8") == \
            dumps(report.to_dict()) + "\n"

    def test_rows_share_one_float_per_fraction(self):
        report = evaluate_run({f"q{i}": RELEVANT for i in range(4)},
                              [RunResult(query=f"q{i}", ranked=FIXTURE)
                               for i in range(4)], k=5)
        rows = [report.per_query[f"q{i}"] for i in range(4)]
        for name, value in rows[0].items():
            assert all(row[name] is value for row in rows[1:])

    def test_render_table_lists_every_metric(self):
        table = self.make_report().render_table()
        for name in metric_names(5):
            assert name in table


# Each bad result entry and the exact error it raises after the file and
# line prefix.
BAD_ENTRIES = {
    '{"entity_id":"A","score":"NaN","bin":"high"}':
        "score must be int or float, got 'NaN'",
    '{"entity_id":"A","score":NaN,"bin":"high"}':
        "score must be finite, got nan",
    '{"entity_id":"A","score":Infinity,"bin":"high"}':
        "score must be finite, got inf",
    '{"entity_id":"A","score":true,"bin":"high"}':
        "score must be int or float, got True",
    '{"entity_id":["a"],"score":1.0,"bin":"high"}':
        "entity_id must be str, got ['a']",
    '{"entity_id":7,"score":1.0,"bin":"high"}':
        "entity_id must be str, got 7",
    '{"entity_id":"A","score":1.0,"bin":["high"]}':
        "unhashable type: 'list'",
    '"A"': "string indices must be integers, not 'str'",
}


def write_results(tmp_path, entries):
    """A one-line run file for query q holding the given result entries."""
    path = tmp_path / "run.jsonl"
    path.write_text('{"query":"q","results":[' + entries + ']}\n',
                    encoding="utf-8")
    return path


class TestRunFiles:
    def test_round_trip(self, tmp_path):
        run = [
            RunResult(query="q1", ranked=FIXTURE),
            RunResult(query="q2", ranked=ranked_list(("X", LOW))),
        ]
        path = tmp_path / "run.jsonl"
        save_run(run, path)
        assert load_run(path) == run

    def test_duplicate_query_in_file_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        line = ('{"query":"q","results":'
                '[{"entity_id":"A","score":1.0,"bin":"high"}]}')
        path.write_text(line + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match="duplicate query"):
            load_run(path)

    def test_unknown_bin_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"query":"q","results":'
                        '[{"entity_id":"A","score":1.0,"bin":"huge"}]}\n',
                        encoding="utf-8")
        with pytest.raises(IngestError):
            load_run(path)

    @pytest.mark.parametrize("entry", list(BAD_ENTRIES))
    def test_bad_entry_is_an_ingest_error(self, tmp_path, entry):
        with pytest.raises(IngestError) as caught:
            load_run(write_results(tmp_path, entry))
        assert str(caught.value) == \
            f"{tmp_path / 'run.jsonl'}:1: bad run record: {BAD_ENTRIES[entry]}"

    @pytest.mark.parametrize("entries,message", [
        ('{"entity_id":"A","score":1.0}', "'bin'"),
        ('{"score":1.0,"bin":"high"}', "'entity_id'"),
        ('{"entity_id":"A","score":1.0,"bin":"huge"}', "'huge'"),
        ('{"entity_id":"A","score":2,"bin":"high"},"A"',
         "string indices must be integers, not 'str'"),
        ('{"entity_id":"A","score":1.0,"bin":"high"},'
         '{"entity_id":"A","score":0.5,"bin":"low"}',
         "query 'q': duplicate entity_id 'A' in ranked list"),
        ('{"entity_id":"A","score":0.5,"bin":"high"},'
         '{"entity_id":"A","score":true,"bin":"low"}',
         "score must be int or float, got True"),
    ])
    def test_first_bad_item_is_named(self, tmp_path, entries, message):
        with pytest.raises(IngestError) as caught:
            load_run(write_results(tmp_path, entries))
        assert str(caught.value) == \
            f"{tmp_path / 'run.jsonl'}:1: bad run record: {message}"

    @pytest.mark.parametrize("scores", [
        [10 ** 400], [10 ** 400, -10 ** 400], [0.5, -10 ** 400],
    ])
    def test_huge_integer_score_is_an_ingest_error(self, tmp_path, scores):
        entries = ",".join(
            f'{{"entity_id":"e{i}","score":{score},"bin":"high"}}'
            for i, score in enumerate(scores))
        with pytest.raises(IngestError) as caught:
            load_run(write_results(tmp_path, entries))
        huge = next(score for score in scores if abs(score) > 1e308)
        assert str(caught.value) == (
            f"{tmp_path / 'run.jsonl'}:1: bad run record: score must be "
            f"finite, got {huge}")

    def test_large_finite_scores_load(self, tmp_path):
        path = write_results(
            tmp_path, '{"entity_id":"A","score":1e308,"bin":"high"},'
            '{"entity_id":"B","score":1e308,"bin":"low"}')
        [result] = load_run(path)
        assert result.scores == (1e308, 1e308)

    def test_only_a_bad_list_is_walked_item_by_item(self, tmp_path,
                                                    monkeypatch):
        """A clean list, int and float scores mixed, loads by its columns
        with no per-item fields call; a list with a bad item is walked."""
        tables = []
        real = metrics.fields
        monkeypatch.setattr(metrics, "fields", lambda rec, table: (
            tables.append(table), real(rec, table))[1])
        load_run(write_results(
            tmp_path, '{"entity_id":"A","score":2,"bin":"high"},'
            '{"entity_id":"B","score":0.5,"bin":"low"}'))
        assert tables == [RUN_FIELDS]
        tables.clear()
        with pytest.raises(IngestError):
            load_run(write_results(
                tmp_path, '{"entity_id":"A","score":true,"bin":"high"}'))
        assert tables == [RUN_FIELDS, RUN_ITEM_FIELDS]

    def test_integer_score_loads_as_float(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"query":"q","results":'
                        '[{"entity_id":"A","score":1,"bin":"high"}]}\n',
                        encoding="utf-8")
        [result] = load_run(path)
        assert result.ranked[0].score == 1.0
        assert isinstance(result.ranked[0].score, float)


# A run of up to six queries over twelve ids; scores may rise down a list.
ids_strategy = st.sampled_from([f"e{i}" for i in range(12)])
row_strategy = st.tuples(
    ids_strategy,
    st.one_of(st.integers(-1000, 1000),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.sampled_from(BINS))
ranked_strategy = st.lists(row_strategy, max_size=10,
                           unique_by=lambda row: row[0]).map(
    lambda rows: tuple(RankedEntity(*row) for row in rows))
run_strategy = st.lists(st.tuples(st.text(max_size=4), ranked_strategy),
                        max_size=6, unique_by=lambda pair: pair[0]).map(
    lambda pairs: [RunResult(query, ranked) for query, ranked in pairs])


class TestColumnarLayout:
    """The columns load back equal and scan like the rows they came from.

    Each example writes a fresh file name: on some file systems, writing
    again to a name just replaced by a rename is slow.
    """

    names = itertools.count()

    def path(self, tmp_path):
        return tmp_path / f"run{next(self.names)}.jsonl"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(run=run_strategy)
    def test_save_load_round_trip(self, tmp_path, run):
        path = self.path(tmp_path)
        save_run(run, path)
        loaded = load_run(path)
        assert loaded == run
        assert [result.ranked for result in loaded] == \
            [result.ranked for result in run]
        assert all(type(score) is float
                   for result in loaded for score in result.scores)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ranked=ranked_strategy,
           relevant=st.sets(ids_strategy, min_size=1, max_size=4),
           k=st.integers(1, 12))
    def test_scan_of_loaded_columns_matches_oracle(self, tmp_path, ranked,
                                                   relevant, k):
        path = self.path(tmp_path)
        save_run([RunResult("q", ranked)], path)
        [loaded] = load_run(path)
        scan = scan_query(relevant, loaded, k)
        rows = tuple(OracleItem(item.entity_id, item.bin.value)
                     for item in ranked)

        def fraction(num, den):
            return Fraction(num, den) if den else None

        assert fraction(sum(scan.topk_hits), scan.n_relevant) == \
            brute_recall_at_k(relevant, rows, k)
        assert fraction(sum(scan.topk_hits), sum(scan.topk_counts)) == \
            brute_precision_at_k(relevant, rows, k)
        for bin, hits, shown in zip(BINS, scan.topk_hits, scan.topk_counts):
            assert fraction(hits, scan.n_relevant) == \
                brute_recall_at_k_bin(relevant, rows, k, bin.value)
            assert fraction(hits, shown) == \
                brute_precision_at_k_bin(relevant, rows, k, bin.value)
        _, best_rank, best_bin = brute_classify(relevant, rows, k, "high")
        assert (scan.best_rank, scan.best_bin) == \
            (best_rank, best_bin and ConfidenceBin(best_bin))
        assert scan.first_bin == (ranked[0].bin if ranked else None)
