"""Tests for plain and bin-conditioned precision/recall."""

import json
import logging
import random

import pytest

from er_evalkit.errors import IngestError
from er_evalkit.metrics import (
    BINS,
    ConfidenceBin,
    MetricsReport,
    RankedEntity,
    RunResult,
    aggregate,
    evaluate_run,
    load_run,
    metric_names,
    precision_at_k,
    precision_at_k_bin,
    recall_at_k,
    recall_at_k_bin,
    save_run,
)

from oracle import (
    OracleItem,
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


class TestConfidenceBin:
    def test_total_order(self):
        assert HIGH > MEDIUM > LOW
        assert LOW < HIGH

    def test_exactly_three_values(self):
        assert len(ConfidenceBin) == 3
        assert [b.value for b in BINS] == ["high", "medium", "low"]

    def test_parse_from_string(self):
        assert ConfidenceBin("medium") is MEDIUM


class TestRecallAtK:
    def test_worked_example(self):
        assert recall_at_k(RELEVANT, FIXTURE, 5) == 0.5

    def test_full_coverage(self):
        assert recall_at_k({"A"}, FIXTURE, 5) == 1.0

    def test_empty_relevant_undefined(self):
        assert recall_at_k(set(), FIXTURE, 5) is None

    def test_nondecreasing_in_k(self):
        values = [recall_at_k(RELEVANT, FIXTURE, k) for k in range(1, 8)]
        assert values == sorted(values)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            recall_at_k(RELEVANT, FIXTURE, 0)


class TestPrecisionAtK:
    def test_worked_example(self):
        assert precision_at_k(RELEVANT, FIXTURE, 5) == 0.2

    def test_empty_ranked_undefined(self):
        assert precision_at_k(RELEVANT, (), 5) is None

    def test_denominator_is_min_of_k_and_length(self):
        short = ranked_list(("A", HIGH))
        assert precision_at_k({"A"}, short, 5) == 1.0


class TestBinConditionedMetrics:
    def test_recall_high_bin(self):
        assert recall_at_k_bin(RELEVANT, FIXTURE, 5, HIGH) == 0.5

    def test_recall_medium_bin_empty_intersection(self):
        assert recall_at_k_bin(RELEVANT, FIXTURE, 5, MEDIUM) == 0.0

    def test_sole_relevant_in_low_bin(self):
        ranked = ranked_list(("A", LOW))
        assert recall_at_k_bin({"A"}, ranked, 5, LOW) == 1.0

    def test_precision_high_bin(self):
        assert precision_at_k_bin(RELEVANT, FIXTURE, 5, HIGH) == 0.5

    def test_precision_low_bin(self):
        assert precision_at_k_bin(RELEVANT, FIXTURE, 5, LOW) == 0.0

    def test_precision_undefined_when_bin_absent_from_topk(self):
        ranked = ranked_list(("A", HIGH), ("B", LOW))
        assert precision_at_k_bin(RELEVANT, ranked, 5, MEDIUM) is None

    def test_bin_beyond_k_does_not_count(self):
        ranked = ranked_list(("C", HIGH), ("D", HIGH), ("A", HIGH))
        assert recall_at_k_bin({"A"}, ranked, 2, HIGH) == 0.0


class TestBinPartitionIdentities:
    def test_recall_sums_to_unconditioned(self):
        total = sum(recall_at_k_bin(RELEVANT, FIXTURE, 5, bin) for bin in BINS)
        assert abs(total - recall_at_k(RELEVANT, FIXTURE, 5)) <= 1e-12

    def test_precision_weighted_by_bin_size(self):
        lhs = 0.0
        for bin in BINS:
            in_bin = [i for i in FIXTURE[:5] if i.bin is bin]
            value = precision_at_k_bin(RELEVANT, FIXTURE, 5, bin)
            if value is not None:
                lhs += value * len(in_bin)
        rhs = precision_at_k(RELEVANT, FIXTURE, 5) * len(FIXTURE[:5])
        assert abs(lhs - rhs) <= 1e-12


class TestOracleSpotCheck:
    def test_thousand_random_instances_match_brute_force(self):
        """Library metrics must agree exactly with loop-based enumeration."""
        rng = random.Random(20240817)
        for _ in range(1000):
            inst = random_instance(rng)
            relevant = set(inst.relevant)
            ranked = tuple(RankedEntity(entity_id=i.entity_id, score=0.0,
                                        bin=ConfidenceBin(i.bin))
                           for i in inst.ranked)
            pairs = [
                (recall_at_k(relevant, ranked, inst.k),
                 brute_recall_at_k(inst.relevant, inst.ranked, inst.k)),
                (precision_at_k(relevant, ranked, inst.k),
                 brute_precision_at_k(inst.relevant, inst.ranked, inst.k)),
            ]
            for bin in BINS:
                pairs.append((
                    recall_at_k_bin(relevant, ranked, inst.k, bin),
                    brute_recall_at_k_bin(inst.relevant, inst.ranked,
                                          inst.k, bin.value)))
                pairs.append((
                    precision_at_k_bin(relevant, ranked, inst.k, bin),
                    brute_precision_at_k_bin(inst.relevant, inst.ranked,
                                             inst.k, bin.value)))
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

    def test_canonical_key_order(self, tmp_path):
        """Two saves of the same evaluation must be byte-identical."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self.make_report().save(a)
        self.make_report().save(b)
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text(encoding="utf-8"))
        assert list(data) == ["k", "bins", "counts", "aggregates", "per_query"]

    def test_render_table_lists_every_metric(self):
        table = self.make_report().render_table()
        for name in metric_names(5):
            assert name in table


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

    @pytest.mark.parametrize("entry", [
        '{"entity_id":"A","score":"NaN","bin":"high"}',
        '{"entity_id":"A","score":NaN,"bin":"high"}',
        '{"entity_id":"A","score":Infinity,"bin":"high"}',
        '{"entity_id":"A","score":true,"bin":"high"}',
        '{"entity_id":["a"],"score":1.0,"bin":"high"}',
        '{"entity_id":7,"score":1.0,"bin":"high"}',
        '{"entity_id":"A","score":1.0,"bin":["high"]}',
        '"A"',
    ])
    def test_bad_entry_is_an_ingest_error(self, tmp_path, entry):
        path = tmp_path / "run.jsonl"
        path.write_text('{"query":"q","results":[' + entry + ']}\n',
                        encoding="utf-8")
        with pytest.raises(IngestError, match="run.jsonl:1: bad run record"):
            load_run(path)

    def test_integer_score_loads_as_float(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"query":"q","results":'
                        '[{"entity_id":"A","score":1,"bin":"high"}]}\n',
                        encoding="utf-8")
        [result] = load_run(path)
        assert result.ranked[0].score == 1.0
        assert isinstance(result.ranked[0].score, float)
