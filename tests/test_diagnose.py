"""Tests for failure-category classification and report comparison."""

import json
import math
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from er_evalkit.diagnose import (
    CATEGORIES,
    DeltaCell,
    FailureCategory,
    compare_reports,
    diagnose_run,
    format_signed,
)
from er_evalkit.errors import ConfigError
from er_evalkit.metrics import (
    BINS,
    MACRO,
    MICRO,
    ConfidenceBin,
    MetricsReport,
    RankedEntity,
    RunResult,
    evaluate_run,
    metric_names,
)

from oracle import brute_classify, random_instance

HIGH = ConfidenceBin.HIGH
MEDIUM = ConfidenceBin.MEDIUM
LOW = ConfidenceBin.LOW


def run_result(query, *specs):
    ranked = tuple(
        RankedEntity(entity_id=eid, score=1.0 - i * 0.05, bin=bin)
        for i, (eid, bin) in enumerate(specs)
    )
    return RunResult(query=query, ranked=ranked)


def filler(n, start=0):
    return [(f"x{start + i}", LOW) for i in range(n)]


def classify_query(relevant, result, k=5, target_bin=HIGH):
    """The diagnosis of one query, through diagnose_run."""
    return diagnose_run({result.query: relevant}, [result], k, target_bin)[0][0]


class TestClassifyQuery:
    def test_relevant_high_in_topk_is_success(self):
        result = run_result("q", ("A", HIGH), *filler(4))
        diagnosis = classify_query({"A"}, result, k=5)
        assert diagnosis.category is FailureCategory.SUCCESS
        assert diagnosis.best_rank == 1
        assert diagnosis.best_bin is HIGH

    def test_medium_at_rank_three_is_binning_miss(self):
        result = run_result("q", *filler(2), ("A", MEDIUM), *filler(2, start=2))
        diagnosis = classify_query({"A"}, result, k=5)
        assert diagnosis.category is FailureCategory.BINNING_MISS
        assert diagnosis.best_rank == 3
        assert diagnosis.best_bin is MEDIUM

    def test_rank_seven_is_ranking_miss(self):
        result = run_result("q", *filler(6), ("A", HIGH))
        diagnosis = classify_query({"A"}, result, k=5)
        assert diagnosis.category is FailureCategory.RANKING_MISS
        assert diagnosis.best_rank == 7

    def test_absent_entity_is_retrieval_miss(self):
        result = run_result("q", *filler(5))
        diagnosis = classify_query({"A"}, result, k=5)
        assert diagnosis.category is FailureCategory.RETRIEVAL_MISS
        assert diagnosis.best_rank is None
        assert diagnosis.best_bin is None

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            classify_query(set(), run_result("q", ("A", HIGH)), k=5)

    def test_lower_target_bin_turns_binning_miss_into_success(self):
        result = run_result("q", ("A", MEDIUM))
        diagnosis = classify_query({"A"}, result, k=5, target_bin=MEDIUM)
        assert diagnosis.category is FailureCategory.SUCCESS

    def test_evidence_is_best_hit_regardless_of_bin(self):
        """A low-bin hit at rank 1 is still the evidence for a success at 3."""
        result = run_result("q", ("A", LOW), ("x", LOW), ("B", HIGH))
        diagnosis = classify_query({"A", "B"}, result, k=5)
        assert diagnosis.category is FailureCategory.SUCCESS
        assert diagnosis.best_rank == 1
        assert diagnosis.best_bin is LOW

    def test_invariant_under_permutation_below_best_hit(self):
        rng = random.Random(11)
        head = [("A", MEDIUM)]
        tail = filler(6)
        for _ in range(20):
            rng.shuffle(tail)
            result = run_result("q", *head, *tail)
            assert classify_query({"A"}, result, k=5).category is \
                FailureCategory.BINNING_MISS


class TestDiagnoseRun:
    def test_perfect_run_all_success(self):
        qrels = {f"q{i}": {f"t{i}"} for i in range(10)}
        run = [run_result(f"q{i}", (f"t{i}", HIGH)) for i in range(10)]
        _, summary = diagnose_run(qrels, run, k=5)
        assert summary.counts["success"] == 10
        assert summary.success_fraction == 1.0
        assert summary.consistent

    def test_all_medium_is_all_binning_miss(self):
        qrels = {f"q{i}": {f"t{i}"} for i in range(5)}
        run = [run_result(f"q{i}", (f"t{i}", MEDIUM)) for i in range(5)]
        _, summary = diagnose_run(qrels, run, k=5)
        assert summary.counts["binning_miss"] == 5
        assert summary.counts["success"] == 0

    def test_mixed_fixture_one_per_category(self):
        qrels = {"s": {"A"}, "b": {"B"}, "r": {"C"}, "m": {"D"}}
        run = [
            run_result("s", ("A", HIGH)),
            run_result("b", ("B", MEDIUM)),
            run_result("r", *filler(5), ("C", HIGH)),
            run_result("m", *filler(3)),
        ]
        diagnoses, summary = diagnose_run(qrels, run, k=5)
        assert summary.counts == {"success": 1, "binning_miss": 1,
                                  "ranking_miss": 1, "retrieval_miss": 1}
        assert len(diagnoses) == 4

    def test_missing_query_is_retrieval_miss(self):
        qrels = {"answered": {"A"}, "ghost": {"B"}}
        run = [run_result("answered", ("A", HIGH))]
        diagnoses, summary = diagnose_run(qrels, run, k=5)
        by_query = {d.query: d for d in diagnoses}
        assert by_query["ghost"].category is FailureCategory.RETRIEVAL_MISS
        assert summary.counts["retrieval_miss"] == 1

    def test_exactly_one_category_per_query(self):
        qrels = {"s": {"A"}, "b": {"B"}, "m": {"C"}}
        run = [
            run_result("s", ("A", HIGH)),
            run_result("b", ("B", LOW)),
            run_result("m", *filler(2)),
        ]
        diagnoses, summary = diagnose_run(qrels, run, k=5)
        assert sum(summary.counts.values()) == len(qrels) == len(diagnoses)

    def test_single_relevant_regime_macro_recall_identity(self):
        """With one relevant per query, macro recall counts top-k hits,
        which is exactly the success ∪ binning_miss fraction."""
        rng = random.Random(3)
        qrels = {}
        run = []
        for i in range(40):
            query = f"q{i}"
            qrels[query] = {f"t{i}"}
            spot = rng.randint(0, 8)
            specs = filler(8, start=100 * i)
            if spot < 8:
                specs[spot] = (f"t{i}", rng.choice((HIGH, MEDIUM, LOW)))
            run.append(run_result(query, *specs))
        report = evaluate_run(qrels, run, k=5)
        _, summary = diagnose_run(qrels, run, k=5)
        found_fraction = (summary.counts["success"]
                          + summary.counts["binning_miss"]) / summary.total
        assert report.aggregates["recall@5"]["macro"] == found_fraction

    def test_bin_histogram_counts_relevant_hits(self):
        qrels = {"q": {"A", "B"}}
        run = [run_result("q", ("A", HIGH), ("B", LOW), ("C", MEDIUM))]
        _, summary = diagnose_run(qrels, run, k=5)
        assert summary.topk_bin_histogram == {"high": 1, "medium": 0, "low": 1}

    def test_empty_qrels(self):
        _, summary = diagnose_run({}, [], k=5)
        assert summary.total == 0
        assert summary.consistent


class TestFormatSigned:
    def test_positive(self):
        assert format_signed(10.0, "%") == "+10.00%"

    def test_negative(self):
        assert format_signed(-3.5, "pp") == "-3.50pp"

    def test_zero_renders_plus(self):
        assert format_signed(0.0, "%") == "+0.00%"
        assert format_signed(-0.0, "%") == "+0.00%"


def report_with(values: dict):
    """Evaluate a tiny synthetic run whose metrics are easy to steer."""
    run = [RunResult(query="q", ranked=(
        RankedEntity("A", 1.0, HIGH),
        RankedEntity("B", 0.9, MEDIUM),
    ))]
    report = evaluate_run({"q": {"A"}}, run, k=5)
    for metric, per_mode in values.items():
        report.aggregates[metric] = per_mode
    return report


class TestCompareReports:
    def test_half_to_fifty_five_formats_exactly(self):
        baseline = report_with({"recall@5@high": {"micro": 0.50, "macro": 0.50}})
        candidate = report_with({"recall@5@high": {"micro": 0.55, "macro": 0.55}})
        delta = compare_reports(baseline, candidate)
        cell = next(c for c in delta.cells
                    if c.metric == "recall@5@high" and c.mode == "micro")
        assert cell.to_dict()["relative_label"] == "+10.00%"
        assert cell.to_dict()["absolute_label"] == "+5.00pp"
        assert cell.marker == "+"

    def test_identical_reports_all_zero_deltas(self):
        baseline = report_with({})
        delta = compare_reports(baseline, report_with({}))
        for cell in delta.cells:
            if cell.comparable:
                assert cell.to_dict()["absolute_label"] == "+0.00pp"
                assert cell.marker == "+"

    def test_degradation_marked_minus(self):
        baseline = report_with({"precision@5": {"micro": 0.8, "macro": 0.8}})
        candidate = report_with({"precision@5": {"micro": 0.6, "macro": 0.6}})
        delta = compare_reports(baseline, candidate)
        cell = next(c for c in delta.cells
                    if c.metric == "precision@5" and c.mode == "micro")
        assert cell.marker == "-"
        assert cell.to_dict()["relative_label"] == "-25.00%"

    def test_mismatched_k_rejected(self):
        run = [RunResult(query="q", ranked=(RankedEntity("A", 1.0, HIGH),))]
        k3 = evaluate_run({"q": {"A"}}, run, k=3)
        k5 = evaluate_run({"q": {"A"}}, run, k=5)
        with pytest.raises(ConfigError):
            compare_reports(k3, k5)

    def test_undefined_metric_incomparable(self):
        baseline = report_with(
            {"precision@5@low": {"micro": None, "macro": None}})
        delta = compare_reports(baseline, report_with({}))
        cell = next(c for c in delta.cells
                    if c.metric == "precision@5@low" and c.mode == "micro")
        assert not cell.comparable
        assert cell.absolute_pp is None

    def test_zero_baseline_has_no_relative_delta(self):
        baseline = report_with({"recall@5": {"micro": 0.0, "macro": 0.0}})
        candidate = report_with({"recall@5": {"micro": 0.5, "macro": 0.5}})
        delta = compare_reports(baseline, candidate)
        cell = next(c for c in delta.cells
                    if c.metric == "recall@5" and c.mode == "micro")
        assert cell.relative_pct is None
        assert cell.absolute_pp == 50.0

    def test_headline_columns_lead_the_table(self):
        delta = compare_reports(report_with({}), report_with({}))
        metrics_in_order = [c.metric for c in delta.cells if c.mode == "micro"]
        assert metrics_in_order[:3] == ["recall@5@high", "precision@5@high",
                                        "precision@1@high"]
        table = delta.render_table()
        assert table.index("recall@5@high") < table.index("precision@5@medium")

    def test_every_category_listed_once(self):
        assert [c.value for c in CATEGORIES] == [
            "success", "binning_miss", "ranking_miss", "retrieval_miss"]


class TestBruteForceClassifier:
    """One-query and whole-run diagnose_run against a loop-based oracle."""

    @pytest.fixture(scope="class")
    def instances(self):
        rng = random.Random(20240817)
        out = []
        for i in range(10_000):
            inst = random_instance(rng)
            ranked = tuple(RankedEntity(entity_id=item.entity_id,
                                        score=1.0 - 0.01 * rank,
                                        bin=ConfidenceBin(item.bin))
                           for rank, item in enumerate(inst.ranked))
            out.append((f"q{i:05d}", inst, RunResult(f"q{i:05d}", ranked)))
        return out

    @staticmethod
    def as_tuple(diagnosis):
        return (diagnosis.category.value, diagnosis.best_rank,
                diagnosis.best_bin.value if diagnosis.best_bin else None)

    @pytest.mark.parametrize("target", BINS)
    def test_classify_query_matches_oracle(self, instances, target):
        checked = 0
        for _, inst, result in instances:
            if not inst.relevant:
                continue
            got = classify_query(set(inst.relevant), result, inst.k, target)
            assert self.as_tuple(got) == brute_classify(
                inst.relevant, inst.ranked, inst.k, target.value)
            checked += 1
        assert checked > 7500

    @pytest.mark.parametrize("target", BINS)
    @pytest.mark.parametrize("k", (1, 3, 5))
    def test_diagnose_run_matches_oracle(self, instances, target, k):
        kept = [(query, inst, result) for query, inst, result in instances
                if inst.relevant]
        qrels = {query: set(inst.relevant) for query, inst, _ in kept}
        # Every third query goes unanswered and must be a retrieval miss.
        run = [result for i, (_, _, result) in enumerate(kept) if i % 3]
        diagnoses, summary = diagnose_run(qrels, run, k=k, target_bin=target)
        expected = [
            brute_classify(inst.relevant, inst.ranked if i % 3 else (), k,
                           target.value)
            for i, (_, inst, _) in enumerate(kept)
        ]
        assert [d.query for d in diagnoses] == [q for q, _, _ in kept]
        assert [self.as_tuple(d) for d in diagnoses] == expected
        for category in CATEGORIES:
            assert summary.counts[category.value] == sum(
                1 for e in expected if e[0] == category.value)
        assert summary.consistent
        assert summary.hit_rate == summary.success_fraction


class TestEmptyRelevantSet:
    def test_unanswered_and_answered_agree(self):
        unanswered = evaluate_run({"q": set()}, [], 5)
        answered = evaluate_run(
            {"q": set()}, [run_result("q", ("A", HIGH))], 5)
        for name in ("recall@5", "recall@5@high", "recall@5@low"):
            assert unanswered.per_query["q"][name] is None
            assert answered.per_query["q"][name] is None
        assert unanswered.per_query["q"]["precision@5"] is None
        assert unanswered.counts == {"evaluated": 0, "skipped": 1,
                                     "ignored_run_queries": 0}


# A metric value as a report holds it: undefined, or a number in [0, 1],
# subnormals included, whose relative deltas overflow to infinity.
UNIT = st.one_of(st.none(), st.sampled_from([0, 1]),
                 st.floats(min_value=0.0, max_value=1.0))


@st.composite
def report_pairs(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    names = metric_names(k)

    def report():
        return MetricsReport(
            k=k, bins=tuple(bin.value for bin in BINS), counts={},
            aggregates={name: {MICRO: draw(UNIT), MACRO: draw(UNIT)}
                        for name in names})

    return report(), report()


class TestCompareCells:
    @settings(max_examples=60, deadline=None)
    @given(report_pairs())
    def test_every_cell_follows_from_its_two_values(self, pair):
        delta = compare_reports(*pair)
        keys = [field.name for field in fields(DeltaCell)]
        for cell in delta.cells:
            base, cand = cell.baseline, cell.candidate
            assert cell.comparable == (base is not None and cand is not None)
            if cell.comparable:
                assert cell.absolute_pp == (cand - base) * 100
                ratio = (cand - base) / base * 100 if base else math.nan
                assert cell.relative_pct == (
                    ratio if math.isfinite(ratio) else None)
                assert cell.marker == ("+" if cand >= base else "-")
            else:
                assert (cell.absolute_pp, cell.relative_pct, cell.marker) == (
                    None, None, None)
            assert cell.absolute_label == format_signed(cell.absolute_pp, "pp")
            assert cell.relative_label == format_signed(cell.relative_pct, "%")
            assert list(cell.to_dict()) == keys
        assert list(delta.to_dict()) == ["k", "bins", "cells"]
        json.dumps(delta.to_dict(), allow_nan=False)

    def test_relative_delta_over_a_subnormal_baseline_is_null(self):
        baseline = report_with(
            {"precision@5": {"micro": 1e-320, "macro": 0.5}})
        delta = compare_reports(baseline, report_with({}))
        cell = next(c for c in delta.cells
                    if c.metric == "precision@5" and c.mode == "micro")
        assert cell.comparable and cell.marker == "+"
        assert (cell.relative_pct, cell.relative_label) == (None, None)
        assert '"relative_pct":null' in json.dumps(cell.to_dict(),
                                                   separators=(",", ":"))


class TestReportValueRange:
    @pytest.mark.parametrize("where,value", [
        ("aggregate", 7.5), ("aggregate", -0.25), ("aggregate", 2),
        ("row", 1.5), ("row", -1)])
    def test_value_outside_unit_interval_rejected(self, where, value):
        data = report_with({}).to_dict()
        if where == "aggregate":
            data["aggregates"]["recall@5"]["micro"] = value
            expected = f"micro of 'recall@5' must be in [0, 1], got {value}"
        else:
            data["per_query"]["q"]["recall@5"] = value
            expected = f"recall@5 of 'q' must be in [0, 1], got {value}"
        with pytest.raises(ValueError) as info:
            MetricsReport.from_dict(data)
        assert str(info.value) == expected

    def test_bounds_and_null_accepted(self):
        data = report_with({}).to_dict()
        data["aggregates"]["recall@5"] = {"micro": 0, "macro": 1}
        data["aggregates"]["precision@5"] = {"micro": 1e-320, "macro": None}
        report = MetricsReport.from_dict(data)
        assert report.aggregates["recall@5"] == {"micro": 0, "macro": 1}
