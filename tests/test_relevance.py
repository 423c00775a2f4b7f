"""Tests for the CTR × importance merge and the qrels file format."""

import json
import random

import pytest

from er_evalkit.clickstream import CtrRecord
from er_evalkit.errors import ConfigError, IngestError
from er_evalkit.importance import ComponentScores, ScoredTitle
from er_evalkit.relevance import (
    MergeSummary,
    ProvenanceRecord,
    default_provenance_path,
    emit_qrels,
    load_qrels,
    merge_relevance,
    write_qrels,
)


def scored(entity_id, importance):
    components = ComponentScores(importance, importance, importance)
    return ScoredTitle(entity_id=entity_id, components=components,
                       importance=importance)


def ctr(query, entity_id, nclick, nimp):
    return CtrRecord(query=query, entity_id=entity_id, nimp=nimp,
                     nclick=nclick, ctr=nclick / nimp)


class TestMergeRelevance:
    def test_pair_passing_both_thresholds_included(self):
        relset, summary = merge_relevance(
            [ctr("q", "tt1", nclick=30, nimp=50)],
            [scored("tt1", 0.8)],
            min_importance=0.5,
        )
        assert relset.entries == {"q": {"tt1"}}
        assert relset.provenance[("q", "tt1")] == ProvenanceRecord(
            ctr=0.6, nimp=50, importance=0.8)
        assert summary == MergeSummary(included=1, dropped_unscored=0,
                                       dropped_low_importance=0)

    def test_unscored_entity_dropped_and_tallied(self):
        relset, summary = merge_relevance(
            [ctr("q", "tt2", nclick=30, nimp=50)],
            [scored("tt1", 0.8)],
        )
        assert relset.entries == {}
        assert summary.dropped_unscored == 1

    def test_low_importance_dropped_and_tallied(self):
        relset, summary = merge_relevance(
            [ctr("q", "tt1", nclick=30, nimp=50)],
            [scored("tt1", 0.1)],
        )
        assert relset.entries == {}
        assert summary.dropped_low_importance == 1

    def test_zero_threshold_keeps_every_joinable_pair(self):
        records = [ctr("q", "tt1", 30, 50), ctr("q", "tt2", 40, 50)]
        titles = [scored("tt1", 0.0), scored("tt2", 0.9)]
        relset, _ = merge_relevance(records, titles, min_importance=0.0)
        assert relset.entries == {"q": {"tt1", "tt2"}}

    def test_multiple_relevant_entities_per_query(self):
        records = [ctr("q", "tt1", 30, 50), ctr("q", "tt2", 40, 50)]
        titles = [scored("tt1", 0.9), scored("tt2", 0.9)]
        relset, _ = merge_relevance(records, titles)
        assert relset.entries["q"] == {"tt1", "tt2"}

    def test_order_independence(self):
        records = [ctr("q2", "tt1", 30, 50), ctr("q1", "tt2", 40, 50),
                   ctr("q1", "tt1", 25, 50)]
        titles = [scored("tt1", 0.9), scored("tt2", 0.9)]
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        left, _ = merge_relevance(records, titles)
        right, _ = merge_relevance(shuffled, titles)
        assert left.entries == right.entries
        assert left.provenance == right.provenance

    def test_query_wise_locality(self):
        """Merging disjoint query sets separately equals merging together."""
        part_a = [ctr("q1", "tt1", 30, 50)]
        part_b = [ctr("q2", "tt2", 40, 50)]
        titles = [scored("tt1", 0.9), scored("tt2", 0.9)]
        merged_all, _ = merge_relevance(part_a + part_b, titles)
        merged_a, _ = merge_relevance(part_a, titles)
        merged_b, _ = merge_relevance(part_b, titles)
        assert merged_all.entries == {**merged_a.entries, **merged_b.entries}

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            merge_relevance([], [], min_importance=1.5)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"^min_importance -0\.5 outside \[0, 1\]$"):
            merge_relevance([], [], min_importance=-0.5)

    @pytest.mark.parametrize("first,second", [(0.1, 0.9), (0.9, 0.1)])
    def test_named_title_scored_twice_rejected(self, first, second):
        with pytest.raises(ValueError,
                           match="^duplicate scored entity_id 'tt1'$"):
            merge_relevance([ctr("q", "tt1", 30, 50)],
                            [scored("tt1", first), scored("tt1", second)])

    def test_unnamed_title_scored_twice_ignored(self):
        relset, summary = merge_relevance(
            [ctr("q", "tt1", 30, 50)],
            iter([scored("tt2", 0.1), scored("tt1", 0.9),
                  scored("tt2", 0.9)]))
        assert relset.entries == {"q": {"tt1"}}
        assert summary == MergeSummary(included=1, dropped_unscored=0,
                                       dropped_low_importance=0)

    def test_scored_stream_read_before_threshold_checked(self):
        def stream():
            yield scored("tt1", 0.9)
            raise IngestError("bad scored line")

        with pytest.raises(IngestError):
            merge_relevance(iter([ctr("q", "tt1", 30, 50)]), stream(),
                            min_importance=1.5)


class TestQrelsFiles:
    def build(self):
        records = [ctr("alpha", "tt1", 30, 50), ctr("alpha", "tt2", 40, 50),
                   ctr("beta", "tt1", 45, 50)]
        titles = [scored("tt1", 0.9), scored("tt2", 0.8)]
        relset, _ = merge_relevance(records, titles)
        return relset

    def test_round_trip(self, tmp_path):
        relset = self.build()
        path = tmp_path / "qrels.jsonl"
        emit_qrels(relset, path)
        loaded = load_qrels(path)
        assert loaded.entries == relset.entries
        assert loaded.provenance == {}

    def test_relevant_arrays_sorted(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        emit_qrels(self.build(), path)
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            assert rec["relevant"] == sorted(rec["relevant"])

    def test_provenance_sidecar_written(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        emit_qrels(self.build(), path)
        sidecar = default_provenance_path(path)
        assert sidecar.name == "qrels.provenance.jsonl"
        rows = [json.loads(line) for line in
                sidecar.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"query", "entity_id", "ctr", "nimp",
                                "importance"}

    def test_provenance_attests_all_thresholds(self, tmp_path):
        """Every emitted pair must carry values that pass the filters."""
        path = tmp_path / "qrels.jsonl"
        emit_qrels(self.build(), path)
        for line in default_provenance_path(path).read_text(
                encoding="utf-8").splitlines():
            row = json.loads(line)
            assert row["nimp"] >= 25
            assert row["ctr"] >= 0.3
            assert row["importance"] >= 0.3

    @pytest.mark.parametrize("provenance", ["q.jsonl", "./q.jsonl"])
    def test_provenance_path_must_differ(self, tmp_path, monkeypatch,
                                         provenance):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match="provenance path"):
            emit_qrels(self.build(), "q.jsonl", provenance)
        assert list(tmp_path.iterdir()) == []

    def test_write_qrels_sorts_queries_and_ids(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        assert write_qrels({"b": ["tt2", "tt1"], "a": ("tt3",)}, path) == 2
        assert path.read_text(encoding="utf-8") == (
            '{"query":"a","relevant":["tt3"]}\n'
            '{"query":"b","relevant":["tt1","tt2"]}\n')

    def test_empty_relset_gives_empty_file(self, tmp_path):
        from er_evalkit.relevance import RelevanceSet
        path = tmp_path / "qrels.jsonl"
        emit_qrels(RelevanceSet(), path)
        assert path.read_text(encoding="utf-8") == ""

    def test_duplicate_query_rejected_on_load(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        path.write_text('{"query":"q","relevant":["tt1"]}\n'
                        '{"query":"q","relevant":["tt2"]}\n', encoding="utf-8")
        with pytest.raises(IngestError, match="duplicate query"):
            load_qrels(path)

    def test_empty_relevant_rejected_on_load(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        path.write_text('{"query":"q","relevant":[]}\n', encoding="utf-8")
        with pytest.raises(IngestError, match="empty relevant"):
            load_qrels(path)

    def test_duplicate_entity_rejected_on_load(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        path.write_text('{"query":"q","relevant":["tt1","tt1"]}\n',
                        encoding="utf-8")
        with pytest.raises(IngestError, match="duplicate entity"):
            load_qrels(path)

    @pytest.mark.parametrize("line", [
        '{"query":"q","relevant":[1,2]}',
        '{"query":"q","relevant":["tt1",null]}',
        '{"query":1,"relevant":["tt1"]}',
        '{"query":"q","relevant":"tt1"}',
        '["q",["tt1"]]',
    ])
    def test_non_string_ids_rejected_on_load(self, tmp_path, line):
        path = tmp_path / "qrels.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match="qrels.jsonl:1: bad qrels"):
            load_qrels(path)
