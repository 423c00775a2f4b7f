"""Tests for click event parsing, CTR aggregation, and filtering."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from er_evalkit.clickstream import (
    ClickEvent,
    CtrFilter,
    CtrRecord,
    FilterSummary,
    ParseStats,
    aggregate_filtered,
    aggregate_in_shards,
    aggregate_pairs,
    compute_ctr,
    filter_records,
    load_ctr_records,
    merge_records,
    normalize_query,
    parse_events,
    write_ctr_records,
    write_events,
)
from er_evalkit.errors import ConfigError, IngestError


class TestNormalizeQuery:
    def test_lowercases_and_strips(self):
        assert normalize_query("Cocomelon ") == "cocomelon"

    def test_collapses_internal_whitespace(self):
        assert normalize_query("  Peppa \t Pig ") == "peppa pig"


class TestParseEvents:
    def write(self, tmp_path, lines):
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_normalizes_queries(self, tmp_path):
        path = self.write(tmp_path, [
            '{"query":"Cocomelon ","impressions":["tt1","tt2"],"clicked":"tt1"}',
        ])
        events = list(parse_events(path))
        assert events == [ClickEvent(query="cocomelon",
                                     impressions=("tt1", "tt2"),
                                     clicked="tt1")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        stats = ParseStats()
        assert list(parse_events(path, stats=stats)) == []
        assert stats.rejected == 0

    def test_click_outside_impressions_rejected(self, tmp_path):
        path = self.write(tmp_path, [
            '{"query":"q","impressions":["tt1"],"clicked":"tt9"}',
        ])
        stats = ParseStats()
        assert list(parse_events(path, stats=stats)) == []
        assert stats.rejected == 1

    def test_malformed_lines_tallied(self, tmp_path):
        path = self.write(tmp_path, [
            "not json",
            '{"query":"","impressions":["tt1"]}',
            '{"query":"q","impressions":[]}',
            '{"query":"ok","impressions":["tt1"]}',
        ])
        stats = ParseStats()
        events = list(parse_events(path, stats=stats))
        assert len(events) == 1
        assert stats.rejected == 3
        assert stats.lines == 4

    def test_strict_raises_with_location(self, tmp_path):
        path = self.write(tmp_path, ["not json"])
        with pytest.raises(IngestError, match="events.jsonl:1"):
            list(parse_events(path, strict=True))

    @pytest.mark.parametrize("flag", ["true", "false"])
    def test_boolean_ts_rejected(self, tmp_path, flag):
        path = self.write(tmp_path, [
            '{"query":"q","impressions":["tt1"],"ts":%s}' % flag,
            '{"query":"q","impressions":["tt1"],"ts":7}',
        ])
        stats = ParseStats()
        events = list(parse_events(path, stats=stats))
        assert [e.ts for e in events] == [7]
        assert stats.rejected == 1
        with pytest.raises(IngestError,
                           match="events.jsonl:1: ts must be an integer"):
            list(parse_events(path, strict=True))

    def test_null_click_means_no_click(self, tmp_path):
        path = self.write(tmp_path, [
            '{"query":"q","impressions":["tt1"],"clicked":null,"ts":123}',
        ])
        event = next(parse_events(path))
        assert event.clicked is None
        assert event.ts == 123


class TestComputeCtr:
    def test_three_of_four(self):
        assert compute_ctr(3, 4) == 0.75

    def test_no_clicks(self):
        assert compute_ctr(0, 10) == 0.0

    def test_always_clicked(self):
        assert compute_ctr(10, 10) == 1.0

    def test_zero_impressions_rejected(self):
        with pytest.raises(ValueError):
            compute_ctr(0, 0)

    def test_more_clicks_than_impressions_rejected(self):
        with pytest.raises(ValueError):
            compute_ctr(5, 4)


def event(query, impressions, clicked=None):
    return ClickEvent(query=query, impressions=tuple(impressions),
                      clicked=clicked)


class TestAggregatePairs:
    def test_three_event_worked_example(self):
        events = [
            event("cocomelon", ["tt1", "tt2"], clicked="tt1"),
            event("cocomelon", ["tt1", "tt2"], clicked="tt1"),
            event("cocomelon", ["tt1", "tt2"]),
        ]
        records = aggregate_pairs(events)
        assert records == [
            CtrRecord("cocomelon", "tt1", nimp=3, nclick=2, ctr=2 / 3),
            CtrRecord("cocomelon", "tt2", nimp=3, nclick=0, ctr=0.0),
        ]

    def test_empty_stream(self):
        assert aggregate_pairs([]) == []

    def test_single_event_single_click(self):
        records = aggregate_pairs([event("q", ["tt1"], clicked="tt1")])
        assert records[0].ctr == 1.0

    def test_repeated_impression_in_one_event_counts_once(self):
        records = aggregate_pairs([event("q", ["tt1", "tt1"])])
        assert records == [CtrRecord("q", "tt1", nimp=1, nclick=0, ctr=0.0)]

    def test_output_sorted_by_query_then_entity(self):
        events = [
            event("zebra", ["tt2", "tt1"]),
            event("apple", ["tt9"]),
        ]
        keys = [(r.query, r.entity_id) for r in aggregate_pairs(events)]
        assert keys == sorted(keys)

    def test_clicks_bounded_by_events_per_query(self):
        events = [event("q", ["tt1", "tt2"], clicked="tt1")] * 5
        records = aggregate_pairs(events)
        total_clicks = sum(r.nclick for r in records)
        assert total_clicks <= 5


events_strategy = st.lists(
    st.builds(
        lambda q, imps, click_idx: ClickEvent(
            query=q,
            impressions=tuple(imps),
            clicked=imps[click_idx % len(imps)] if click_idx is not None else None,
        ),
        st.sampled_from(["q1", "q2", "q3"]),
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1,
                 max_size=4, unique=True),
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    ),
    max_size=40,
)


class TestShardMerge:
    @given(events_strategy, st.integers(min_value=1, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_sharded_equals_single_pass(self, events, n_shards):
        """Aggregation is a monoid merge: shard count cannot matter."""
        assert aggregate_in_shards(events, n_shards) == aggregate_pairs(events)

    def test_merge_records_sums_counts(self):
        shard_a = [CtrRecord("q", "tt1", nimp=2, nclick=1, ctr=0.5)]
        shard_b = [CtrRecord("q", "tt1", nimp=2, nclick=2, ctr=1.0)]
        merged = merge_records([shard_a, shard_b])
        assert merged == [CtrRecord("q", "tt1", nimp=4, nclick=3, ctr=0.75)]

    def test_threaded_aggregation_matches(self):
        events = [event("q", ["tt1", "tt2"], clicked="tt1")] * 50
        assert aggregate_in_shards(events, 4, threads=4) == \
            aggregate_pairs(events)

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_in_shards([], 0)


class TestAggregateFiltered:
    @given(events_strategy, st.integers(min_value=1, max_value=6),
           st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_equals_aggregate_then_filter(self, events, min_imp, min_ctr):
        ctr_filter = CtrFilter(min_impressions=min_imp, min_ctr=min_ctr)
        expected = filter_records(aggregate_pairs(events), ctr_filter)
        assert aggregate_filtered(iter(events), ctr_filter) == expected


class TestFilterRecords:
    def test_paper_motivating_case_dropped(self):
        """Few impressions with high CTR is exactly the noise to exclude."""
        record = CtrRecord("q", "tt1", nimp=4, nclick=3, ctr=0.75)
        kept, summary = filter_records([record], CtrFilter())
        assert kept == []
        assert summary == FilterSummary(kept=0, dropped=1)

    def test_both_thresholds_satisfied(self):
        record = CtrRecord("q", "tt1", nimp=100, nclick=50, ctr=0.5)
        kept, _ = filter_records([record], CtrFilter())
        assert kept == [record]

    def test_vacuous_filter_is_identity(self):
        records = [
            CtrRecord("q", "tt1", nimp=1, nclick=0, ctr=0.0),
            CtrRecord("q", "tt2", nimp=2, nclick=1, ctr=0.5),
        ]
        kept, _ = filter_records(records, CtrFilter(min_impressions=1,
                                                    min_ctr=0.0))
        assert kept == records

    def test_idempotent(self):
        records = [
            CtrRecord("q", "tt1", nimp=30, nclick=20, ctr=2 / 3),
            CtrRecord("q", "tt2", nimp=30, nclick=1, ctr=1 / 30),
            CtrRecord("q", "tt3", nimp=3, nclick=3, ctr=1.0),
        ]
        once, _ = filter_records(records, CtrFilter())
        twice, _ = filter_records(once, CtrFilter())
        assert twice == once
        assert all(r in records for r in once)

    def test_filter_validation(self):
        with pytest.raises(ConfigError):
            CtrFilter(min_impressions=0)
        with pytest.raises(ConfigError):
            CtrFilter(min_ctr=1.5)


class TestRecordInvariants:
    def test_ctr_must_match_quotient(self):
        with pytest.raises(ValueError):
            CtrRecord("q", "tt1", nimp=4, nclick=3, ctr=0.5)

    def test_clicks_bounded(self):
        with pytest.raises(ValueError):
            CtrRecord("q", "tt1", nimp=1, nclick=2, ctr=2.0)

    def test_click_membership_enforced(self):
        with pytest.raises(ValueError):
            ClickEvent(query="q", impressions=("tt1",), clicked="tt9")

    def test_empty_impressions_rejected(self):
        with pytest.raises(ValueError):
            ClickEvent(query="q", impressions=())


class TestJsonlRoundTrips:
    def test_ctr_records(self, tmp_path):
        records = aggregate_pairs([
            event("q", ["tt1", "tt2"], clicked="tt1"),
            event("q", ["tt1"]),
        ])
        path = tmp_path / "ctr.jsonl"
        write_ctr_records(records, path)
        assert load_ctr_records(path) == records

    def test_ctr_schema_keys(self, tmp_path):
        path = tmp_path / "ctr.jsonl"
        write_ctr_records([CtrRecord("q", "tt1", 4, 3, 0.75)], path)
        row = json.loads(path.read_text(encoding="utf-8"))
        assert list(row) == ["query", "entity_id", "nimp", "nclick", "ctr"]

    def test_events(self, tmp_path):
        events = [
            event("first query", ["tt1", "tt2"], clicked="tt2"),
            event("second", ["tt3"]),
        ]
        path = tmp_path / "events.jsonl"
        write_events(events, path)
        assert list(parse_events(path)) == events

    def test_runs_of_equal_events_write_every_line(self, tmp_path):
        """Repeated events, as one object or as equal copies, each get a
        line, the same bytes as writing each event on its own."""
        shown = event("q", ["tt1", "tt2"])
        hit = event("q", ["tt1", "tt2"], clicked="tt2")
        events = [shown, shown, event("q", ["tt1", "tt2"]), hit, hit, shown,
                  ClickEvent("q", ("tt1",), ts=3), ClickEvent("q", ("tt1",), ts=4)]
        path = tmp_path / "events.jsonl"
        assert write_events(events, path) == len(events)
        one_by_one = b""
        for i, ev in enumerate(events):
            write_events([ev], tmp_path / f"{i}.jsonl")
            one_by_one += (tmp_path / f"{i}.jsonl").read_bytes()
        assert path.read_bytes() == one_by_one
        assert list(parse_events(path)) == events

    def test_unwritable_events_path_is_an_ingest_error(self, tmp_path):
        with pytest.raises(IngestError, match="cannot write"):
            write_events([event("q", ["tt1"])],
                         tmp_path / "missing" / "events.jsonl")

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "ctr.jsonl"
        path.write_text('{"query":"q"}\n', encoding="utf-8")
        with pytest.raises(IngestError, match="ctr.jsonl:1"):
            load_ctr_records(path)

    @pytest.mark.parametrize("fields", [
        '"nimp":true,"nclick":true,"ctr":1.0',
        '"nimp":4.0,"nclick":3.0,"ctr":0.75',
        '"nimp":4,"nclick":3,"ctr":"0.75"',
        '"nimp":4,"nclick":3,"ctr":NaN',
    ])
    def test_counts_must_be_ints_and_ctr_a_number(self, tmp_path, fields):
        path = tmp_path / "ctr.jsonl"
        path.write_text('{"query":"q","entity_id":"tt1","nimp":4,"nclick":3,'
                        '"ctr":0.75}\n{"query":"q","entity_id":"tt2",'
                        + fields + '}\n', encoding="utf-8")
        with pytest.raises(IngestError, match="ctr.jsonl:2: bad CTR record"):
            load_ctr_records(path)

    def test_ids_must_be_strings(self, tmp_path):
        path = tmp_path / "ctr.jsonl"
        path.write_text('{"query":"q","entity_id":7,"nimp":4,"nclick":3,'
                        '"ctr":0.75}\n', encoding="utf-8")
        with pytest.raises(IngestError, match="entity_id must be str"):
            load_ctr_records(path)
