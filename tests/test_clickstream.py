"""Tests for click event parsing, CTR aggregation, and filtering."""

import hashlib
import json
import os
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from er_evalkit import clickstream
from er_evalkit.clickstream import (
    ClickEvent,
    CtrFilter,
    CtrRecord,
    FilterSummary,
    ParseStats,
    aggregate_in_shards,
    aggregate_log,
    compute_ctr,
    filter_records,
    load_ctr_records,
    normalize_query,
    parse_events,
    write_ctr_records,
    write_events,
)
from er_evalkit.cli import dispatch
from er_evalkit.errors import ConfigError, IngestError
from er_evalkit.jsonl import dumps, middle_line


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


def aggregate(events):
    """Every (query, entity) pair's counts, from one shard."""
    return aggregate_in_shards(events, 1)


class TestAggregatePairs:
    def test_three_event_worked_example(self):
        events = [
            event("cocomelon", ["tt1", "tt2"], clicked="tt1"),
            event("cocomelon", ["tt1", "tt2"], clicked="tt1"),
            event("cocomelon", ["tt1", "tt2"]),
        ]
        records = aggregate(events)
        assert records == [
            CtrRecord("cocomelon", "tt1", nimp=3, nclick=2, ctr=2 / 3),
            CtrRecord("cocomelon", "tt2", nimp=3, nclick=0, ctr=0.0),
        ]

    def test_empty_stream(self):
        assert aggregate([]) == []

    def test_single_event_single_click(self):
        records = aggregate([event("q", ["tt1"], clicked="tt1")])
        assert records[0].ctr == 1.0

    def test_repeated_impression_in_one_event_counts_once(self):
        records = aggregate([event("q", ["tt1", "tt1"])])
        assert records == [CtrRecord("q", "tt1", nimp=1, nclick=0, ctr=0.0)]

    def test_output_sorted_by_query_then_entity(self):
        events = [
            event("zebra", ["tt2", "tt1"]),
            event("apple", ["tt9"]),
        ]
        keys = [(r.query, r.entity_id) for r in aggregate(events)]
        assert keys == sorted(keys)

    def test_clicks_bounded_by_events_per_query(self):
        events = [event("q", ["tt1", "tt2"], clicked="tt1")] * 5
        records = aggregate(events)
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


# Impressions drawn with repeats, so one entity can be shown twice in one
# event and the click can land on such an entity.
repeated_events_strategy = st.lists(
    st.builds(
        lambda q, imps, click_idx: ClickEvent(
            query=q,
            impressions=tuple(imps),
            clicked=imps[click_idx % len(imps)] if click_idx is not None else None,
        ),
        st.sampled_from(["q1", "q2", "q3"]),
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6),
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    ),
    max_size=40,
)


class TestShardMerge:
    @given(events_strategy, st.integers(min_value=1, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_sharded_equals_single_pass(self, events, n_shards):
        """Aggregation is a monoid merge: shard count cannot matter."""
        assert aggregate_in_shards(events, n_shards) == aggregate(events)

    def test_threaded_aggregation_matches(self):
        events = [event("q", ["tt1", "tt2"], clicked="tt1")] * 50
        assert aggregate_in_shards(events, 4, threads=4) == \
            aggregate(events)

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_in_shards([], 0)


class TestAggregateFiltered:
    @given(repeated_events_strategy, st.integers(min_value=1, max_value=4),
           st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_repeated_impressions(self, tmp_path_factory, events, min_imp,
                                  min_ctr):
        ctr_filter = CtrFilter(min_impressions=min_imp, min_ctr=min_ctr)
        expected = filter_records(aggregate(events), ctr_filter)
        path = tmp_path_factory.mktemp("log") / "events.jsonl"
        write_events(events, path)
        assert aggregate_log(path, ctr_filter) == filter_records(
            aggregate(parse_events(path)), ctr_filter) == expected
        assert aggregate_in_shards(events, 3) == aggregate(events)


# One line of each reason aggregate-ctr rejects a click-log line for, and
# the reason its --strict error line gives.
REJECT_LINES = [
    ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ('{"query":"q","impressions":["tt1"]} trailing',
     "invalid JSON: Extra data: line 1 column 37 (char 36)"),
    ("[1,2]", "event is not an object"),
    ('{"query":"  ","impressions":["tt1"]}', "missing or empty query"),
    ('{"query":"q","impressions":["tt1",1]}',
     "impressions must be a nonempty list of ids"),
    ('{"query":"q","impressions":["tt1"],"clicked":7}',
     "clicked must be an id or null"),
    ('{"query":"q","impressions":["tt1"],"ts":true}',
     "ts must be an integer or null"),
    ('{"query":"q","impressions":["tt1","tt1"],"clicked":"tt2"}',
     "clicked 'tt2' not among impressions"),
]


def pinned_click_log(seed=2026, n_events=3000):
    """A click log with repeated impressions within one event, clicks on a
    repeated entity, spellings of one query that differ only in case or
    whitespace, and one line of each reject reason, spread through it."""
    rng = random.Random(seed)
    spellings = [
        ["peppa pig", "Peppa Pig", "  peppa\tpig ", "PEPPA  PIG"],
        ["bluey", "Bluey", " BLUEY"],
        ["paw patrol", "Paw  Patrol"],
        ["cocomelon"],
        ["the lion king", "The Lion King ", "the  lion  KING"],
    ]
    ids = [f"tt{i:02d}" for i in range(25)]
    lines = []
    for i in range(n_events):
        query = rng.choice(rng.choice(spellings))
        favourite = ids[len(query.split()[0]) % len(ids)]
        impressions = [rng.choice(ids) for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.3:
            impressions += [favourite, favourite]
        roll = rng.random()
        if roll < 0.3:
            clicked = None
        elif roll < 0.6 and favourite in impressions:
            clicked = favourite
        else:
            clicked = rng.choice(impressions)
        lines.append(dumps({"query": query, "impressions": impressions,
                            "clicked": clicked,
                            "ts": None if i % 3 else 1_650_000_000 + i}))
    for k, (bad, _) in enumerate(REJECT_LINES):
        lines.insert(150 + 300 * k, bad)
    return "\n".join(lines) + "\n"


# sha256 of pinned_click_log() and of aggregate-ctr's output and summary on
# it (the summary with its --out path written as OUT), taken from the
# implementation that counted one (query, entity) tuple per impression.
PINNED_LOG = ("f7e73039e617b2edd34f60f744e8c6f2"
              "b219c4ae8772d2be43c154accc635cb2")
PINNED_CTR = {
    (): ("dce056e1f2f62888d893bc73b22fc91b5b83b9005835fcc35105575ed2cca350",
         "64559702896dcd93ab0502226cbd36d99af706de68b81371cf53fd4bd46a9848"),
    ("--min-impressions", "1", "--min-ctr", "0"):
        ("1aa81d878f97b20584ccba4b6d3b3e5acb8e69bdfbe7ab36d9276b047752866d",
         "1f488c20aa1dcbedd4c649b2fecbcc9e5d636f4bbf8ec664e2f91b6e1c6cf7d3"),
    ("--min-impressions", "60", "--min-ctr", "0.15"):
        ("e83221d0e8423391bfe9e63f7a893c99987ea0bbdb7ac261a3634f2e49e2b50f",
         "8640b40b3bf4d9298b6cf16d10c1b4dd373c054ceda7cad9ef4be0e7256f5cdb"),
}


def run_cli(capsys, *argv):
    code = dispatch([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAggregateCtrBytes:
    @pytest.fixture
    def click_log(self, tmp_path):
        path = tmp_path / "clicklog.jsonl"
        path.write_text(pinned_click_log(), encoding="utf-8")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_LOG
        return path

    @pytest.mark.parametrize("flags", list(PINNED_CTR))
    def test_output_and_summary(self, capsys, tmp_path, click_log, flags):
        out = tmp_path / "ctr.jsonl"
        code, stdout, err = run_cli(capsys, "aggregate-ctr", "--events",
                                    click_log, "--out", out, *flags)
        assert (code, err) == (0, "")
        summary = stdout.replace(str(out), "OUT").encode()
        assert (hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(summary).hexdigest()) == PINNED_CTR[flags]

    def test_strict_error_line(self, capsys, tmp_path, click_log):
        out = tmp_path / "ctr.jsonl"
        code, stdout, err = run_cli(capsys, "aggregate-ctr", "--events",
                                    click_log, "--out", out, "--strict")
        assert (code, stdout) == (1, "")
        assert err == (f"error: {click_log}:151: invalid JSON: "
                       "Expecting value: line 1 column 1 (char 0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("line,reason", REJECT_LINES)
    def test_strict_error_per_reason(self, capsys, tmp_path, line, reason):
        events = tmp_path / "events.jsonl"
        events.write_text('{"query":"q","impressions":["tt1"]}\n' + line
                          + "\n", encoding="utf-8")
        out = tmp_path / "ctr.jsonl"
        code, stdout, err = run_cli(capsys, "aggregate-ctr", "--events",
                                    events, "--out", out, "--strict")
        assert (code, stdout) == (1, "")
        assert err == f"error: {events}:2: {reason}\n"
        assert not out.exists()


class TestEmptyEntityId:
    """An empty string is not an entity id, in impressions or as the click,
    as ingest-catalog rejects a title without one."""

    LINE = '{"query":"q","impressions":["",""],"clicked":""}'
    FILTER = ("--min-impressions", "1", "--min-ctr", "0")

    @pytest.fixture
    def events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"query":"q","impressions":["tt1"]}\n' + self.LINE
                        + "\n", encoding="utf-8")
        return path

    def test_aggregate_log_rejects(self, events):
        stats = ParseStats()
        kept, _ = aggregate_log(events, CtrFilter(1, 0.0), stats=stats)
        assert [(r.query, r.entity_id) for r in kept] == [("q", "tt1")]
        assert stats == ParseStats(lines=2, events=1, rejected=1)

    def test_cli_counts_the_reject(self, capsys, tmp_path, events):
        out = tmp_path / "ctr.jsonl"
        code, stdout, err = run_cli(capsys, "aggregate-ctr", "--events",
                                    events, "--out", out, *self.FILTER)
        assert (code, err) == (0, "")
        assert json.loads(stdout)["rejected_events"] == 1
        assert out.read_text(encoding="utf-8") == (
            '{"query":"q","entity_id":"tt1","nimp":1,"nclick":0,"ctr":0.0}\n')

    def test_cli_strict_error_line(self, capsys, tmp_path, events):
        out = tmp_path / "ctr.jsonl"
        code, stdout, err = run_cli(capsys, "aggregate-ctr", "--events",
                                    events, "--out", out, "--strict",
                                    *self.FILTER)
        assert (code, stdout) == (1, "")
        assert err == (f"error: {events}:2: "
                       "impressions must be a nonempty list of ids\n")
        assert not out.exists()


ids = st.sampled_from(["tt1", "tt2", "tt3"])
good_lines = st.builds(
    lambda q, imps, click, ts: dumps({"query": q, "impressions": imps,
                                      "clicked": click, "ts": ts}),
    st.sampled_from(["q", "Q ", " q", "q  r", "Q\tR"]),
    st.lists(ids, min_size=1, max_size=5),
    st.none() | ids,
    st.none() | st.integers(min_value=0, max_value=9),
)
# Objects that break one rule or more: any key may hold any JSON value.
bad_objects = st.builds(
    dumps,
    st.fixed_dictionaries({}, optional={
        "query": st.none() | st.booleans() | st.integers() | st.floats()
        | st.just(" ") | st.just("q"),
        "impressions": st.none() | st.just([]) | st.lists(
            st.none() | st.integers() | ids, max_size=3) | ids,
        "clicked": st.none() | st.integers() | st.booleans() | ids,
        "ts": st.none() | st.booleans() | st.floats() | st.integers()
        | st.just("1"),
    }),
)
log_lines = st.lists(good_lines | bad_objects | st.sampled_from(
    [bad for bad, _ in REJECT_LINES] + ["", "  ", "null", '"q"']),
    max_size=30)


class TestAggregateLog:
    """The CLI's counting path against the public ClickEvent path."""

    @given(log_lines, st.integers(min_value=1, max_value=4),
           st.sampled_from([0.0, 0.5]))
    @settings(max_examples=150, deadline=None)
    def test_equals_aggregate_filtered_of_parse_events(
            self, tmp_path_factory, lines, min_imp, min_ctr):
        path = tmp_path_factory.mktemp("log") / "events.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ctr_filter = CtrFilter(min_impressions=min_imp, min_ctr=min_ctr)
        expected_stats, stats = ParseStats(), ParseStats()
        expected = filter_records(aggregate(
            parse_events(path, stats=expected_stats)), ctr_filter)
        assert aggregate_log(path, ctr_filter, stats=stats) == expected
        assert stats == expected_stats

        def strict_error(run):
            try:
                run()
            except IngestError as exc:
                return str(exc)
            return None

        assert strict_error(lambda: aggregate_log(
            path, ctr_filter, strict=True)) == strict_error(
            lambda: list(parse_events(path, strict=True)))

    def test_tables_hold_one_object_per_entity_id(self, tmp_path):
        """An id shown under many queries is counted under one string."""
        path = tmp_path / "events.jsonl"
        path.write_text("".join(
            dumps({"query": query, "impressions": ["tt0001", "tt0002"],
                   "clicked": "tt0002"}) + "\n"
            for query in ("a", "b", "c", "a")), encoding="utf-8")
        records, _ = aggregate_log(path, CtrFilter(min_impressions=1,
                                                   min_ctr=0.0))
        assert [(r.query, r.entity_id, r.nimp) for r in records] == [
            (q, e, 1 + (q == "a")) for q in "abc" for e in ("tt0001", "tt0002")]
        assert len({id(r.entity_id) for r in records}) == 2


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def one_pass(path, ctr_filter, **kwargs):
    """aggregate_log(path, ...) read in one pass, never forking."""
    with mock.patch.object(clickstream, "_count_halves",
                           side_effect=AssertionError("forked")):
        with mock.patch.object(os, "sched_getaffinity", return_value={0},
                               create=True):
            return aggregate_log(path, ctr_filter, **kwargs)


def halves(path, ctr_filter, **kwargs):
    """aggregate_log(path, ...) counting the file's halves at once."""
    with mock.patch.object(os, "sched_getaffinity", return_value={0, 1},
                           create=True):
        return aggregate_log(path, ctr_filter, **kwargs)


ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def click_log_bytes(draw):
    """A click log of good, bad and blank lines, each ended by a newline,
    CRLF or a lone CR, perhaps behind a byte-order mark and perhaps with
    no ending after its last line."""
    lines = draw(log_lines)
    text = "".join(line + draw(st.sampled_from(ENDINGS)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "").encode() + text.encode()


# A split that lands on a blank line: half the size falls in the run of
# blank lines between the two events.
BLANK_MIDDLE = ('{"query":"q","impressions":["tt1"],"clicked":"tt1"}'
                + "\n" * 60 + '{"query":"Q","impressions":["tt1","tt2"]}\n'
                ).encode()


class TestTwoHalves:
    """aggregate_log's two-halves count against its one-pass count."""

    @given(click_log_bytes(), st.sampled_from([(1, 0.0), (2, 0.5)]))
    @example(BLANK_MIDDLE, (1, 0.0))
    @example(b"\xef\xbb\xbf" + BLANK_MIDDLE.replace(b"\n", b"\r\n"),
             (1, 0.0))
    @example(BLANK_MIDDLE.replace(b"\n", b"\r"), (1, 0.0))
    @settings(max_examples=60, deadline=None)
    def test_equals_one_pass(self, tmp_path_factory, data, thresholds):
        path = tmp_path_factory.mktemp("log") / "events.jsonl"
        path.write_bytes(data)
        ctr_filter = CtrFilter(*thresholds)
        whole_stats, two_stats = ParseStats(), ParseStats()
        whole = one_pass(path, ctr_filter, stats=whole_stats)
        assert halves(path, ctr_filter, stats=two_stats) == whole
        assert two_stats == whole_stats
        assert no_child_left()
        split = middle_line(path)
        if split is not None:
            counted, texts = ParseStats(), {}
            tables = clickstream._count_halves(path, split, counted, texts)
            assert tables == clickstream._count(path, 0, None, False,
                                                ParseStats(), {})
            assert counted == whole_stats
            assert all(texts[text] is text for table in tables
                       for query, counts in table.items()
                       for text in (query, *counts))

    def test_a_blank_middle_is_split_in_its_blank_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(BLANK_MIDDLE)
        first = BLANK_MIDDLE.index(b"\n")
        assert first < middle_line(path) < BLANK_MIDDLE.rindex(b"\n\n") + 1

    def test_no_child_after_success(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(pinned_click_log(n_events=200), encoding="utf-8")
        kept, summary = halves(path, CtrFilter(1, 0.0))
        assert (kept, summary) == one_pass(path, CtrFilter(1, 0.0))
        assert no_child_left()

    @pytest.mark.parametrize("where", ["first", "second"])
    def test_a_bad_byte_in_either_half_is_one_whole_file_error(
            self, tmp_path, where):
        good = '{"query":"q","impressions":["tt1"]}\n'.encode() * 40
        bad = b'{"query":"\xff","impressions":["tt1"]}\n'
        data = bad + good if where == "first" else good + bad
        path = tmp_path / "events.jsonl"
        path.write_bytes(data)
        assert (data.index(bad) < middle_line(path)) == (where == "first")
        with pytest.raises(IngestError) as whole:
            one_pass(path, CtrFilter())
        with pytest.raises(IngestError) as two:
            halves(path, CtrFilter())
        line = 1 if where == "first" else 41
        assert str(two.value) == str(whole.value) == (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff on "
            f"line {line} at byte offset 10: invalid start byte")
        assert no_child_left()

    @pytest.mark.parametrize("side", ["parent", "child"])
    def test_an_interrupt_kills_and_reaps_the_child(self, tmp_path, side):
        """Ctrl-C (or SIGTERM, which the CLI turns into KeyboardInterrupt)
        in the parent kills the child; in the child, it ends the child and
        the parent raises."""
        path = tmp_path / "events.jsonl"
        path.write_text(pinned_click_log(n_events=400), encoding="utf-8")
        parent = os.getpid()
        fields = clickstream._event_fields

        def interrupted(raw):
            if (os.getpid() == parent) == (side == "parent"):
                raise KeyboardInterrupt
            return fields(raw)

        with mock.patch.object(clickstream, "_event_fields", interrupted):
            with pytest.raises(KeyboardInterrupt if side == "parent"
                               else ChildProcessError):
                halves(path, CtrFilter())
        assert no_child_left()

    def test_an_interrupt_while_merging_kills_and_reaps_the_child(
            self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(pinned_click_log(n_events=400), encoding="utf-8")
        with mock.patch.object(clickstream, "_merge",
                               side_effect=KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                halves(path, CtrFilter())
        assert no_child_left()

    def test_a_child_that_dies_is_one_error_line(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text(pinned_click_log(n_events=400), encoding="utf-8")
        parent = os.getpid()
        count = clickstream._count

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return count(*args)

        out = tmp_path / "ctr.jsonl"
        with mock.patch.object(clickstream, "_count", dying), \
                mock.patch.object(os, "sched_getaffinity",
                                  return_value={0, 1}, create=True):
            code, stdout, err = run_cli(capsys, "aggregate-ctr", "--events",
                                        events, "--out", out)
        assert (code, stdout, err) == (1, "", (
            f"error: the process counting the second half of {events} "
            "ended without its counts\n"))
        assert not out.exists()
        assert no_child_left()

    def test_a_failed_fork_counts_in_one_pass(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(pinned_click_log(n_events=400), encoding="utf-8")
        with mock.patch.object(os, "fork", side_effect=BlockingIOError(
                11, "Resource temporarily unavailable")):
            assert halves(path, CtrFilter(1, 0.0)) == one_pass(
                path, CtrFilter(1, 0.0))


class TestOnePassPaths:
    """--strict, one CPU and no os.fork each read the log in one pass and
    write the bytes the two-halves count writes."""

    @pytest.fixture
    def click_log(self, tmp_path):
        path = tmp_path / "clicklog.jsonl"
        path.write_text("\n".join(pinned_click_log().splitlines()[:150])
                        + "\n", encoding="utf-8")
        return path

    def cli_bytes(self, capsys, tmp_path, click_log, *flags):
        out = tmp_path / "ctr.jsonl"
        code, stdout, err = run_cli(capsys, "aggregate-ctr", "--events",
                                    click_log, "--out", out,
                                    "--min-impressions", "1", *flags)
        assert (code, err) == (0, "")
        return out.read_bytes(), stdout

    def test_strict_one_cpu_and_no_fork(self, capsys, tmp_path, click_log,
                                        monkeypatch):
        with mock.patch.object(os, "sched_getaffinity", return_value={0, 1},
                               create=True):
            expected = self.cli_bytes(capsys, tmp_path, click_log)
        assert no_child_left()
        monkeypatch.setattr(clickstream, "_count_halves", None)
        assert self.cli_bytes(capsys, tmp_path, click_log,
                              "--strict") == expected
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert self.cli_bytes(capsys, tmp_path, click_log) == expected
        monkeypatch.undo()
        monkeypatch.setattr(clickstream, "_count_halves", None)
        monkeypatch.delattr(os, "fork")
        assert self.cli_bytes(capsys, tmp_path, click_log) == expected


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
        records = aggregate([
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

    def test_repeated_pair_rejected(self, tmp_path):
        path = tmp_path / "ctr.jsonl"
        path.write_text('{"query":"q","entity_id":"tt1","nimp":30,'
                        '"nclick":15,"ctr":0.5}\n'
                        '{"query":"q","entity_id":"tt2","nimp":30,'
                        '"nclick":15,"ctr":0.5}\n'
                        '{"query":"q","entity_id":"tt1","nimp":40,'
                        '"nclick":30,"ctr":0.75}\n', encoding="utf-8")
        with pytest.raises(IngestError) as excinfo:
            load_ctr_records(path)
        assert str(excinfo.value) == \
            f"{path}:3: bad CTR record: duplicate pair ('q', 'tt1')"

    def test_ids_must_be_strings(self, tmp_path):
        path = tmp_path / "ctr.jsonl"
        path.write_text('{"query":"q","entity_id":7,"nimp":4,"nclick":3,'
                        '"ctr":0.75}\n', encoding="utf-8")
        with pytest.raises(IngestError, match="entity_id must be str"):
            load_ctr_records(path)
