"""Exact reject texts and counters of the two lenient readers.

``parse_catalog`` and ``parse_events`` skip and count a bad row or line,
or under strict mode raise naming its file, line and reason. These texts
and counters were captured from the readers that spelled out each reject
site on its own, so they pin any rewrite of the reject path to the same
reason for the same row, the same counters and the same summary bytes.
"""

import pytest

from er_evalkit.catalog import parse_catalog
from er_evalkit.clickstream import ParseStats, parse_events
from er_evalkit.cli import dispatch
from er_evalkit.errors import IngestError

HEADERS = {
    "basics": "tconst\tprimaryTitle\tstartYear",
    "ratings": "tconst\taverageRating\tnumVotes",
    "ranks": "tconst\trank",
}
GOOD_ROWS = {
    "basics": "tt1\tGood\t2000",
    "ratings": "tt1\t7.5\t100",
    "ranks": "tt1\t1",
}


def write_dumps(tmp_path, bad_kind=None, bad_row=None):
    """One good row per dump; ``bad_row`` follows it, on line 3 of its dump."""
    paths = {}
    for kind, header in HEADERS.items():
        rows = [header, GOOD_ROWS[kind]]
        if kind == bad_kind:
            rows.append(bad_row)
        paths[kind] = tmp_path / f"{kind}.tsv"
        paths[kind].write_text("\n".join(rows) + "\n", encoding="utf-8")
    return paths["basics"], paths["ratings"], paths["ranks"]


CATALOG_REASONS = [
    ("basics", "tt2\tShort", "too few columns"),
    ("basics", "\\N\tNo Id\t2000", "missing id or title"),
    ("basics", "tt2\t\t2000", "missing id or title"),
    ("basics", "tt2\t\tabc", "missing id or title"),
    ("basics", "tt2\tBad Year\tabc", "unparseable year 'abc'"),
    ("basics", "tt2\tSigned\t+1999", "unparseable year '+1999'"),
    ("basics", "tt2\tAncient\t1200", "implausible year 1200"),
    ("ratings", "tt2\t5.0", "too few columns"),
    ("ratings", "\\N\t5.0\t10", "missing id"),
    ("ratings", "tt2\tx\t10", "unparseable rating or vote count"),
    ("ratings", "tt2\t5.0\t-3", "unparseable rating or vote count"),
    ("ratings", "tt2\t11\tx", "unparseable rating or vote count"),
    ("ratings", "tt2\t11\t10", "rating 11.0 outside [0, 10]"),
    # A rating is an ASCII digit run with at most one inner point.
    ("ratings", "tt2\t1_0\t10", "unparseable rating or vote count"),
    ("ratings", "tt2\t\u0661\u0660\t10", "unparseable rating or vote count"),
    ("ratings", "tt2\t+7.8\t10", "unparseable rating or vote count"),
    ("ratings", "tt2\t-0.0\t10", "unparseable rating or vote count"),
    ("ratings", "tt2\t1e1\t10", "unparseable rating or vote count"),
    ("ratings", "tt2\tnan\t10", "unparseable rating or vote count"),
    ("ratings", "tt2\t.5\t10", "unparseable rating or vote count"),
    ("ratings", "tt2\t5.\t10", "unparseable rating or vote count"),
    ("ratings", "tt2\t5.0.1\t10", "unparseable rating or vote count"),
    ("ranks", "tt2", "too few columns"),
    ("ranks", "tt2\t\\N", "missing id or rank"),
    ("ranks", "\\N\t3", "missing id or rank"),
    ("ranks", "tt2\t1.5", "unparseable rank '1.5'"),
    ("ranks", "tt2\t0", "rank 0 < 1"),
]


class TestCatalogRejects:
    @pytest.mark.parametrize("kind,row,reason", CATALOG_REASONS)
    def test_strict_text(self, tmp_path, kind, row, reason):
        basics, ratings, ranks = write_dumps(tmp_path, kind, row)
        with pytest.raises(IngestError) as excinfo:
            parse_catalog(basics, ratings, ranks, strict=True)
        assert str(excinfo.value) == f"{tmp_path / kind}.tsv:3: {reason}"

    @pytest.mark.parametrize("kind,row,reason", CATALOG_REASONS)
    def test_lenient_counters(self, tmp_path, kind, row, reason):
        basics, ratings, ranks = write_dumps(tmp_path, kind, row)
        catalog = parse_catalog(basics, ratings, ranks)
        expected = {"basics_rows": 1, "basics_rejected": 0,
                    "ratings_rows": 1, "ratings_rejected": 0,
                    "ratings_orphaned": 0,
                    "ranks_rows": 1, "ranks_rejected": 0, "ranks_orphaned": 0}
        expected[f"{kind}_rows"] = 2
        expected[f"{kind}_rejected"] = 1
        assert catalog.stats.as_dict() == expected
        assert [t.entity_id for t in catalog.titles] == ["tt1"]


MIXED_BASICS = """tconst\tprimaryTitle\tstartYear
tt1\tGood\t2000
tt2\tShort
\\N\tNo Id\t2000

tt3\tBad Year\tabc
tt4\tAncient\t1200
tt5\tNo Year\t\\N
"""
MIXED_RATINGS = """tconst\taverageRating\tnumVotes
tt1\t7.5\t100
tt5\t5.0
\\N\t5.0\t10
tt5\tx\t10
tt5\t11\tx
tt5\t10.5\t3
tt9\t6.0\t20
"""
MIXED_RANKS = """tconst\trank
tt1\t1
tt5
tt5\t\\N
tt5\tfirst
tt5\t0
tt8\t3
tt5\t2
"""
MIXED_STATS = (
    '{"basics_rows":6,"basics_rejected":4,"ratings_rows":7,'
    '"ratings_rejected":5,"ratings_orphaned":1,"ranks_rows":7,'
    '"ranks_rejected":4,"ranks_orphaned":1}')
MIXED_CATALOG = (
    '{"entity_id":"tt1","name":"Good","release_year":2000,"rank":1,'
    '"rating_count":100,"rating":7.5}\n'
    '{"entity_id":"tt5","name":"No Year","rank":2}\n')

MIXED_EVENTS = """{"query":"Q","impressions":["a","b"],"clicked":"a"}
not json
[1,2]
{"query":"  ","impressions":["a"]}
{"query":"q","impressions":["a",1]}
{"query":"q","impressions":["a"],"clicked":7}
{"query":"q","impressions":["a"],"ts":1.5}
{"query":"q","impressions":["a"],"clicked":"x"}

{"query":"q ","impressions":["b","b"],"ts":3}
"""
MIXED_CTR = ('{"query":"q","entity_id":"a","nimp":1,"nclick":1,"ctr":1.0}\n')

EVENT_REASONS = [
    ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ('{"query":"q"', "invalid JSON: Expecting ',' delimiter: "
                     "line 1 column 13 (char 12)"),
    ('{"query":"bad\\ud800","impressions":["a"]}',
     "invalid JSON: lone surrogate '\\ud800'"),
    ("[1,2]", "event is not an object"),
    ('"q"', "event is not an object"),
    ('{"query":"  ","impressions":["a"]}', "missing or empty query"),
    ('{"impressions":["a"]}', "missing or empty query"),
    ('{"query":"q","impressions":[]}',
     "impressions must be a nonempty list of ids"),
    ('{"query":"q","impressions":["a",1]}',
     "impressions must be a nonempty list of ids"),
    ('{"query":"q","impressions":["a",""]}',
     "impressions must be a nonempty list of ids"),
    ('{"query":"q","impressions":["",""],"clicked":""}',
     "impressions must be a nonempty list of ids"),
    ('{"query":"q","impressions":["a"],"clicked":7}',
     "clicked must be an id or null"),
    ('{"query":"q","impressions":["a"],"clicked":""}',
     "clicked must be an id or null"),
    ('{"query":"q","impressions":["a"],"ts":1.5}',
     "ts must be an integer or null"),
    ('{"query":"q","impressions":["a"],"ts":false}',
     "ts must be an integer or null"),
    ('{"query":"q","impressions":["a"],"clicked":"x"}',
     "clicked 'x' not among impressions"),
    ('{"query":"","impressions":[],"clicked":7,"ts":1.5}',
     "missing or empty query"),
]


class TestEventRejects:
    def write(self, tmp_path, line):
        path = tmp_path / "events.jsonl"
        path.write_text('{"query":"q","impressions":["a"]}\n' + line + "\n",
                        encoding="utf-8")
        return path

    @pytest.mark.parametrize("line,reason", EVENT_REASONS)
    def test_strict_text(self, tmp_path, line, reason):
        path = self.write(tmp_path, line)
        with pytest.raises(IngestError) as excinfo:
            list(parse_events(path, strict=True))
        assert str(excinfo.value) == f"{path}:2: {reason}"

    @pytest.mark.parametrize("line,reason", EVENT_REASONS)
    def test_lenient_counters(self, tmp_path, line, reason):
        stats = ParseStats()
        events = list(parse_events(self.write(tmp_path, line), stats=stats))
        assert len(events) == 1
        assert stats == ParseStats(lines=2, events=1, rejected=1)


def run_cli(capsys, *argv):
    code = dispatch([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMixedFileSummaries:
    @pytest.fixture
    def catalog_argv(self, tmp_path):
        for name, text in (("basics", MIXED_BASICS), ("ratings", MIXED_RATINGS),
                           ("ranks", MIXED_RANKS)):
            (tmp_path / f"{name}.tsv").write_text(text, encoding="utf-8")
        return ["ingest-catalog", "--basics", tmp_path / "basics.tsv",
                "--ratings", tmp_path / "ratings.tsv",
                "--ranks", tmp_path / "ranks.tsv",
                "--out", tmp_path / "catalog.jsonl"]

    def test_ingest_catalog_summary_bytes(self, capsys, tmp_path,
                                          catalog_argv):
        code, out, err = run_cli(capsys, *catalog_argv)
        assert (code, err) == (0, "")
        out_path = tmp_path / "catalog.jsonl"
        assert out == ('{"command":"ingest-catalog","titles":2,"rejects":13,'
                       f'"stats":{MIXED_STATS},"out":"{out_path}"}}\n')
        assert out_path.read_text(encoding="utf-8") == MIXED_CATALOG

    def test_ingest_catalog_strict_error_line(self, capsys, tmp_path,
                                              catalog_argv):
        code, out, err = run_cli(capsys, *catalog_argv, "--strict")
        assert (code, out) == (1, "")
        assert err == f"error: {tmp_path / 'basics.tsv'}:3: too few columns\n"
        assert not (tmp_path / "catalog.jsonl").exists()

    @pytest.fixture
    def events_argv(self, tmp_path):
        (tmp_path / "events.jsonl").write_text(MIXED_EVENTS, encoding="utf-8")
        return ["aggregate-ctr", "--events", tmp_path / "events.jsonl",
                "--out", tmp_path / "ctr.jsonl",
                "--min-impressions", "1", "--min-ctr", "0.5"]

    def test_aggregate_ctr_summary_bytes(self, capsys, tmp_path, events_argv):
        code, out, err = run_cli(capsys, *events_argv)
        assert (code, err) == (0, "")
        out_path = tmp_path / "ctr.jsonl"
        assert out == ('{"command":"aggregate-ctr","events":2,'
                       '"rejected_events":7,"pairs":2,"kept":1,"dropped":1,'
                       f'"out":"{out_path}"}}\n')
        assert out_path.read_text(encoding="utf-8") == MIXED_CTR

    def test_aggregate_ctr_strict_error_line(self, capsys, tmp_path,
                                             events_argv):
        code, out, err = run_cli(capsys, *events_argv, "--strict")
        assert (code, out) == (1, "")
        assert err == (f"error: {tmp_path / 'events.jsonl'}:2: invalid JSON: "
                       "Expecting value: line 1 column 1 (char 0)\n")
        assert not (tmp_path / "ctr.jsonl").exists()
