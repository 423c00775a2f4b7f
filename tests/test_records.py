"""Each JSONL record type's field table: writers emit its keys in table
order, readers load what the writers wrote, and the table order sets which
fault a record with two of them is named by.
"""

import ast
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import er_evalkit
from er_evalkit.catalog import (BASICS_COLUMNS, CATALOG_FIELDS,
                                RANKS_COLUMNS, RATINGS_COLUMNS, Catalog,
                                Title, load_catalog, write_catalog)
from er_evalkit.cli import dispatch
from er_evalkit.clickstream import (CTR_FIELDS, CtrRecord, load_ctr_records,
                                    write_ctr_records)
from er_evalkit.diagnose import (DIAGNOSIS_FIELDS, Diagnosis,
                                 FailureCategory, write_diagnoses)
from er_evalkit.errors import IngestError
from er_evalkit.importance import (SCORED_FIELDS, ComponentScores,
                                   ScoredTitle, load_scored, write_scored)
from er_evalkit.jsonl import fields, optional as optional_field
from er_evalkit.metrics import (MACRO, MICRO, REPORT_FIELDS, RUN_FIELDS,
                                RUN_ITEM_FIELDS, ConfidenceBin,
                                MetricsReport, load_run, metric_names)
from er_evalkit.relevance import (PROVENANCE_FIELDS, QRELS_FIELDS,
                                  emit_qrels, load_qrels, merge_relevance,
                                  write_qrels)

ROUND_TRIP = settings(max_examples=40, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture])
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
unit = st.floats(0.0, 1.0)


def optional(strategy):
    return st.none() | strategy


titles = st.builds(
    Title, entity_id=text, name=text,
    release_year=optional(st.integers(-10 ** 6, 10 ** 6)),
    rank=optional(st.integers(1, 10 ** 9)),
    rating_count=optional(st.integers(0, 10 ** 9)),
    rating=optional(st.floats(0.0, 10.0) | st.integers(0, 10)))
scored_titles = st.builds(
    ScoredTitle, entity_id=text,
    components=st.builds(ComponentScores, unit, unit, unit),
    importance=unit)


@st.composite
def ctr_records(draw):
    nimp = draw(st.integers(1, 10 ** 6))
    nclick = draw(st.integers(0, nimp))
    return CtrRecord(draw(text), draw(text), nimp, nclick, nclick / nimp)


diagnoses = st.builds(
    Diagnosis, query=text, category=st.sampled_from(FailureCategory),
    best_rank=optional(st.integers(1, 10 ** 6)),
    best_bin=optional(st.sampled_from(ConfidenceBin)))


def check_lines(path, table):
    """Each line holds the table's keys in table order, absent ones aside,
    and passes the table's checks."""
    keys = [key for key, _, _ in table]
    # Not splitlines: a JSON string may hold U+2028 and other separators.
    for line in path.read_text(encoding="utf-8").split("\n")[:-1]:
        rec = json.loads(line)
        assert list(rec) == [key for key in keys if key in rec]
        fields(rec, table)


@ROUND_TRIP
@given(st.lists(titles, unique_by=lambda t: t.entity_id))
def test_catalog_round_trip(tmp_path, records):
    path = tmp_path / "catalog.jsonl"
    write_catalog(Catalog(titles=records), path)
    check_lines(path, CATALOG_FIELDS)
    assert load_catalog(path).titles == records


@ROUND_TRIP
@given(st.lists(scored_titles))
def test_scored_round_trip(tmp_path, records):
    path = tmp_path / "scored.jsonl"
    write_scored(records, path)
    check_lines(path, SCORED_FIELDS)
    assert load_scored(path) == records


@ROUND_TRIP
@given(st.lists(ctr_records(), unique_by=lambda r: (r.query, r.entity_id)))
def test_ctr_round_trip(tmp_path, records):
    path = tmp_path / "ctr.jsonl"
    write_ctr_records(records, path)
    check_lines(path, CTR_FIELDS)
    assert load_ctr_records(path) == records


@ROUND_TRIP
@given(st.dictionaries(text, st.sets(text, min_size=1)))
def test_qrels_round_trip(tmp_path, entries):
    path = tmp_path / "qrels.jsonl"
    write_qrels(entries, path)
    check_lines(path, QRELS_FIELDS)
    assert load_qrels(path).entries == entries


@ROUND_TRIP
@given(st.lists(ctr_records(), unique_by=lambda r: (r.query, r.entity_id)))
def test_provenance_lines_follow_table(tmp_path, records):
    """The sidecar has no reader; each line must still pass its table."""
    scored = [ScoredTitle(entity_id, ComponentScores(1.0, 1.0, 1.0), 1.0)
              for entity_id in {record.entity_id for record in records}]
    relset, summary = merge_relevance(records, scored)
    sidecar = emit_qrels(relset, tmp_path / "qrels.jsonl")
    check_lines(sidecar, PROVENANCE_FIELDS)
    assert len(sidecar.read_text(encoding="utf-8").split("\n")) == \
        summary.included + 1


@ROUND_TRIP
@given(st.lists(diagnoses, unique_by=lambda d: d.query))
def test_diagnoses_round_trip(tmp_path, records):
    path = tmp_path / "diagnoses.jsonl"
    write_diagnoses(records, path)
    check_lines(path, DIAGNOSIS_FIELDS)


# Each case is one record type's file whose last line has two faults; the
# error names the one its table checks first.
GOOD_TITLE = '{"entity_id":"tt1","name":"A"}'
TWO_FAULTS = {
    "catalog: a repeated id with no name": (
        load_catalog, [GOOD_TITLE, '{"entity_id":"tt1"}'],
        "bad catalog record: 'name'"),
    "scored: a bad id and a component out of range": (
        load_scored, ['{"entity_id":7,"release_year_score":1.5,'
                      '"rank_score":0,"rating_count_score":0,'
                      '"importance":0}'],
        "bad scored record: entity_id must be str, got 7"),
    "scored: a component out of range and a bad importance": (
        load_scored, ['{"entity_id":"tt1","release_year_score":1.5,'
                      '"rank_score":0,"rating_count_score":0,'
                      '"importance":"x"}'],
        "bad scored record: importance must be int or float, got 'x'"),
    "CTR: nclick over nimp and a bad ctr": (
        load_ctr_records, ['{"query":"q","entity_id":"e","nimp":1,'
                           '"nclick":2,"ctr":"x"}'],
        "bad CTR record: ctr must be int or float, got 'x'"),
    "qrels: a repeated query with no relevant list": (
        load_qrels, ['{"query":"q","relevant":["A"]}',
                     '{"query":"q","relevant":"A"}'],
        "bad qrels record: relevant must be list, got 'A'"),
    "run: a repeated query with no result list": (
        load_run, ['{"query":"q","results":[]}', '{"query":"q"}'],
        "bad run record: 'results'"),
}


@pytest.mark.parametrize("case", list(TWO_FAULTS))
def test_first_fault_in_table_order_is_named(tmp_path, case):
    load, lines, message = TWO_FAULTS[case]
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IngestError) as caught:
        load(path)
    assert str(caught.value) == f"{path}:{len(lines)}: {message}"


def test_report_header_fault_in_table_order_is_named(tmp_path):
    """k below 1 and no bins: the missing key is named first."""
    path = tmp_path / "report.json"
    path.write_text('{"k":0,"counts":{},"aggregates":{},"per_query":{}}',
                    encoding="utf-8")
    with pytest.raises(IngestError) as caught:
        MetricsReport.load(path)
    assert str(caught.value) == \
        f"{path}: not a metrics report: KeyError('bins')"


# 1 then 400 zeros: no float holds it, and its log is BIG + 1's.
BIG = 10 ** 400
ABSENT = object()
# Values of each type a field table names: small ones that pass the range
# checks, any, and numbers past float range or at its extremes.
TYPED = {
    str: st.sampled_from(["a", "b", "q"]) | text,
    int: st.integers(0, 3000) | st.integers() | st.sampled_from(
        [BIG, BIG + 1, -BIG, 2 ** 1024]),
    float: unit | st.floats() | st.sampled_from(
        [sys.float_info.max, -sys.float_info.max, 5e-324, -0.0]),
    list: st.lists(st.sampled_from(["a", "b"]) | text, max_size=3),
}


def table_record(table, **by_field):
    """Dicts drawn field by field from ``table``'s types, in table order;
    an optional field may also be null or absent. ``by_field`` draws the
    fields no type describes."""
    def draw_field(name, check, types):
        typed = by_field[name] if name in by_field else st.one_of(
            *map(TYPED.get, types))
        return st.sampled_from([ABSENT, None]) | typed \
            if check is optional_field else typed

    return st.fixed_dictionaries({
        name: draw_field(name, check, types) for name, check, types in table
    }).map(lambda rec: {name: value for name, value in rec.items()
                        if value is not ABSENT})


def table_records(table, *key, **by_field):
    """Up to four :func:`table_record` dicts, no two alike in ``key``."""
    return st.lists(table_record(table, **by_field), max_size=4,
                    unique_by=lambda rec: tuple(rec[name] for name in key))


STAGE_FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
REPRO = {"bounds": None, "scored": [], "ctr": [], "qrels": [], "run": []}


def titles_with(*year_rank):
    return [{"entity_id": f"tt{i}", "name": "A", "release_year": year,
             "rank": rank, "rating_count": 10}
            for i, (year, rank) in enumerate(year_rank)]


@STAGE_FUZZ
@given(catalog=table_records(CATALOG_FIELDS, "entity_id"),
       bounds=st.none() | st.lists(TYPED[int], min_size=5, max_size=5).map(
           lambda values: ",".join(map(str, values))),
       scored=table_records(SCORED_FIELDS, "entity_id"),
       ctr=table_records(CTR_FIELDS, "query", "entity_id"),
       qrels=table_records(QRELS_FIELDS, "query"),
       run=table_records(RUN_FIELDS, "query", results=st.lists(table_record(
           RUN_ITEM_FIELDS, bin=st.sampled_from(
               [bin.value for bin in ConfidenceBin])), max_size=4)))
@example(**{**REPRO, "catalog": titles_with((2000, 5)),
            "bounds": f"1950,2020,{BIG},{BIG + 1},1000"})
@example(**{**REPRO, "catalog": titles_with((BIG, 5)),
            "bounds": "1900,2000,1,10,100"})
@example(**{**REPRO, "catalog": titles_with((2000, BIG), (2001, BIG + 1))})
def test_stages_take_any_typed_value(tmp_path, capsys, catalog, bounds,
                                     scored, ctr, qrels, run):
    """Records whose every field has a type its table names: each stage
    reading them exits 0, or 1 with exactly one error line."""
    for name, records in (("catalog", catalog), ("scored", scored),
                          ("ctr", ctr), ("qrels", qrels), ("run", run)):
        (tmp_path / f"{name}.jsonl").write_text("".join(
            json.dumps(rec, ensure_ascii=False) + "\n" for rec in records),
            encoding="utf-8")
    path = {name: str(tmp_path / f"{name}.jsonl") for name in
            ("catalog", "scored", "ctr", "qrels", "run", "out")}
    for argv in (
            ["score-importance", "--catalog", path["catalog"], "--out",
             path["out"], *([f"--bounds={bounds}"] if bounds else [])],
            ["build-relevance", "--ctr", path["ctr"], "--scored",
             path["scored"], "--out", path["out"]],
            ["evaluate", "--qrels", path["qrels"], "--run", path["run"]],
            ["diagnose", "--qrels", path["qrels"], "--run", path["run"]]):
        code = dispatch(argv)
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert (code, len(errors)) in ((0, 0), (1, 1)), (argv, err)


def assert_one_outcome(capsys, argv):
    """``dispatch(argv)`` exits 0, or 1 with exactly one ``error:`` line;
    an exception it lets through fails the test with its traceback."""
    code = dispatch([str(arg) for arg in argv])
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert (code, len(errors)) in ((0, 0), (1, 1)), (argv, err)


def mostly(strategy, other, odds=3):
    """``strategy``, but ``other`` once in ``odds + 1`` draws, so examples
    that pass most checks still reach the later ones. ``other`` is drawn at
    the top of the range: Hypothesis favours 0, and shrinks towards it."""
    return st.integers(0, odds).flatmap(
        lambda i: strategy if i < odds else other)


def any_of(own):
    """Mostly a value of type ``own``, else null or any typed value."""
    return mostly(TYPED[own], st.none() | st.one_of(*TYPED.values()))


# A click-log line: an object of typed values for the four event keys, each
# maybe absent, or any typed value, or any text. One file in four ends in
# arbitrary bytes.
event_lines = mostly(st.fixed_dictionaries({}, optional={
    "query": any_of(str), "impressions": any_of(list),
    "clicked": any_of(str), "ts": any_of(int),
}).map(json.dumps), st.one_of(*TYPED.values()).map(json.dumps) | text)
event_files = st.builds(lambda lines, tail: "\n".join(lines).encode() + tail,
                        st.lists(event_lines, max_size=6),
                        mostly(st.just(b""), st.binary(max_size=8)))


@STAGE_FUZZ
@given(log=event_files, strict=st.booleans())
def test_aggregate_ctr_takes_any_line(tmp_path, capsys, log, strict):
    events = tmp_path / "events.jsonl"
    events.write_bytes(log)
    assert_one_outcome(capsys, [
        "aggregate-ctr", "--events", events, "--out", tmp_path / "ctr.jsonl",
        "--min-impressions", "1", *(["--strict"] if strict else [])])


# A TSV cell: the missing token, a digit or non-digit run, or rarely a tab
# (so one more cell) or a cell over the csv module's field limit.
cells = mostly(st.just("\\N") | st.from_regex(r"\A[0-9]{1,5}\Z")
               | st.text(st.characters(blacklist_categories=("Cs", "Nd")),
                         max_size=6),
               st.sampled_from(["\t", "x" * 131_073]), odds=31)
ids = st.sampled_from(["tt1", "tt2", "tt3", "tt4", "tt5"]) | cells


def dumps_of(columns):
    """A TSV dump: mostly its header, then up to five rows, each mostly an
    id and one cell per other column."""
    shaped = st.builds(lambda first, rest: "\t".join([first, *rest]), ids,
                       st.lists(cells, min_size=len(columns) - 1,
                                max_size=len(columns) - 1))
    any_row = st.lists(cells, max_size=5).map("\t".join)
    return st.builds(lambda head, body: "\n".join([head, *body]) + "\n",
                     mostly(st.just("\t".join(columns)), any_row, odds=7),
                     st.lists(mostly(shaped, any_row, odds=7), max_size=5))


@STAGE_FUZZ
@given(basics=dumps_of(BASICS_COLUMNS), ratings=dumps_of(RATINGS_COLUMNS),
       ranks=st.none() | dumps_of(RANKS_COLUMNS), strict=st.booleans())
def test_ingest_catalog_takes_any_cells(tmp_path, capsys, basics, ratings,
                                        ranks, strict):
    paths = []
    for name, text in (("basics", basics), ("ratings", ratings),
                       ("ranks", ranks)):
        if text is not None:
            paths += [f"--{name}", tmp_path / f"{name}.tsv"]
            paths[-1].write_text(text, encoding="utf-8")
    assert_one_outcome(capsys, [
        "ingest-catalog", *paths, "--out", tmp_path / "catalog.jsonl",
        *(["--strict"] if strict else [])])


def reports(k):
    """A report of typed values for REPORT_FIELDS, mostly shaped like one
    at ``k``, or rarely any typed value in place of the whole report."""
    value = mostly(st.none() | unit, TYPED[float] | TYPED[int], odds=255)
    anything = st.one_of(value, *TYPED.values())

    def rows(keys):
        return mostly(st.fixed_dictionaries({key: value for key in keys}),
                      anything, odds=127)

    return mostly(table_record(
        REPORT_FIELDS, k=mostly(st.just(k), TYPED[int], odds=7),
        bins=mostly(st.just([bin.value for bin in ConfidenceBin]),
                    TYPED[list], odds=7),
        counts=st.dictionaries(text, TYPED[int], max_size=3),
        aggregates=st.fixed_dictionaries({
            name: rows((MICRO, MACRO)) for name in metric_names(k)}),
        per_query=st.dictionaries(text, rows(metric_names(k)), max_size=3),
    ), anything, odds=7)


@STAGE_FUZZ
@given(k_and_reports=st.sampled_from([1, 2]).flatmap(
           lambda k: st.tuples(reports(k), reports(k))),
       fmt=st.sampled_from(["json", "table"]))
def test_compare_takes_any_typed_report(tmp_path, capsys, k_and_reports,
                                        fmt):
    paths = []
    for name, report in zip(("baseline", "candidate"), k_and_reports):
        paths += [f"--{name}", tmp_path / f"{name}.json"]
        paths[-1].write_text(json.dumps(report, ensure_ascii=False),
                             encoding="utf-8")
    assert_one_outcome(capsys, [
        "compare", *paths, "--format", fmt, "--out",
        tmp_path / "delta.json"])


# Field tables no stage fuzzer draws, and why. The round-trip tests above
# still check each line their writers emit.
UNDRAWN_TABLES = {
    "PROVENANCE_FIELDS": "no reader: the qrels sidecar is only written",
    "DIAGNOSIS_FIELDS": "no reader: diagnose --out is only written",
}


def test_every_field_table_is_drawn():
    """Each module-level *_FIELDS tuple of the package is drawn through
    table_record or table_records in this file, or is an UNDRAWN_TABLES
    entry; an entry that is drawn is stale."""
    tables = {name for info in pkgutil.iter_modules(er_evalkit.__path__)
              for name, value in vars(importlib.import_module(
                  f"er_evalkit.{info.name}")).items()
              if name.endswith("_FIELDS") and isinstance(value, tuple)}
    drawn = {node.args[0].id
             for node in ast.walk(ast.parse(Path(__file__).read_text(
                 encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("table_record", "table_records")
             and isinstance(node.args[0], ast.Name)}
    assert tables - drawn == set(UNDRAWN_TABLES)
