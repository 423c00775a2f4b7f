"""Each JSONL record type's field table: writers emit its keys in table
order, readers load what the writers wrote, and the table order sets which
fault a record with two of them is named by.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from er_evalkit.catalog import (CATALOG_FIELDS, Catalog, Title,
                                load_catalog, write_catalog)
from er_evalkit.clickstream import (CTR_FIELDS, CtrRecord, load_ctr_records,
                                    write_ctr_records)
from er_evalkit.diagnose import (DIAGNOSIS_FIELDS, Diagnosis,
                                 FailureCategory, load_diagnoses,
                                 write_diagnoses)
from er_evalkit.errors import IngestError
from er_evalkit.importance import (SCORED_FIELDS, ComponentScores,
                                   ScoredTitle, load_scored, write_scored)
from er_evalkit.jsonl import fields
from er_evalkit.metrics import ConfidenceBin, MetricsReport, load_run
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
    assert load_diagnoses(path) == records


# Each case is one record type's file whose last line has two faults; the
# error names the one its table checks first.
GOOD_TITLE = '{"entity_id":"tt1","name":"A"}'
GOOD_DIAGNOSIS = '{"query":"q","category":"success"}'
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
    "diagnoses: a repeated query with a bad category": (
        load_diagnoses, [GOOD_DIAGNOSIS, '{"query":"q","category":1}'],
        "bad diagnosis: category must be str, got 1"),
    "diagnoses: a bad rank with a bad category": (
        load_diagnoses, ['{"query":"q","category":"bogus","best_rank":0}'],
        "bad diagnosis: best_rank must be >= 1, got 0"),
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
