"""Lone surrogates: valid JSON that no UTF-8 writer can copy.

A ``\\ud800`` escape with no low half after it decodes to a string that
UTF-8 cannot encode, so every reader refuses it as ``invalid JSON``, named
by file and line, before any stage prints or writes. A surrogate pair is
one character and loads like any other.
"""

import json

import pytest

from er_evalkit.catalog import load_catalog
from er_evalkit.cli import dispatch
from er_evalkit.clickstream import load_ctr_records, parse_events
from er_evalkit.errors import IngestError
from er_evalkit.importance import load_scored
from er_evalkit.jsonl import decode, load_jsonl
from er_evalkit.metrics import MetricsReport, evaluate_run, load_run
from er_evalkit.relevance import RelevanceSet, load_qrels

LONE = "lone surrogate '\\ud800'"
# One good line per reader; each holds "tt1", which the bad line spells
# "tt1\ud800" (a JSON escape in the file).
READERS = {
    "catalog": (load_catalog, '{"entity_id":"tt1","name":"A"}'),
    "scored": (load_scored, '{"entity_id":"tt1","release_year_score":1,'
                            '"rank_score":0,"rating_count_score":0,'
                            '"importance":0.5}'),
    "ctr": (load_ctr_records, '{"query":"q","entity_id":"tt1","nimp":2,'
                              '"nclick":1,"ctr":0.5}'),
    "qrels": (load_qrels, '{"query":"q","relevant":["tt1"]}'),
    "run": (load_run, '{"query":"q","results":[{"entity_id":"tt1",'
                      '"score":1.0,"bin":"high"}]}'),
    "events": (lambda path: list(parse_events(path, strict=True)),
               '{"query":"q","impressions":["tt1"]}'),
    "jsonl": (load_jsonl, '{"tt1":1}'),
}


@pytest.mark.parametrize("reader", list(READERS))
def test_each_reader_names_the_line(tmp_path, reader):
    load, good = READERS[reader]
    path = tmp_path / f"{reader}.jsonl"
    bad = good.replace('"tt1"', '"tt1\\ud800"')
    path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
    with pytest.raises(IngestError) as caught:
        load(path)
    assert str(caught.value) == f"{path}:2: invalid JSON: {LONE}"


def test_report_reader(tmp_path):
    path = tmp_path / "report.json"
    evaluate_run(RelevanceSet(), [], k=1).save(path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"k":1', '"k\\ud800":1,"k":1'),
                    encoding="utf-8")
    with pytest.raises(IngestError) as caught:
        MetricsReport.load(path)
    assert str(caught.value) == \
        f"cannot load report {path}: invalid JSON: {LONE}"


@pytest.mark.parametrize("text,found", [
    ('"\\udc00"', "'\\udc00'"),                   # a low half alone
    ('["\\ude00\\ud83d"]', "'\\ude00'"),          # halves in the wrong order
    ('{"a":{"b\\udfff":null}}', "'\\udfff'"),     # in a nested key
    ('"\\uD800"', "'\\ud800'"),                   # upper-case hex
])
def test_lone_halves_anywhere(text, found):
    with pytest.raises(ValueError) as caught:
        decode(text)
    assert str(caught.value) == f"invalid JSON: lone surrogate {found}"


@pytest.mark.parametrize("text,value", [
    ('"\\ud83d\\ude00"', "\U0001F600"),           # a pair is one character
    ('"a\\\\ud800"', "a\\ud800"),                 # an escaped backslash
    ('"\\u00e9"', "é"),
])
def test_other_escapes_load(text, value):
    assert decode(text) == value


def test_deep_nesting_is_walked_without_recursion():
    depth = 900
    good = "[" * depth + '"\\u0041"' + "]" * depth
    value = decode(good)
    for _ in range(depth):
        (value,) = value
    assert value == "A"
    with pytest.raises(ValueError, match="lone surrogate"):
        decode(good.replace("0041", "d800"))


def run_cli(capsys, *argv):
    code = dispatch([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lenient_aggregate_counts_the_line(capsys, tmp_path):
    events = tmp_path / "events.jsonl"
    events.write_text('{"query":"q","impressions":["a"],"clicked":"a"}\n'
                      '{"query":"bad\\ud800","impressions":["a"]}\n',
                      encoding="utf-8")
    out = tmp_path / "ctr.jsonl"
    code, stdout, err = run_cli(capsys, "aggregate-ctr", "--events", events,
                                "--out", out, "--min-impressions", "1")
    assert (code, err) == (0, "")
    summary = json.loads(stdout)
    assert (summary["events"], summary["rejected_events"]) == (1, 1)
    assert out.read_text(encoding="utf-8") == (
        '{"query":"q","entity_id":"a","nimp":1,"nclick":1,"ctr":1.0}\n')


@pytest.mark.parametrize("command", ["evaluate", "diagnose"])
def test_report_stage_prints_and_writes_nothing(capsys, tmp_path, command):
    qrels = tmp_path / "qrels.jsonl"
    qrels.write_text('{"query":"q","relevant":["A"]}\n', encoding="utf-8")
    run = tmp_path / "run.jsonl"
    run.write_text('{"query":"q","results":[{"entity_id":"A","score":1.0,'
                   '"bin":"high"}]}\n'
                   '{"query":"r\\ud800","results":[]}\n', encoding="utf-8")
    code, stdout, err = run_cli(capsys, command, "--qrels", qrels,
                                "--run", run, "--out", tmp_path / "out.json")
    assert (code, stdout) == (1, "")
    assert err == f"error: {run}:2: invalid JSON: {LONE}\n"
    assert sorted(tmp_path.iterdir()) == [qrels, run]
