"""Arbitrary bytes in every input file a stage reads.

Each test writes one input as arbitrary bytes, or as a valid input with a
few bytes inserted, deleted or flipped, keeps every other input valid, and
runs the stage through ``cli.dispatch``: it exits 0, or 1 with exactly one
``error:`` line on stderr and no traceback. An exception that escapes
dispatch fails the test with its own traceback.
"""

import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from er_evalkit.cli import dispatch

from test_records import assert_one_outcome

BYTES_FUZZ = settings(max_examples=75, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.too_slow])

CONFIG = """\
# every key a file stage reads
k = 3
format = table
target_bin = medium
strict = false
year_window = 1900,2030
weights = 1/2,1/4,1/4
missing_feature_policy = default_score
default_component_score = 0.5
bounds = 1900,2030,1,12,1000
min_impressions = 1
min_ctr = 0.2
min_importance = 0.1
"""


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A small valid input of each kind, each stage run once on them."""
    d = tmp_path_factory.mktemp("valid")
    sim = d / "sim"
    (d / "config.ini").write_text(CONFIG, encoding="utf-8")
    for argv in (
            ["simulate", "--seed", "3", "--out-dir", sim, "--n-titles", "12",
             "--n-queries", "4", "--n-replays", "3", "--retrieve-m", "5"],
            ["ingest-catalog", "--basics", sim / "basics.tsv", "--ratings",
             sim / "ratings.tsv", "--ranks", sim / "ranks.tsv",
             "--out", d / "catalog.jsonl"],
            ["score-importance", "--catalog", d / "catalog.jsonl",
             "--out", d / "scored.jsonl"],
            ["aggregate-ctr", "--events", sim / "clicklog.jsonl",
             "--out", d / "ctr.jsonl", "--min-impressions", "1"],
            ["build-relevance", "--ctr", d / "ctr.jsonl", "--scored",
             d / "scored.jsonl", "--out", d / "qrels.jsonl"],
            ["evaluate", "--qrels", d / "qrels.jsonl", "--run",
             sim / "run.jsonl", "--out", d / "report.json", "-k", "3"]):
        assert dispatch(list(map(str, argv))) == 0, argv
    for name in ("basics.tsv", "ratings.tsv", "ranks.tsv", "clicklog.jsonl",
                 "run.jsonl"):
        shutil.move(sim / name, d / name)
    return d


def stages(inp, out):
    """The stages reading the inputs in ``inp``, writing under ``out``."""
    tsv = ["--basics", inp / "basics.tsv", "--ratings", inp / "ratings.tsv",
           "--ranks", inp / "ranks.tsv", "--out", out / "catalog.jsonl"]
    return {
        "ingest-catalog": ["ingest-catalog", *tsv],
        "score-importance": ["score-importance", "--catalog",
                             inp / "catalog.jsonl", "--out",
                             out / "scored.jsonl"],
        "aggregate-ctr": ["aggregate-ctr", "--events", inp / "clicklog.jsonl",
                          "--out", out / "ctr.jsonl", "--min-impressions",
                          "1"],
        "build-relevance": ["build-relevance", "--ctr", inp / "ctr.jsonl",
                            "--scored", inp / "scored.jsonl",
                            "--out", out / "qrels.jsonl"],
        "evaluate": ["evaluate", "--qrels", inp / "qrels.jsonl", "--run",
                     inp / "run.jsonl", "-k", "3", "--out",
                     out / "report.json"],
        "diagnose": ["diagnose", "--qrels", inp / "qrels.jsonl", "--run",
                     inp / "run.jsonl", "--out", out / "diagnoses.jsonl"],
        "compare": ["compare", "--baseline", inp / "report.json",
                    "--candidate", inp / "report.json"],
    }


# Each input file, and the stages that read it.
READERS = {
    "basics.tsv": ["ingest-catalog"],
    "ratings.tsv": ["ingest-catalog"],
    "ranks.tsv": ["ingest-catalog"],
    "clicklog.jsonl": ["aggregate-ctr"],
    "catalog.jsonl": ["score-importance"],
    "scored.jsonl": ["build-relevance"],
    "ctr.jsonl": ["build-relevance"],
    "qrels.jsonl": ["diagnose"],
    "run.jsonl": ["evaluate"],
    "report.json": ["compare"],
    "config.ini": ["ingest-catalog", "score-importance", "aggregate-ctr",
                   "build-relevance", "diagnose"],
}


@st.composite
def damaged(draw, data):
    """``data`` with one to four bytes or short runs inserted, deleted or
    flipped, at positions anywhere in it."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["insert", "delete", "flip"]))
        if edit == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif edit == "delete":
            del data[at:at + draw(st.integers(1, 4))]
        elif at < len(data):
            data[at] ^= draw(st.integers(1, 255))
    return bytes(data)


@BYTES_FUZZ
@pytest.mark.parametrize("name", sorted(READERS))
@given(data=st.data())
def test_any_bytes_exit_0_or_one_error_line(valid, tmp_path, capsys, name,
                                            data):
    original = (valid / name).read_bytes()
    blob = data.draw(st.binary(max_size=300) | damaged(original), "blob")
    inp = tmp_path / "in"
    if not inp.exists():
        shutil.copytree(valid, inp)
    (inp / name).write_bytes(blob)
    capsys.readouterr()
    for stage in READERS[name]:
        argv = stages(inp, tmp_path)[stage]
        assert_one_outcome(capsys, [*argv, *(
            ["--config", inp / name] if name == "config.ini" else [])])
