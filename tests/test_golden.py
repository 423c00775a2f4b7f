"""Golden bytes for evaluate, diagnose and compare on a seed-42 fixture.

The digests were taken from the implementation that scored each metric and
each diagnosis in separate passes over the ranked list, so they pin the
single-scan kernel to exactly the same report, diagnosis and delta bytes.
Two qrels files are scored: the simulator's truth set, and a derived
multi-relevant set that drops, widens and redirects queries so every
failure category occurs and one query is missing from the run.
"""

import hashlib
import json

import pytest

from er_evalkit.cli import dispatch
from er_evalkit.jsonl import load_jsonl, write_jsonl

MULTI_QRELS = "3fb7022e556a83a1ec6833e46cc9a92fb20fe4e00d39767a1b97aeb0c83ad593"

EVALUATE = {
    ("truth", 1): "dd5b61ddcb297edd2bd62a88e43f4216020acb70b19ef5ed7731fc2be6392261",
    ("truth", 5): "f553f65d4ba08a962e2cbeb6c2a0536cdaabac21142ba1beaf7322c7461b12a3",
    ("multi", 1): "83fdb9c805c61bf7496ec65ce6655d47f1119365dddfc62df360da8e7823f0d1",
    ("multi", 5): "7efb942bd5a0d1e39b952a9e2b1527198b4748a3743728922554b9c82ff7b8c4",
}

# (qrels, target bin) -> (diagnoses file, stdout summary), both at k=5.
DIAGNOSE = {
    ("truth", "high"): (
        "be693319e6028c58c1d47eceb3cdf327294dcc053fa437229711db9c5e5000a0",
        "00dbee9d02abf2e0602720b4fc663cc7d4806d5da8d484fa67f4501de127fd75"),
    ("truth", "medium"): (
        "e000f9b8ab4fa5ec2494dccbdee96e663b6e9d0acdcfc0c6cf56d5eb0e7dc6c9",
        "4c337d602b85ade46f9e5aa80c00e09791bc4bbbe064fd919ec8a315beffd589"),
    ("multi", "high"): (
        "abdec413ece9d90c1a044246eea3e1c8257dd18971b8c0f27cbc5f9b1feeb3e0",
        "1578c15024b40d0268a78a8c77028b07cb392f5c15f3720f51a5a63e28317ba3"),
    ("multi", "medium"): (
        "d0e5e9a55b6d8dcfb579b9e4fd89e3a4135bece3e9609ac707e1d320f2e577ad",
        "5f0681016963791f11736d0f78ee0bfc0d4948487f3b96f70eb4e9eddfac6483"),
}

COMPARE = "c8d4c5955bdd211722b6057fde76198b4576a82e986f55a410739d6dd5821e32"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(capsys, *argv):
    code = dispatch([str(arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def multi_qrels_rows(truth_rows, run_rows):
    """Derive the multi-relevant qrels from the truth set and the run."""
    ranked_ids = {row["query"]: [item["entity_id"] for item in row["results"]]
                  for row in run_rows}
    rows = []
    for i, row in enumerate(truth_rows):
        if i % 10 == 9:
            continue
        ids = ranked_ids[row["query"]]
        relevant = set(row["relevant"])
        if i % 3 == 0:
            relevant |= {ids[2], ids[6]}
        if i % 7 == 0:
            relevant = {f"unretrieved{i}"}
        elif i % 5 == 1:
            relevant = {ids[7]}
        rows.append({"query": row["query"], "relevant": sorted(relevant)})
    rows.append({"query": "zz unanswered", "relevant": ["unretrieved"]})
    return rows


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    assert dispatch(["simulate", "--seed", "42", "--out-dir", str(out)]) == 0
    rows = multi_qrels_rows(load_jsonl(out / "truth_qrels.jsonl"),
                            load_jsonl(out / "run.jsonl"))
    write_jsonl(out / "multi_qrels.jsonl", rows)
    return out


def qrels_path(fixture_dir, name):
    return fixture_dir / f"{name}_qrels.jsonl"


def test_multi_qrels_fixture(fixture_dir):
    path = qrels_path(fixture_dir, "multi")
    assert path.read_text().count("\n") == 451
    assert sha256(path.read_bytes()) == MULTI_QRELS


@pytest.mark.parametrize("name,k", sorted(EVALUATE))
def test_evaluate_report_bytes(capsys, fixture_dir, tmp_path, name, k):
    out = tmp_path / "report.json"
    run_cli(capsys, "evaluate", "--qrels", qrels_path(fixture_dir, name),
            "--run", fixture_dir / "run.jsonl", "-k", k, "--out", out)
    assert sha256(out.read_bytes()) == EVALUATE[(name, k)]


@pytest.mark.parametrize("name,target", sorted(DIAGNOSE))
def test_diagnose_bytes(capsys, fixture_dir, tmp_path, name, target):
    out = tmp_path / "diagnoses.jsonl"
    stdout = run_cli(capsys, "diagnose",
                     "--qrels", qrels_path(fixture_dir, name),
                     "--run", fixture_dir / "run.jsonl", "-k", 5,
                     "--target-bin", target, "--out", out)
    assert (sha256(out.read_bytes()), sha256(stdout.encode())) == \
        DIAGNOSE[(name, target)]


def test_multi_qrels_yield_every_category(capsys, fixture_dir):
    stdout = run_cli(capsys, "diagnose",
                     "--qrels", qrels_path(fixture_dir, "multi"),
                     "--run", fixture_dir / "run.jsonl")
    summary = json.loads(stdout)
    assert all(count > 0 for count in summary["counts"].values())
    assert summary["consistent"] is True


def test_compare_delta_bytes(capsys, fixture_dir, tmp_path):
    reports = {}
    for name in ("truth", "multi"):
        reports[name] = tmp_path / f"{name}.json"
        run_cli(capsys, "evaluate", "--qrels", qrels_path(fixture_dir, name),
                "--run", fixture_dir / "run.jsonl", "--out", reports[name])
    out = tmp_path / "delta.json"
    run_cli(capsys, "compare", "--baseline", reports["truth"],
            "--candidate", reports["multi"], "--out", out)
    assert sha256(out.read_bytes()) == COMPARE
