"""Golden bytes for simulate, and for evaluate, diagnose and compare on a
seed-42 fixture.

The simulate digests were taken from the scalar edit-distance kernel with
one Gaussian draw per call, so they pin any faster matcher to exactly the
same fixture bytes. The ``ties`` run turns the noise off and keeps every
title, so equal scores are common and the entity_id tie-break decides much
of each ranking. The ``sigma1``, ``m1``, ``m_over_titles``, ``replays700``
and ``decay1`` digests were taken from the matcher that drew and scored
every title's noise, and from one ``random()`` call per click replay. They
pin wide noise, a one-entry list, a list longer than the catalog, a click
batch longer than one packed pass, and certain clicks.

The digests were taken from the implementation that scored each metric and
each diagnosis in separate passes over the ranked list, so they pin the
single-scan kernel to exactly the same report, diagnosis and delta bytes.
Two qrels files are scored: the simulator's truth set, and a derived
multi-relevant set that drops, widens and redirects queries so every
failure category occurs and one query is missing from the run.

The ``layout`` digests were taken from the implementation that built one
RankedEntity object per result, so they pin the columnar run lists to the
same report, diagnosis and warning bytes. Its run mixes integer and float
scores, lists that rise down the ranking, empty lists and lists longer
than k.

The ``TABLE`` digests pin the ``--format table`` stdout of evaluate,
diagnose and compare on the seed-42 fixture. They were taken from the
implementation whose report ``to_dict`` rebuilt every per-query row.

The evaluate stdout pins (JSON with and without --out, table with --out)
and the compare JSON stdout pin reuse the ``EVALUATE``, ``TABLE`` and
``COMPARE`` digests: checked against the implementation that encoded the
whole report as one string, the JSON stdout of each command is its --out
file's bytes.
"""

import hashlib
import json
import logging
import os
import random
import subprocess
import sys

import pytest

from er_evalkit.cli import dispatch
from er_evalkit.jsonl import load_jsonl, middle_line, write_jsonl

from peak import SRC

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

SIMULATE_FILES = ("basics.tsv", "ratings.tsv", "ranks.tsv", "clicklog.jsonl",
                  "run.jsonl", "truth_qrels.jsonl")

SIMULATE = {
    "seed0": (("--seed", 0), (
        "d581101cbf4b85d3c7e54fce0ae6feb95b5cc5c020c9f0d775b822ce069907b3",
        "a07dfdab7a2db988dc439d28ee3820e84c326e6e3423551a0aa35e627b3c37da",
        "92238f0bc8c615752c70949ea1e964ec86b851e89dbfaa950c906f008a610df4",
        "04420dd57ce24703dd2a73b38e45260706022f60ec14141dbedb6f9ac4c9a27e",
        "52cf92bafbc29b7ebbcb9edd280ab4fd9c2b41872f6d1bb2c10a6771bdfc76da",
        "1a075d0888999e1ad2f8482084565441a58e136488431826444dec007dcae5a4")),
    "seed42": (("--seed", 42), (
        "2b178349bc7d01dba758d13c9a0cc83296841bb0618e5a6ebe16bb38d2105809",
        "405b47fad3e281a7206fcc0aaf002ce7f6fea453870bff078d12b975099e5c33",
        "c8686871dd54186e2e52e1633400b31423d01a4c37fa447332bc89064dac9838",
        "390a779219d3cc6a0be149bb32be62f032ee935114403d205b2fce818e0664a8",
        "5242b36987f0d0f911d4e489825b2a2f01e22b12b08c11907d84bfd4fb6ac934",
        "51fb1dc879e9acc000f46e364218e43a93647bc9462bcda48232eeeb95b82776")),
    "ties": (("--seed", 7, "--score-noise-sigma", 0, "--retrieve-m", 1000,
              "--n-queries", 100, "--n-replays", 1), (
        "604721e62db31e252272e6a4e960f0326ea588a1a6d3fedc968eac9af6a7dc64",
        "513501ad51f0fc53dc9c07505522108053a3f00dfa461b18ebbeba1ef1aefd03",
        "def1660f4852f374b800913ac1e859b2de99acab0204eeeccb3069e8ecf5536c",
        "da25aec86391d38d490944137211d0e398e8bb18e8f0b4c1e14002adb8f8ecc5",
        "3719a2364d2167c2c446f38fb46963231635609716c18f1a14a2407b6fbe451b",
        "adeb48351e9d0e379b48c208ff7bf2396cfd76c6ac9081a87143011a8d254c45")),
    "sigma1": (("--seed", 7, "--score-noise-sigma", 1.0, "--n-queries", 100), (
        "604721e62db31e252272e6a4e960f0326ea588a1a6d3fedc968eac9af6a7dc64",
        "513501ad51f0fc53dc9c07505522108053a3f00dfa461b18ebbeba1ef1aefd03",
        "def1660f4852f374b800913ac1e859b2de99acab0204eeeccb3069e8ecf5536c",
        "8abf3b363fe3af5f18109d84608c7a93415e48b4aedc697cae11882422100fe1",
        "d12885d2faef175f48281476074ba540d0939044ede20e43a611464dcbcbae39",
        "adeb48351e9d0e379b48c208ff7bf2396cfd76c6ac9081a87143011a8d254c45")),
    "m1": (("--seed", 11, "--retrieve-m", 1, "--n-queries", 100), (
        "ecb1611f3053d1486fce2607946921e6cd30590145050538cc676d5ae47f8920",
        "27c64cd89e6383e6eeebec5c088794ca86b2ba970ac93870933abd913b0cdd2c",
        "0627974876f1c142711d019e6a57754bc0c56b6884f931cea205686a35f9625a",
        "8727f0520bb523ac282c3ee4102a8a879a207df28a8733025a0e025009d2e1c8",
        "42f7ffaf92c90dbdb4c8a22688ea395a41d054c4d290625ef01236a86e39c801",
        "de0f5754ed544afff340abaf6096be355e8d61f59ae3fb0a49620ab89ce230f0")),
    "m_over_titles": (("--seed", 5, "--n-titles", 30, "--n-queries", 30,
                       "--retrieve-m", 50), (
        "9b8a2cb3f429d5026ae23d7929234b09207b8b9afb32d2264eb0a1cef02eb1d9",
        "f08f549e11f63e79e27ca1ce1def2076b4e21e1ff9136f2945bf1dd45f2bcc5b",
        "ab8b2fef007ffcb73ae2ad29a5aed4e8bebfec633c7a9e9a84e44091742af968",
        "834f6bd0705e2084d1abcee02765e1b7bfbb18f1acbf4c5775bbeaccf8f8b7a7",
        "6abc554f361c529fc8f1eed12fd8529b7f179ee0646fb747abda1c1b5460a334",
        "8fc6c1845674991936a64573bb3a1ac5c4cf40b894ccf788f4a10fcc941f93fa")),
    "replays700": (("--seed", 3, "--n-queries", 60, "--n-replays", 700), (
        "83a0540af1abdc891c814c6c2ff996125991bcd2fd2df7c4cbe23c958a6c8e4b",
        "3e9014a5bcf241e23e546d7738867bee8be7d2782c4d73920c0456fbdfb80d51",
        "4700e99aee172d7732c4c6f92e01a58743dcb794f408b89fd93889291581d63e",
        "9156d6c269ba7d5e47f119fe96a63054196eb57cb2da1921f7f4647cfbacadc4",
        "40a9de7c542c3591f7ef04abc6d3ee44b364e0101d819abc6deeea10a73d7926",
        "ee50b7a6cce8d9b195900c8ad315a20b50e2a2fedf870d76d666174116431a5e")),
    "decay1": (("--seed", 9, "--click-position-decay", 1.0,
                "--n-queries", 100), (
        "603a27376db08603a940598782b1c5f5073f5160db43d6b2fb584811ef85d043",
        "3b426053131802712f3a1f0e5c304fa4ce30c0e2b7f9ea60e1fdd9dd317dda6a",
        "6de46135f38b25d806fbbfb9419b89d169aaff8478f7923214c7f8c25bad07c9",
        "5d446bc9f1207f4debb2ea5acdc2586e79b87c41b213f21ad7e222e30393f307",
        "ebfcc6935733d4c11e25c7857e52be4ba8b2e6f068fc1e54aca43a1853a1cd0e",
        "8678d5315ddb767043c13f03a6d6c61f0d3050d4eeb0d9f48eab465695d58cf1")),
}

COMPARE = "c8d4c5955bdd211722b6057fde76198b4576a82e986f55a410739d6dd5821e32"

# --format table stdout: (command, qrels, k or target bin) -> digest.
TABLE = {
    ("evaluate", "truth", 1): "8a03973803a0f8cf237fdfa36f958874a2ad5da4337646ff8f2795877061e5b2",
    ("evaluate", "truth", 5): "5502464a219843277c2adf6fc7da91668f54dc603dcf3354f0be84f7223e365a",
    ("evaluate", "multi", 1): "646c831e7b1ac7ec9028c9ae6cbce17dda3684468d017d2563c270fcb6022cd8",
    ("evaluate", "multi", 5): "b115e576201bcca07092f76ba7c8d3b6c98c834e0dfcf0abfb194e03f2208c8a",
    ("diagnose", "truth", "high"): "765997aeca5f09e41c9df91acd44a4a200646f72168b243b8dffb0f8e802e61d",
    ("diagnose", "truth", "medium"): "a02ff01b2ed9af1c58b78161924da0b9c46b4f384caef96861544b94c2787d45",
    ("diagnose", "multi", "high"): "990e866120275b51b4622670255b280b6c34bdc83af40e34085d9f37b0fc7154",
    ("diagnose", "multi", "medium"): "f49bf10c568cf662df1ef2e5177a62ebfc7f83b2406f6e5a186036dea5354584",
}

COMPARE_TABLE = "02576bc28ec86a1c904ccbde53fc81b74f3c9f4713d6fe4940dc3bbf6fc8c3a5"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(capsys, *argv):
    code = dispatch([str(arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_bytes(capsys, tmp_path, name):
    argv, digests = SIMULATE[name]
    run_cli(capsys, "simulate", *argv, "--out-dir", tmp_path)
    got = {f: sha256((tmp_path / f).read_bytes()) for f in SIMULATE_FILES}
    assert got == dict(zip(SIMULATE_FILES, digests))


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


@pytest.mark.parametrize("fmt,with_out", [("json", True), ("json", False),
                                           ("table", True)])
@pytest.mark.parametrize("name,k", sorted(EVALUATE))
def test_evaluate_stdout_bytes(capsys, fixture_dir, tmp_path, name, k, fmt,
                               with_out):
    """The JSON stdout is the report file's bytes, with or without --out,
    and --format table with --out writes that same report file."""
    out = tmp_path / "report.json"
    stdout = run_cli(capsys, "evaluate", "--qrels", qrels_path(fixture_dir, name),
                     "--run", fixture_dir / "run.jsonl", "-k", k,
                     "--format", fmt, *(("--out", out) if with_out else ()))
    assert sha256(stdout.encode()) == (
        TABLE[("evaluate", name, k)] if fmt == "table" else EVALUATE[(name, k)])
    assert out.exists() == with_out
    if with_out:
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


@pytest.fixture(scope="module")
def reports(fixture_dir):
    """The k=5 report of each qrels set, as ``evaluate --out`` writes it."""
    paths = {}
    for name in ("truth", "multi"):
        paths[name] = fixture_dir / f"{name}_report.json"
        assert dispatch(["evaluate", "--qrels",
                         str(qrels_path(fixture_dir, name)),
                         "--run", str(fixture_dir / "run.jsonl"),
                         "--out", str(paths[name])]) == 0
    return paths


def test_compare_delta_bytes(capsys, reports, tmp_path):
    out = tmp_path / "delta.json"
    run_cli(capsys, "compare", "--baseline", reports["truth"],
            "--candidate", reports["multi"], "--out", out)
    assert sha256(out.read_bytes()) == COMPARE


def test_compare_stdout_bytes(capsys, reports, tmp_path):
    """compare's JSON stdout is the delta file's bytes."""
    out = tmp_path / "delta.json"
    stdout = run_cli(capsys, "compare", "--baseline", reports["truth"],
                     "--candidate", reports["multi"], "--out", out)
    assert (sha256(stdout.encode()), sha256(out.read_bytes())) == \
        (COMPARE, COMPARE)


@pytest.mark.parametrize("command,name,arg", sorted(TABLE, key=str))
def test_table_stdout_bytes(capsys, fixture_dir, command, name, arg):
    option = "-k" if command == "evaluate" else "--target-bin"
    stdout = run_cli(capsys, command, "--qrels", qrels_path(fixture_dir, name),
                     "--run", fixture_dir / "run.jsonl", option, arg,
                     "--format", "table")
    assert sha256(stdout.encode()) == TABLE[(command, name, arg)]


def test_compare_table_stdout_bytes(capsys, reports):
    stdout = run_cli(capsys, "compare", "--baseline", reports["truth"],
                     "--candidate", reports["multi"], "--format", "table")
    assert sha256(stdout.encode()) == COMPARE_TABLE


# The columnar layout pin: (k -> report), (target bin -> (diagnoses file,
# stdout summary)) at k=5, and the non-monotone warning lines of one load.
LAYOUT_EVALUATE = {
    1: "72ec29cf40e21a480aec00b2aa58b5c2baea97d39adfb8808669eea6a7ccf55b",
    3: "ee1bb5065cc8ebad573adc02504aa3af6b1b3d5ccd80158c385372bc2dc98f24",
    5: "26dff7f533af84faf609345add1b42563e89c7585dc9e139ad793c4f68c82add",
}

LAYOUT_DIAGNOSE = {
    "high": (
        "25024b261a8f93840e867a59132b27ec4cd304bc6bc29ddf985338f64b696804",
        "ef503145160bdb3f5d49af24626539971c3686d790fe52d4a374cedbb5bab278"),
    "low": (
        "02f1fd07bf3a104d1ce7554e0bb83eafd54e99ff163fe5f8cc543e5681577144",
        "e62e9606c6d9d0771b72e482de2cee3f0e1f28cf9ea96c8d98966c44c84720fc"),
}

LAYOUT_WARNINGS = (
    26, "1ba7f258ec78318c0d7d5599d593b73c65328867eb70af70dc0da5adcdead771")


def layout_rows(seed=11):
    """Run and qrels rows whose ranked lists exercise every column case."""
    rng = random.Random(seed)
    universe = [f"e{i:02d}" for i in range(40)]
    bins = ("high", "medium", "low")
    run, qrels = [], []
    for i in range(300):
        query = f"q{i:03d}"
        n = (0, 1, 3, 5, 8, 20)[i % 6]
        scores = sorted((rng.randint(0, 100) if rng.random() < 0.3
                         else round(rng.random() * 100, 3)
                         for _ in range(n)), reverse=True)
        if i % 7 == 3 and n > 1:
            j = rng.randrange(n - 1)
            scores[j], scores[j + 1] = scores[j + 1], scores[j] - 1
        results = [{"entity_id": entity_id, "score": score,
                    "bin": rng.choice(bins)}
                   for entity_id, score in zip(rng.sample(universe, n),
                                               scores)]
        if i % 11 != 5:
            run.append({"query": query, "results": results})
        if i % 13 != 4:
            qrels.append({"query": query, "relevant": sorted(
                rng.sample(universe, rng.randint(1, 4)))})
    run.append({"query": "zz stray", "results": [
        {"entity_id": "e00", "score": 1, "bin": "low"}]})
    return run, qrels


@pytest.fixture(scope="module")
def layout_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("layout")
    run, qrels = layout_rows()
    write_jsonl(out / "run.jsonl", run)
    write_jsonl(out / "qrels.jsonl", qrels)
    return out


@pytest.mark.parametrize("k", sorted(LAYOUT_EVALUATE))
def test_layout_evaluate_bytes(capsys, layout_dir, tmp_path, k):
    out = tmp_path / "report.json"
    run_cli(capsys, "evaluate", "--qrels", layout_dir / "qrels.jsonl",
            "--run", layout_dir / "run.jsonl", "-k", k, "--out", out)
    assert sha256(out.read_bytes()) == LAYOUT_EVALUATE[k]


@pytest.mark.parametrize("target", sorted(LAYOUT_DIAGNOSE))
def test_layout_diagnose_bytes(capsys, layout_dir, tmp_path, target):
    out = tmp_path / "diagnoses.jsonl"
    stdout = run_cli(capsys, "diagnose", "--qrels", layout_dir / "qrels.jsonl",
                     "--run", layout_dir / "run.jsonl", "--target-bin",
                     target, "--out", out)
    assert (sha256(out.read_bytes()), sha256(stdout.encode())) == \
        LAYOUT_DIAGNOSE[target]


def test_layout_warning_lines(capsys, caplog, layout_dir):
    with caplog.at_level(logging.WARNING, logger="er_evalkit.metrics"):
        run_cli(capsys, "evaluate", "--qrels", layout_dir / "qrels.jsonl",
                "--run", layout_dir / "run.jsonl")
    lines = [record.getMessage() for record in caplog.records]
    assert (len(lines), sha256("\n".join(lines).encode())) == LAYOUT_WARNINGS


# The two-halves pins: (case, command) -> (exit code, sha256 of the --out
# file or None, of stdout, of stderr with the run path spelled RUN). Taken
# from the implementation that read every run file in one pass; the
# utf8_second stderr was taken again once each line came to be checked for
# a bad byte as it is read, so the warnings before that byte print. The run's
# rising lists sit in both halves of the file, and each error case puts its
# bad line, repeat or byte where its name says.
HALVES = {
    ('plain', 'evaluate'): (0, 'ea8937d85e82436251a3cdeee8a5accc7f84070739818b08c78458c3ae83fee8',
        'ea8937d85e82436251a3cdeee8a5accc7f84070739818b08c78458c3ae83fee8',
        '6a8b57dcdb698fc9aab3f32394acc6e8db9b952fe31ac7b80b2d28fd98cd3f2b'),
    ('plain', 'diagnose'): (0, '7ef9f1330ffcd954354c850709fbcfc719b6f25ea40d54e218c37b6f1677785a',
        '09c916ba27e09d30be01bc2723ad205c0d40d39622a3e347c17078631600c2c3',
        '6a8b57dcdb698fc9aab3f32394acc6e8db9b952fe31ac7b80b2d28fd98cd3f2b'),
    ('crlf', 'evaluate'): (0, 'ea8937d85e82436251a3cdeee8a5accc7f84070739818b08c78458c3ae83fee8',
        'ea8937d85e82436251a3cdeee8a5accc7f84070739818b08c78458c3ae83fee8',
        '6a8b57dcdb698fc9aab3f32394acc6e8db9b952fe31ac7b80b2d28fd98cd3f2b'),
    ('crlf', 'diagnose'): (0, '7ef9f1330ffcd954354c850709fbcfc719b6f25ea40d54e218c37b6f1677785a',
        '09c916ba27e09d30be01bc2723ad205c0d40d39622a3e347c17078631600c2c3',
        '6a8b57dcdb698fc9aab3f32394acc6e8db9b952fe31ac7b80b2d28fd98cd3f2b'),
    ('cr', 'evaluate'): (0, 'ea8937d85e82436251a3cdeee8a5accc7f84070739818b08c78458c3ae83fee8',
        'ea8937d85e82436251a3cdeee8a5accc7f84070739818b08c78458c3ae83fee8',
        '6a8b57dcdb698fc9aab3f32394acc6e8db9b952fe31ac7b80b2d28fd98cd3f2b'),
    ('cr', 'diagnose'): (0, '7ef9f1330ffcd954354c850709fbcfc719b6f25ea40d54e218c37b6f1677785a',
        '09c916ba27e09d30be01bc2723ad205c0d40d39622a3e347c17078631600c2c3',
        '6a8b57dcdb698fc9aab3f32394acc6e8db9b952fe31ac7b80b2d28fd98cd3f2b'),
    ('bom', 'evaluate'): (0, 'ea8937d85e82436251a3cdeee8a5accc7f84070739818b08c78458c3ae83fee8',
        'ea8937d85e82436251a3cdeee8a5accc7f84070739818b08c78458c3ae83fee8',
        '6a8b57dcdb698fc9aab3f32394acc6e8db9b952fe31ac7b80b2d28fd98cd3f2b'),
    ('bom', 'diagnose'): (0, '7ef9f1330ffcd954354c850709fbcfc719b6f25ea40d54e218c37b6f1677785a',
        '09c916ba27e09d30be01bc2723ad205c0d40d39622a3e347c17078631600c2c3',
        '6a8b57dcdb698fc9aab3f32394acc6e8db9b952fe31ac7b80b2d28fd98cd3f2b'),
    ('blank_cut', 'evaluate'): (0, 'ea8937d85e82436251a3cdeee8a5accc7f84070739818b08c78458c3ae83fee8',
        'ea8937d85e82436251a3cdeee8a5accc7f84070739818b08c78458c3ae83fee8',
        '6a8b57dcdb698fc9aab3f32394acc6e8db9b952fe31ac7b80b2d28fd98cd3f2b'),
    ('blank_cut', 'diagnose'): (0, '7ef9f1330ffcd954354c850709fbcfc719b6f25ea40d54e218c37b6f1677785a',
        '09c916ba27e09d30be01bc2723ad205c0d40d39622a3e347c17078631600c2c3',
        '6a8b57dcdb698fc9aab3f32394acc6e8db9b952fe31ac7b80b2d28fd98cd3f2b'),
    ('bad_first', 'evaluate'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'dafa47ff0a4b57dd20ce022c346fdcaf97ca7ceb08a116618aeb04cac0b2acce'),
    ('bad_first', 'diagnose'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'dafa47ff0a4b57dd20ce022c346fdcaf97ca7ceb08a116618aeb04cac0b2acce'),
    ('bad_second', 'evaluate'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '08ae9cbd775b1b6a368d648368cb112eda3dc5db7d2e04e91f8012469a7d06ea'),
    ('bad_second', 'diagnose'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '08ae9cbd775b1b6a368d648368cb112eda3dc5db7d2e04e91f8012469a7d06ea'),
    ('bad_both', 'evaluate'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'dafa47ff0a4b57dd20ce022c346fdcaf97ca7ceb08a116618aeb04cac0b2acce'),
    ('bad_both', 'diagnose'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'dafa47ff0a4b57dd20ce022c346fdcaf97ca7ceb08a116618aeb04cac0b2acce'),
    ('dup_cross', 'evaluate'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '8c812421fda964888cd1b7de8a1ccb375141ad1d5fe829326b8e152c977e620c'),
    ('dup_cross', 'diagnose'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '8c812421fda964888cd1b7de8a1ccb375141ad1d5fe829326b8e152c977e620c'),
    ('dup_after_child_error', 'evaluate'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '5b239676b36372981ee10d1354a1636c8efbad6652782411a3535176aa35aabb'),
    ('dup_after_child_error', 'diagnose'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '5b239676b36372981ee10d1354a1636c8efbad6652782411a3535176aa35aabb'),
    ('dup_second', 'evaluate'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '4403f15fae8211093d56051899b93ea9fc14302ad27a3c047a38865fd5bedba9'),
    ('dup_second', 'diagnose'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '4403f15fae8211093d56051899b93ea9fc14302ad27a3c047a38865fd5bedba9'),
    ('crlf_bad_second', 'evaluate'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '08ae9cbd775b1b6a368d648368cb112eda3dc5db7d2e04e91f8012469a7d06ea'),
    ('crlf_bad_second', 'diagnose'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '08ae9cbd775b1b6a368d648368cb112eda3dc5db7d2e04e91f8012469a7d06ea'),
    ('blank_cut_bad_second', 'evaluate'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '5b3687cfa2eed1b6652918e400ac78d53872afbb41022518532717838d69b7a7'),
    ('blank_cut_bad_second', 'diagnose'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '5b3687cfa2eed1b6652918e400ac78d53872afbb41022518532717838d69b7a7'),
    ('utf8_second', 'evaluate'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'de83c3a9ea625c8d99519f8951e49682d5e535fa8b4f45b2f8d3396fa0a98291'),
    ('utf8_second', 'diagnose'): (1, None,
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'de83c3a9ea625c8d99519f8951e49682d5e535fa8b4f45b2f8d3396fa0a98291'),
}


def halves_rows():
    """60 run rows of six results, four of them rising down the list in
    each half, and qrels that skip every tenth run query and add one the
    run never answers."""
    run, qrels = [], []
    for i in range(60):
        query = f"h{i:02d}"
        scores = [round(0.95 - 0.15 * j, 2) for j in range(6)]
        if i % 9 == 4:
            scores[2], scores[3] = scores[3], scores[2]
        run.append({"query": query, "results": [
            {"entity_id": f"e{(i * 7 + j) % 23:02d}", "score": score,
             "bin": ("high", "medium", "low")[j // 2]}
            for j, score in enumerate(scores)]})
        if i % 10 != 7:
            qrels.append({"query": query, "relevant": sorted(
                {f"e{(i * 7 + i % 8) % 23:02d}", f"e{i * 5 % 23:02d}"})})
    qrels.append({"query": "zz unanswered", "relevant": ["e99"]})
    return run, qrels


def halves_case(name):
    """The run file bytes of one two-halves case."""
    run, _ = halves_rows()
    lines = [json.dumps(row, separators=(",", ":")) for row in run]
    bad_first = '{"query":"h02","results":['
    bad_second = lines[49].replace('"bin":"low"', '"bin":"top"', 1)
    edits = {
        "bad_first": {2: bad_first},
        "bad_second": {49: bad_second},
        "bad_both": {2: bad_first, 49: bad_second},
        "dup_cross": {44: lines[4]},
        "dup_after_child_error": {39: bad_second, 44: lines[4]},
        "dup_second": {50: lines[40]},
        "crlf_bad_second": {49: bad_second},
        "blank_cut_bad_second": {49: bad_second},
    }.get(name, {})
    lines = [edits.get(i, line) for i, line in enumerate(lines)]
    if name.startswith("blank_cut"):
        lines[30:30] = [""] * 300
    end = {"crlf": "\r\n", "crlf_bad_second": "\r\n", "cr": "\r"}.get(name, "\n")
    data = "".join(line + end for line in lines).encode()
    if name == "bom":
        data = b"\xef\xbb\xbf" + data
    if name == "utf8_second":
        data = data.replace(b'"h50"', b'"h5\xff0"')
    return data


HALVES_CASES = ("plain", "crlf", "cr", "bom", "blank_cut", "bad_first",
                "bad_second", "bad_both", "dup_cross", "dup_after_child_error",
                "dup_second", "crlf_bad_second", "blank_cut_bad_second",
                "utf8_second")


def run_process(*argv):
    """``python -m er_evalkit.cli`` in its own process, with real stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "er_evalkit.cli",
                           *map(str, argv)], capture_output=True, env=env,
                          timeout=120)


@pytest.fixture(scope="module")
def halves_qrels(tmp_path_factory):
    path = tmp_path_factory.mktemp("halves") / "qrels.jsonl"
    write_jsonl(path, halves_rows()[1])
    return path


def test_halves_cases_cut_where_named(tmp_path):
    """The plain run's second half starts at line 31, a CR-only run has no
    line start to cut at, and the blank run holds the blank cut."""
    for name, first_of_second in (("plain", 31), ("crlf", 31), ("bom", 31),
                                  ("cr", None), ("blank_cut", None)):
        path = tmp_path / f"{name}.jsonl"
        data = halves_case(name)
        path.write_bytes(data)
        split = middle_line(path)
        if name == "cr":
            assert split is None
        elif name == "blank_cut":
            assert data[split - 2:split + 2] == b"\n\n\n\n"
        else:
            assert data[:split].count(b"\n") + 1 == first_of_second


@pytest.mark.parametrize("command", ["evaluate", "diagnose"])
@pytest.mark.parametrize("name", HALVES_CASES)
def test_halves_bytes(tmp_path, halves_qrels, name, command):
    run = tmp_path / "run.jsonl"
    run.write_bytes(halves_case(name))
    out = tmp_path / "out"
    done = run_process(command, "--qrels", halves_qrels, "--run", run,
                       "--out", out)
    got = (done.returncode,
           sha256(out.read_bytes()) if out.exists() else None,
           sha256(done.stdout),
           sha256(done.stderr.replace(str(run).encode(), b"RUN")))
    assert got == HALVES[(name, command)]
