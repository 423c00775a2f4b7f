"""The streaming contract of evaluate, diagnose and compare.

evaluate and diagnose read the run once, in file order, and keep no
RunResult once it has been scanned, so their memory follows the qrels
size, not the run size. evaluate writes its report a slice of rows at a
time, and compare keeps no report's rows once it has been checked.
"""

import json
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from er_evalkit.diagnose import diagnose_run
from er_evalkit.metrics import (
    BINS,
    MACRO,
    MICRO,
    ConfidenceBin,
    RankedEntity,
    RunResult,
    _fractions,
    aggregate,
    evaluate_run,
    metric_names,
    scan_query,
)

from oracle import (OracleItem, brute_precision_at_k,
                    brute_precision_at_k_bin, brute_recall_at_k,
                    brute_recall_at_k_bin, random_instance)
from peak import SRC, needs_vmhwm, peak_kb, traced_peak_kb


def run_result(query, inst):
    return RunResult(query, tuple(
        RankedEntity(item.entity_id, 1.0 - 0.01 * rank,
                     ConfidenceBin(item.bin))
        for rank, item in enumerate(inst.ranked)))


def oracle_case(seed, n):
    """Qrels and a shuffled run from ``n`` oracle instances: about a third
    of the qrels queries go unanswered, and a few run queries are not in
    the qrels."""
    rng = random.Random(seed)
    qrels, run = {}, []
    for i in range(n):
        inst = random_instance(rng)
        query = f"q{i:03d}"
        if inst.relevant:
            qrels[query] = set(inst.relevant)
        if not inst.relevant or i % 3:
            run.append(run_result(query, inst))
    rng.shuffle(run)
    return qrels, run


class TestNothingHeld:
    """Each RunResult is released once scanned: while the generator makes
    the next one, only the one the consumer holds may still be alive."""

    @staticmethod
    def stream(results_spec, refs):
        for query, ranked in results_spec:
            result = RunResult(query, ranked)
            alive = [ref().query for ref in refs[:-1] if ref() is not None]
            assert alive == [], f"still alive: {alive}"
            refs.append(weakref.ref(result))
            yield result

    @staticmethod
    def spec():
        high = ConfidenceBin.HIGH
        return [(f"q{i}", (RankedEntity("A", 0.9, high),
                           RankedEntity(f"B{i}", 0.5, ConfidenceBin.LOW)))
                for i in range(50)]

    def test_evaluate_run(self):
        refs = []
        report = evaluate_run({"q1": {"A"}, "q7": {"B7"}, "zz": {"A"}},
                              self.stream(self.spec(), refs), k=5)
        assert report.counts == {"evaluated": 2, "skipped": 1,
                                 "ignored_run_queries": 48}
        assert len(refs) == 50
        assert all(ref() is None for ref in refs)

    def test_diagnose_run(self):
        refs = []
        diagnoses, summary = diagnose_run({"q1": {"A"}, "q7": {"B7"}},
                                          self.stream(self.spec(), refs), k=5)
        assert [d.category.value for d in diagnoses] == ["success",
                                                         "binning_miss"]
        assert len(refs) == 50
        assert all(ref() is None for ref in refs)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40),
       k=st.sampled_from((1, 3, 5)), target=st.sampled_from(BINS))
def test_generator_equals_list(seed, n, k, target):
    """A generator and a list give the same report and diagnoses, and the
    streamed aggregates equal ``aggregate`` over per-query fractions taken
    in sorted query order."""
    qrels, run = oracle_case(seed, n)
    report = evaluate_run(qrels, run, k)
    assert evaluate_run(qrels, iter(run), k).to_dict() == report.to_dict()
    assert diagnose_run(qrels, iter(run), k, target) == \
        diagnose_run(qrels, run, k, target)

    by_query = {result.query: result for result in run}
    names = metric_names(k)
    rows = [_fractions(scan_query(qrels[query], by_query.get(query), k), names)
            for query in sorted(qrels)]
    for name in names:
        column = [row[name] for row in rows]
        assert report.aggregates[name] == {
            MICRO: aggregate(column, MICRO), MACRO: aggregate(column, MACRO)}


def counted(relevant, ranked, cutoff, bin_value, metric):
    """(numerator, denominator) of one metric of one query, counted item by
    item: relevant items and items among the top ``cutoff`` in the bin
    (any bin if None), over those items or over the relevant set."""
    hits = shown = 0
    for item in ranked[:cutoff]:
        if bin_value is None or item.bin == bin_value:
            shown += 1
            for rel_id in relevant:
                if item.entity_id == rel_id:
                    hits += 1
    return hits, shown if metric == "precision" else len(relevant)


BRUTE = {("precision", False): brute_precision_at_k,
         ("recall", False): brute_recall_at_k,
         ("precision", True): brute_precision_at_k_bin,
         ("recall", True): brute_recall_at_k_bin}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40),
       k=st.sampled_from((1, 3, 5)))
def test_aggregates_match_brute_force(seed, n, k):
    """Each macro aggregate is a left-to-right float sum of the oracle's
    values in sorted query order over their count; each micro aggregate is
    numerator and denominator sums counted by explicit loops."""
    qrels, run = oracle_case(seed, n)
    report = evaluate_run(qrels, run, k)
    ranked = {result.query: [OracleItem(item.entity_id, item.bin.value)
                             for item in result.ranked] for result in run}
    for name in metric_names(k):
        metric, cutoff, *bin_value = name.split("@")
        brute = BRUTE[metric, bool(bin_value)]
        total, defined, nums, dens = 0, 0, 0, 0
        for query in sorted(qrels):
            items = ranked.get(query, [])
            value = brute(qrels[query], items, int(cutoff), *bin_value)
            if value is not None:
                total += float(value)
                defined += 1
            num, den = counted(qrels[query], items, int(cutoff),
                               *(bin_value or [None]), metric)
            nums += num
            dens += den
        assert report.aggregates[name] == {
            MICRO: nums / dens if dens else None,
            MACRO: total / defined if defined else None}


def run_process(*argv):
    """``python -m er_evalkit.cli`` in its own process, with real stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "er_evalkit.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("command", ["evaluate", "diagnose"])
def test_bad_last_line_after_warnings(tmp_path, command):
    """A bad last line exits 1 with one error line naming it, after each
    earlier non-monotone warning once, with no stdout and no --out file."""
    qrels = tmp_path / "qrels.jsonl"
    qrels.write_text("".join(
        json.dumps({"query": f"q{i}", "relevant": ["A"]}) + "\n"
        for i in range(6)), encoding="utf-8")
    lines = []
    for i in range(6):
        scores = [0.5, 0.9] if i % 2 else [0.9, 0.5]
        lines.append(json.dumps({"query": f"q{i}", "results": [
            {"entity_id": entity_id, "score": score, "bin": "high"}
            for entity_id, score in zip("AB", scores)]}))
    lines.append('{"query":"q6","results":[')
    run = tmp_path / "run.jsonl"
    run.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out.json"
    done = run_process(command, "--qrels", str(qrels), "--run", str(run),
                       "--out", str(out))
    assert (done.returncode, done.stdout) == (1, "")
    warnings = [f"query 'q{i}': score increases down the ranking "
                "(0.5 < 0.9)" for i in (1, 3, 5)]
    err = done.stderr.splitlines()
    assert err[:-1] == warnings
    assert err[-1].startswith(f"error: {run}:7: invalid JSON: ")
    assert not out.exists()


MEMORY_RESULTS = 20
MEMORY_EXTRA_LISTS = 20_000
MEMORY_SLACK_KB = 8 * 1024

def results_json(seed):
    rng = random.Random(seed)
    scores = sorted((rng.random() for _ in range(MEMORY_RESULTS)),
                    reverse=True)
    return json.dumps([{"entity_id": f"e{rng.randrange(10**6):06d}",
                        "score": score, "bin": rng.choice(BINS).value}
                       for score in scores])


@pytest.fixture(scope="module")
def memory_inputs(tmp_path_factory):
    """A 40-query qrels file; run A answers each, run B is A plus
    20,000 lists for queries the qrels do not hold."""
    out = tmp_path_factory.mktemp("memory")
    queries = [f"q{i:02d}" for i in range(40)]
    (out / "qrels.jsonl").write_text("".join(
        json.dumps({"query": q, "relevant": ["e000001", "e000002"]}) + "\n"
        for q in queries), encoding="utf-8")
    answered = [f'{{"query":"{q}","results":{results_json(q)}}}\n'
                for q in queries]
    extra = results_json("extra")
    (out / "a.jsonl").write_text("".join(answered), encoding="utf-8")
    with open(out / "b.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(answered)
        fh.writelines(f'{{"query":"x{i:05d}","results":{extra}}}\n'
                      for i in range(MEMORY_EXTRA_LISTS))
    return out


@needs_vmhwm
@pytest.mark.parametrize("command", ["evaluate", "diagnose"])
def test_peak_memory_follows_qrels_not_run(memory_inputs, tmp_path, command):
    qrels = memory_inputs / "qrels.jsonl"
    peaks = [peak_kb(command, "--qrels", str(qrels),
                     "--run", str(memory_inputs / name),
                     "--out", str(tmp_path / f"{name}.out"))
             for name in ("a.jsonl", "b.jsonl")]
    assert peaks[1] - peaks[0] < MEMORY_SLACK_KB, peaks


REPORT_QUERIES = 20_000
REPORT_SLACK_KB = 1536


@pytest.fixture(scope="module")
def report_inputs(tmp_path_factory):
    """Qrels of 20,000 queries, a run answering each with a falling list,
    and the k=5 reports of those qrels (BIG) and of their first 40 (SMALL)."""
    out = tmp_path_factory.mktemp("report")
    rng = random.Random(15)
    bins = [bin.value for bin in BINS]
    with open(out / "qrels.jsonl", "w", encoding="utf-8") as qrels, \
            open(out / "small.jsonl", "w", encoding="utf-8") as small, \
            open(out / "run.jsonl", "w", encoding="utf-8") as run:
        for i in range(REPORT_QUERIES):
            query = f"query number {i:05d}"
            ids = rng.sample(range(40), 6)
            line = json.dumps({"query": query, "relevant": [
                f"e{n}" for n in ids[:rng.randint(1, 4)]]}) + "\n"
            qrels.write(line)
            if i < 40:
                small.write(line)
            run.write(json.dumps({"query": query, "results": [
                {"entity_id": f"e{n}", "score": 1.0 - rank / 8,
                 "bin": rng.choice(bins)}
                for rank, n in enumerate(ids[1:])]}) + "\n")
    for name in ("qrels", "small"):
        done = run_process("evaluate", "--qrels", str(out / f"{name}.jsonl"),
                           "--run", str(out / "run.jsonl"),
                           "--out", str(out / f"{name}_report.json"))
        assert (done.returncode, done.stderr) == (0, "")
    return out


@needs_vmhwm
def test_report_text_is_never_whole(report_inputs, tmp_path):
    """evaluate's JSON stdout and --out file cost about what the table
    alone does: the encoded report is never held whole."""
    argv = ("evaluate", "--qrels", report_inputs / "qrels.jsonl",
            "--run", report_inputs / "run.jsonl")
    table = peak_kb(*argv, "--format", "table")
    both = peak_kb(*argv, "--out", tmp_path / "report.json")
    assert both - table < REPORT_SLACK_KB, (table, both)


def test_compare_keeps_no_rows(report_inputs):
    """compare holds no report's rows while it loads the other report.

    Measured by tracemalloc: the VmHWM of a second 4.5 MB report load also
    holds the first load's freed text, which glibc keeps resident.
    """
    big, small = (report_inputs / f"{name}_report.json"
                  for name in ("qrels", "small"))
    peaks = [traced_peak_kb("compare", "--baseline", baseline,
                            "--candidate", big)
             for baseline in (small, big)]
    assert peaks[1] - peaks[0] < REPORT_SLACK_KB, peaks


def test_closed_stdout_is_one_error_line(report_inputs, tmp_path):
    """A reader that closes stdout after 100 bytes of a report over 64 KB:
    exit 1, one error line, and no --out file."""
    out = tmp_path / "bp.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err, \
            subprocess.Popen(
                [sys.executable, "-m", "er_evalkit.cli", "evaluate",
                 "--qrels", str(report_inputs / "qrels.jsonl"),
                 "--run", str(report_inputs / "run.jsonl"), "--out", str(out)],
                stdout=subprocess.PIPE, stderr=err, env=env) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        assert proc.wait(timeout=120) == 1
        err.seek(0)
        assert err.read() == "error: stdout closed: [Errno 32] Broken pipe\n"
    assert head.startswith(b'{"k":5,')
    assert (report_inputs / "qrels_report.json").stat().st_size > 64 * 1024
    assert list(tmp_path.iterdir()) == [tmp_path / "stderr"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command,out", [
    ("evaluate", False), ("evaluate", True), ("diagnose", False),
    ("diagnose", True), ("compare", True), ("aggregate-ctr", True)])
def test_full_stdout_is_one_error_line(tmp_path, command, out):
    """A stdout that takes no byte (ENOSPC): exit 1 with one error line that
    blames stdout, not the --out file, and no --out file, for a report stage
    and a file stage alike."""
    qrels, run = tmp_path / "qrels.jsonl", tmp_path / "run.jsonl"
    qrels.write_text('{"query":"q","relevant":["A"]}\n', encoding="utf-8")
    run.write_text('{"query":"q","results":[{"entity_id":"A","score":1.0,'
                   '"bin":"high"}]}\n', encoding="utf-8")
    argv = [command, "--qrels", str(qrels), "--run", str(run)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if command == "compare":
        base = tmp_path / "base.json"
        subprocess.run([sys.executable, "-m", "er_evalkit.cli", "evaluate",
                        *argv[1:], "--out", str(base)], check=True,
                       capture_output=True, env=env, timeout=120)
        argv = [command, "--baseline", str(base), "--candidate", str(base)]
    elif command == "aggregate-ctr":
        events = tmp_path / "events.jsonl"
        events.write_text('{"query":"q","impressions":["A"]}\n',
                          encoding="utf-8")
        argv = [command, "--events", str(events)]
    inputs = sorted(tmp_path.iterdir())
    if out:
        argv += ["--out", str(tmp_path / "report.json")]
    with open("/dev/full", "w", encoding="utf-8") as full:
        done = subprocess.run([sys.executable, "-m", "er_evalkit.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    assert (done.returncode, done.stderr) == (
        1, "error: cannot write stdout: [Errno 28] No space left on device\n")
    assert sorted(tmp_path.iterdir()) == inputs
