"""Acceptance gate: one test per release criterion, C1 through C9.

Each test prints a bracketed PASS line with the measured numbers once its
assertions hold, so a full run reads as a checklist. Criteria with runtime
budgets assert the elapsed wall time too.
"""

import hashlib
import random
import time

import pytest

from oracle import (
    BIN_VALUES,
    brute_precision_at_k,
    brute_precision_at_k_bin,
    brute_recall_at_k,
    brute_recall_at_k_bin,
    random_instance,
)

from er_evalkit.clickstream import (
    ClickEvent,
    CtrFilter,
    aggregate_in_shards,
    aggregate_log,
    compute_ctr,
    write_ctr_records,
    write_events,
)
from er_evalkit.cli import dispatch
from er_evalkit.diagnose import compare_reports, diagnose_run
from er_evalkit.importance import (
    ImportanceConfig,
    ScoreBounds,
    log_scale_score,
    score_title,
    score_titles,
)
from er_evalkit.catalog import Title
from er_evalkit.metrics import (
    BINS,
    ConfidenceBin,
    RankedEntity,
    RunResult,
    evaluate_run,
)
from er_evalkit.relevance import merge_relevance
from er_evalkit.simulate import (
    SimConfig,
    gen_catalog,
    gen_clicklog,
    gen_queries,
    run_mock_er,
)

TOLERANCE = 1e-12


def announce(capsys, criterion: str, detail: str) -> None:
    with capsys.disabled():
        print(f"[{criterion}] PASS {detail}")


@pytest.fixture(scope="module")
def oracle_instances():
    rng = random.Random(20240817)
    return [random_instance(rng) for _ in range(10_000)]


def rows_at(instances, k):
    """evaluate_run's per-query row of each instance, in order, from one
    call that scores them all at ``k``."""
    qrels, run = {}, []
    for i, instance in enumerate(instances):
        qrels[str(i)] = set(instance.relevant)
        run.append(RunResult(query=str(i), ranked=(
            RankedEntity(entity_id=item.entity_id, score=1.0 - 0.01 * j,
                         bin=ConfidenceBin(item.bin))
            for j, item in enumerate(instance.ranked))))
    per_query = evaluate_run(qrels, run, k=k).per_query
    return [per_query[str(i)] for i in range(len(instances))]


def oracle_rows(instances):
    """Each instance with its evaluate_run row at its own k: one call per
    distinct k."""
    for k in sorted({instance.k for instance in instances}):
        group = [instance for instance in instances if instance.k == k]
        yield from zip(group, rows_at(group, k))


@pytest.fixture(scope="module")
def noisy_sim():
    """The documented default noisy setup, seed 42, generated once."""
    config = SimConfig(seed=42)
    catalog = gen_catalog(config)
    queries = gen_queries(catalog, config)
    run = run_mock_er(catalog, queries, config)
    truth = dict(queries)
    events = list(gen_clicklog(run, truth, config))
    return config, catalog, queries, run, truth, events


def test_c1_ctr_example_and_default_filter(capsys, tmp_path):
    assert compute_ctr(3, 4) == 0.75
    events = []
    for i in range(4):
        events.append(ClickEvent(query="cocomelon",
                                 impressions=("tt1", f"x{i}"),
                                 clicked="tt1" if i < 3 else None))
    log = tmp_path / "clicklog.jsonl"
    write_events(events, log)
    records, _ = aggregate_log(log, CtrFilter(min_impressions=1, min_ctr=0.0))
    pair = next(r for r in records if r.entity_id == "tt1")
    assert pair.nimp == 4
    assert pair.nclick == 3
    assert pair.ctr == 0.75
    kept, summary = aggregate_log(log, CtrFilter())
    assert kept == []
    assert summary.dropped == len(records)
    announce(capsys, "C1",
             "compute_ctr(3, 4) = 0.75; nimp=4 record dropped by "
             "default filter (min_impressions=25)")


def test_c2_oracle_equivalence_on_10k_instances(capsys, oracle_instances):
    started = time.perf_counter()
    checked = 0
    for instance, row in oracle_rows(oracle_instances):
        relevant, ranked, k = instance.relevant, instance.ranked, instance.k
        expected = {
            f"recall@{k}": brute_recall_at_k(relevant, ranked, k),
            f"precision@{k}": brute_precision_at_k(relevant, ranked, k)}
        for bin in BIN_VALUES:
            expected[f"recall@{k}@{bin}"] = brute_recall_at_k_bin(
                relevant, ranked, k, bin)
            expected[f"precision@{k}@{bin}"] = brute_precision_at_k_bin(
                relevant, ranked, k, bin)
        for name, fraction in expected.items():
            if fraction is None:
                assert row[name] is None
            else:
                assert row[name] == fraction.numerator / fraction.denominator
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(capsys, "C2",
             f"{len(oracle_instances)} instances, {checked} metric values "
             f"match the brute-force oracle exactly in {elapsed:.2f}s (< 10s)")


def test_c3_bin_partition_identities(capsys, oracle_instances):
    worst = 0.0
    for instance, row in oracle_rows(oracle_instances):
        k = instance.k
        top = instance.ranked[:k]

        recall_total = row[f"recall@{k}"]
        if recall_total is not None:
            bin_sum = sum(row[f"recall@{k}@{b}"] for b in BIN_VALUES)
            worst = max(worst, abs(bin_sum - recall_total))

        precision_total = row[f"precision@{k}"]
        if precision_total is not None:
            weighted = 0.0
            for b in BIN_VALUES:
                den_bin = sum(1 for item in top if item.bin == b)
                value = row[f"precision@{k}@{b}"]
                if value is not None:
                    weighted += value * den_bin
            worst = max(worst,
                        abs(weighted - precision_total * len(top)))
    assert worst <= TOLERANCE
    announce(capsys, "C3",
             f"bin-partition identities hold on all instances, "
             f"max deviation {worst:.1e} (<= 1e-12)")


def test_c4_diagnostic_exhaustiveness_and_recall_identity(capsys):
    rng = random.Random(424242)
    qrels = {}
    run = []
    for i in range(10_000):
        query = f"q{i}"
        truth_id = f"t{i}"
        qrels[query] = {truth_id}
        if rng.random() < 0.05:
            continue  # left out of the run entirely
        length = rng.randint(0, 10)
        specs = [(f"f{i}_{j}", rng.choice(BINS)) for j in range(length)]
        slot = rng.randint(0, 12)
        if slot < length:
            specs[slot] = (truth_id, rng.choice(BINS))
        ranked = tuple(RankedEntity(entity_id=eid, score=1.0 - 0.01 * j,
                                    bin=bin)
                       for j, (eid, bin) in enumerate(specs))
        run.append(RunResult(query=query, ranked=ranked))

    diagnoses, summary = diagnose_run(qrels, run, k=5)
    assert len(diagnoses) == 10_000
    assert {d.query for d in diagnoses} == set(qrels)
    assert sum(summary.counts.values()) == 10_000
    assert all(count >= 0 for count in summary.counts.values())

    report = evaluate_run(qrels, run, k=5)
    found_fraction = (summary.counts["success"]
                      + summary.counts["binning_miss"]) / summary.total
    assert report.aggregates["recall@5"]["macro"] == found_fraction

    multi_qrels = {f"m{i}": {f"a{i}", f"b{i}"} for i in range(500)}
    multi_run = [RunResult(query=f"m{i}", ranked=(
        RankedEntity(f"a{i}", 1.0, rng.choice(BINS)),))
        for i in range(500)]
    _, multi_summary = diagnose_run(multi_qrels, multi_run, k=5)
    assert sum(multi_summary.counts.values()) == 500

    announce(capsys, "C4",
             "10,000 queries each got exactly one category; single-relevant "
             "macro recall@5 equals the success+binning_miss fraction "
             f"({found_fraction:.4f}) exactly")


def test_c5_zero_noise_end_to_end_closure(capsys, tmp_path):
    started = time.perf_counter()
    config = SimConfig(seed=42, typo_rate=0.0, score_noise_sigma=0.0,
                       click_position_decay=1.0)
    catalog = gen_catalog(config)
    queries = gen_queries(catalog, config)
    run = run_mock_er(catalog, queries, config)
    truth = dict(queries)
    log = tmp_path / "clicklog.jsonl"
    write_events(gen_clicklog(run, truth, config), log)

    kept, _ = aggregate_log(log, CtrFilter())
    scored = score_titles(catalog, ImportanceConfig())
    # Truth membership is defined by clicks alone here, so the importance
    # floor is lowered to keep the closure judgeable end to end.
    relset, _ = merge_relevance(kept, scored, min_importance=0.0)

    assert relset.entries == {query: {truth_id} for query, truth_id in queries}

    report = evaluate_run(relset, run, k=5)
    assert report.aggregates["recall@5@high"]["micro"] == 1.0
    assert report.aggregates["recall@5@high"]["macro"] == 1.0

    _, summary = diagnose_run(relset, run, k=5)
    assert summary.success_fraction == 1.0
    assert summary.consistent

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    announce(capsys, "C5",
             f"zero-noise pipeline over 1000 titles / 500 queries recovered "
             f"the truth set exactly, recall@5@high = 1.0, 100% success, "
             f"in {elapsed:.2f}s (< 30s)")


def test_c6_noisy_default_config_precision(capsys, noisy_sim, tmp_path):
    config, catalog, queries, run, truth, events = noisy_sim
    log = tmp_path / "clicklog.jsonl"
    write_events(events, log)
    kept, _ = aggregate_log(log, CtrFilter())
    scored = score_titles(catalog, ImportanceConfig())
    relset, _ = merge_relevance(kept, scored)

    pairs = [(query, entity_id)
             for query, entities in relset.entries.items()
             for entity_id in entities]
    assert pairs
    correct = sum(1 for query, entity_id in pairs
                  if truth.get(query) == entity_id)
    precision = correct / len(pairs)
    assert precision >= 0.90
    announce(capsys, "C6",
             f"noisy defaults (seed 42): generated relevance set has "
             f"{len(pairs)} pairs, precision {precision:.4f} vs truth "
             f"(>= 0.90)")


def test_c7_monotonicity_bounds_and_log_endpoints(capsys, oracle_instances):
    instances = oracle_instances[:2000]
    previous = [None] * len(instances)
    for k in range(1, 9):
        for i, row in enumerate(rows_at(instances, k)):
            if k in (1, 3, 5):
                assert all(metric is None or 0.0 <= metric <= 1.0
                           for metric in row.values())
            value = row[f"recall@{k}"]
            if value is None:
                assert previous[i] is None
                continue
            assert 0.0 <= value <= 1.0
            if previous[i] is not None:
                assert value >= previous[i]
            previous[i] = value

    bounds = ScoreBounds(min_year=1950, max_year=2020, min_rank=1,
                         max_rank=100, max_rating_count=1000)
    config = ImportanceConfig()
    rng = random.Random(7)
    for _ in range(500):
        year = rng.randint(1950, 2020)
        rank = rng.randint(1, 100)
        count = rng.randint(1, 1000)
        base = score_title(Title(entity_id="tt1", name="Probe",
                                 release_year=year, rank=rank,
                                 rating_count=count), bounds, config)
        later = score_title(Title(entity_id="tt1", name="Probe",
                                  release_year=min(2020, year + 10),
                                  rank=rank, rating_count=count),
                            bounds, config)
        better_rank = score_title(Title(entity_id="tt1", name="Probe",
                                        release_year=year,
                                        rank=max(1, rank // 2),
                                        rating_count=count), bounds, config)
        more_votes = score_title(Title(entity_id="tt1", name="Probe",
                                       release_year=year, rank=rank,
                                       rating_count=min(1000, count * 2)),
                                 bounds, config)
        assert later.importance >= base.importance
        assert better_rank.importance >= base.importance
        assert more_votes.importance >= base.importance
        assert 0.0 <= base.importance <= 1.0

    assert log_scale_score(1, 1, 100, invert=True) == 1.0
    assert log_scale_score(100, 1, 100, invert=True) == 0.0
    assert log_scale_score(10, 1, 100, invert=True) == 0.5
    assert log_scale_score(10, 1, 100) == 0.5

    announce(capsys, "C7",
             "recall nondecreasing in k, defined metrics within [0,1], "
             "importance monotone per feature, log endpoints exact "
             "(1.0 / 0.0 / 0.5)")


def test_c8_shard_merge_byte_identical(capsys, noisy_sim, tmp_path):
    _, _, _, _, _, events = noisy_sim
    assert len(events) == 100_000
    paths = []
    for n_shards in (1, 4, 16):
        records = aggregate_in_shards(events, n_shards=n_shards)
        path = tmp_path / f"ctr_{n_shards}.jsonl"
        write_ctr_records(records, path)
        paths.append(path)
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0]
    announce(capsys, "C8",
             f"100,000 events aggregated in 1, 4, and 16 shards wrote "
             f"byte-identical files ({len(blobs[0])} bytes)")


# sha256 of the seed-42 click log and of aggregate-ctr's output on it, pinned
# from an earlier release: a faster aggregation must write the same bytes.
GOLDEN_CLICKLOG = ("390a779219d3cc6a0be149bb32be62f0"
                   "32ee935114403d205b2fce818e0664a8")
GOLDEN_CTR = {
    (): (500, "a21810062182d20edacc0e3c4b21e8b3"
              "8940e0ffa38567cee782e828be95b2cd"),
    ("--min-impressions", "1", "--min-ctr", "0"):
        (5000, "5b943c48c3535918e27b332a0009ae65"
               "b654e4c4b108ae7c855636e3bf31e3f4"),
}


def test_c8_aggregate_ctr_golden_bytes(capsys, noisy_sim, tmp_path):
    _, _, _, _, _, events = noisy_sim
    clicklog = tmp_path / "clicklog.jsonl"
    write_events(events, clicklog)
    assert hashlib.sha256(clicklog.read_bytes()).hexdigest() == GOLDEN_CLICKLOG
    for i, (flags, (lines, digest)) in enumerate(GOLDEN_CTR.items()):
        out = tmp_path / f"ctr_{i}.jsonl"
        code = dispatch(["aggregate-ctr", "--events", str(clicklog),
                         "--out", str(out), *flags])
        capsys.readouterr()
        assert code == 0
        blob = out.read_bytes()
        assert blob.count(b"\n") == lines
        assert hashlib.sha256(blob).hexdigest() == digest
    announce(capsys, "C8",
             "aggregate-ctr on the seed-42 click log matches the pinned "
             "sha256 digests at the default and the vacuous filter")


def test_c9_delta_formatting(capsys):
    def report_with(value: float):
        run = [RunResult(query="q", ranked=(
            RankedEntity("A", 1.0, ConfidenceBin.HIGH),))]
        report = evaluate_run({"q": {"A"}}, run, k=5)
        report.aggregates["recall@5@high"] = {"micro": value, "macro": value}
        return report

    delta = compare_reports(report_with(0.50), report_with(0.55))
    cell = next(c for c in delta.cells
                if c.metric == "recall@5@high" and c.mode == "micro")
    rendered = cell.to_dict()
    assert rendered["relative_label"] == "+10.00%"
    assert rendered["absolute_label"] == "+5.00pp"
    table = delta.render_table()
    assert "+10.00%" in table
    assert "+5.00pp" in table
    announce(capsys, "C9",
             'recall@5@high 0.50 -> 0.55 renders "+5.00pp" absolute and '
             '"+10.00%" relative')
