"""tools/ab.py's summary of paired runs and the rounds it keeps, on
synthetic records: medians, quartiles, the head's wins and one round per
call, without running the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def side(wall, rss, failed=0):
    return {"failed": failed,
            "metrics": {"wall_s": wall, "peak_rss_mb": rss,
                        "items_per_s": 100 / wall},
            "stage_wall_s": {"evaluate": wall / 2, "compare": wall / 4},
            "stage_peak_rss_mb": {"evaluate": rss, "compare": rss - 1}}


BETTER = {"wall_s": "lower", "peak_rss_mb": "lower", "items_per_s": "higher"}
# Five pairs: the head is faster in four, slower in one, and its memory
# ties twice, wins twice and loses once.
PAIRS = [{"base": side(b, rb), "head": side(h, rh)} for b, h, rb, rh in [
    (2.0, 1.5, 26.0, 26.0), (1.8, 1.6, 26.0, 25.0), (2.4, 1.4, 26.5, 26.5),
    (1.6, 1.7, 25.5, 26.0), (2.2, 1.2, 26.0, 25.5)]]


def test_medians_quartiles_and_wins():
    out = ab.summary(PAIRS, BETTER)
    wall = out["metrics"]["wall_s"]
    # base 1.6 1.8 2.0 2.2 2.4; head 1.2 1.4 1.5 1.6 1.7 (sorted)
    assert wall["base"] == pytest.approx({"q1": 1.8, "median": 2.0,
                                          "q3": 2.2})
    assert wall["head"] == pytest.approx({"q1": 1.4, "median": 1.5,
                                          "q3": 1.6})
    assert (wall["head_wins"], wall["ties"]) == (4, 0)
    rss = out["metrics"]["peak_rss_mb"]
    assert (rss["head_wins"], rss["ties"]) == (2, 2)
    assert rss["base"]["median"] == 26.0 and rss["head"]["median"] == 26.0
    # Higher is better: the head wins a throughput pair when it is faster.
    assert out["metrics"]["items_per_s"]["head_wins"] == 4
    assert out["stage_wall_s"]["evaluate"] == pytest.approx(
        {"base": 1.0, "head": 0.75})
    assert out["stage_peak_rss_mb"]["compare"] == {"base": 25.0,
                                                   "head": 25.0}
    assert out["failed"] == {"base": 0, "head": 0}


def test_quartiles_of_even_and_single_samples():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == pytest.approx(
        {"q1": 1.75, "median": 2.5, "q3": 3.25})
    assert ab.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_stage_peaks_take_the_median_of_each_repetitions_largest_call():
    record = {"iterations": [
        [{"name": "evaluate", "rss_mb": 25.0},
         {"name": "evaluate", "rss_mb": 26.0},
         {"name": "compare", "rss_mb": 24.0}],
        [{"name": "evaluate", "rss_mb": 25.5},
         {"name": "evaluate", "rss_mb": 25.0},
         {"name": "compare", "rss_mb": 23.0}],
        [{"name": "evaluate", "rss_mb": 27.0},
         {"name": "evaluate", "rss_mb": 24.0},
         {"name": "compare", "rss_mb": 25.0}]]}
    assert ab.stage_peaks(record) == {"evaluate": 26.0, "compare": 24.0}


def test_a_later_call_adds_a_round_and_keeps_the_earlier(
        monkeypatch, tmp_path):
    shas = {"base": "b" * 40, "head": "h" * 40}
    bench = ab.new_round({}, shas, "evaluate", 7, {"pairs": PAIRS[:3]})
    bench = ab.new_round(bench, shas, "testset", 7, {"pairs": PAIRS[:1]})
    bench = ab.new_round(bench, dict(shas), "evaluate", 7,
                         {"pairs": PAIRS})
    assert bench["workloads"]["evaluate-seed7"] == {
        "workload": "evaluate", "seed": 7,
        "rounds": [{"pairs": PAIRS[:3]}, {"pairs": PAIRS}]}
    assert bench["workloads"]["testset-seed7"]["rounds"] == [
        {"pairs": PAIRS[:1]}]
    assert {side: bench[side] for side in shas} == shas

    # Two calls of main: each round keeps the machine facts of its own call.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "end_to_end": [
            {"name": name, "better": way} for name, way in BETTER.items()]}))
    facts = iter([{"cpu_count": 2, "python": "3.11.7"},
                  {"cpu_count": 4, "python": "3.12.1"}])
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "git", lambda *args: args[-1].split("^")[0])
    monkeypatch.setattr(ab, "extract", lambda sha, tree: None)
    monkeypatch.setattr(ab, "run", lambda *args: side(2.0, 26.0))
    monkeypatch.setattr(ab, "machine", lambda: next(facts))
    for _ in range(2):
        assert ab.main(["--base", shas["base"], "--head", shas["head"],
                        "--workload", "evaluate", "--seed", "7",
                        "--pairs", "1"]) == 0
    bench = json.loads((tmp_path / f"BENCH_{shas['head']}.json").read_text())
    assert [r["machine"] for r in bench["workloads"]["evaluate-seed7"][
        "rounds"]] == [{"cpu_count": 2, "python": "3.11.7"},
                       {"cpu_count": 4, "python": "3.12.1"}]
    assert "machine" not in bench


def test_contents_for_other_shas_are_replaced():
    old = ab.new_round({}, {"base": "a" * 40, "head": "h" * 40}, "evaluate",
                       7, {"pairs": PAIRS})
    bench = ab.new_round(old, {"base": "b" * 40, "head": "h" * 40},
                         "evaluate", 7, {"pairs": PAIRS[:1]})
    assert bench == {"base": "b" * 40, "head": "h" * 40, "workloads": {
        "evaluate-seed7": {"workload": "evaluate", "seed": 7,
                           "rounds": [{"pairs": PAIRS[:1]}]}}}
